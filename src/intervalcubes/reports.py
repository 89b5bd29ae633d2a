"""Structured pass/fail reports shared by the validators."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """One failed check: a kind tag plus the witness that breaks it."""

    kind: str
    witness: tuple
    message: str = ""


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def has(self, kind: str) -> bool:
        return any(v.kind == kind for v in self.violations)

    def to_json_obj(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"kind": v.kind, "witness": list(v.witness), "message": v.message}
                for v in self.violations
            ],
        }
