"""One round of benchmark operations, and the checks on their outputs.

Shared by the end-to-end run, where each operation is a fresh CLI process,
and the traced run, where each is an in-process call of the CLI's `main`.
Uses only the standard library: the checks trust nothing from the package.

`execute(kind, argv)` runs one CLI command and returns
`(exit_code, seconds, peak_rss_mib, reason)`; `reason` is set, and the
exit code None, when the command was killed or never started.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

EXIT_OK, EXIT_VERIFY_FAILED, EXIT_SIZE_REFUSAL = 0, 2, 3

TIMEOUT = "timeout"
NOT_RUN = "not run: time limit reached"
REFUSED = "refused: exit 3"
SKIPPED = "skipped: no representation to verify"
# failures that are not wrong outputs; `correct` stays true through them
NOT_WRONG = (TIMEOUT, NOT_RUN, REFUSED, SKIPPED)


def run_round(jobs: list[dict], execute, work: Path) -> list[dict]:
    """Run every job once, in order; one record per operation."""
    records: list[dict] = []
    for job in jobs:
        for record in _RUNNERS[job["kind"]](job, execute, work):
            records.append({"job": job["name"], **record})
    return records


def _record(kind: str, result, reason: str | None, **extra) -> dict:
    _, seconds, rss, _ = result
    return {
        "kind": kind,
        "seconds": seconds,
        "rss_mib": rss,
        "reason": reason,
        "wrong": reason is not None and reason not in NOT_WRONG,
        **extra,
    }


def _failure(result) -> str | None:
    code, _, _, reason = result
    if reason is not None:
        return reason
    return REFUSED if code == EXIT_SIZE_REFUSAL else None


def _load(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _fresh(work: Path, name: str, suffix: str) -> Path:
    path = work / f"{name}.{suffix}.json"
    path.unlink(missing_ok=True)
    return path


def _construct(job: dict, execute, work: Path) -> list[dict]:
    rep = _fresh(work, job["name"], "rep")
    bad = _fresh(work, job["name"], "bad")
    report = _fresh(work, job["name"], "report")
    result = execute(
        "construct",
        ["construct", job["graph"], "--variant", "best", "--normalize", "--out", str(rep)],
    )
    reason = _failure(result) or _check_construct(result[0], rep, job)
    size = rep.stat().st_size if reason is None else 0
    records = [_record("construct", result, reason, bytes=size)]
    skipped = (None, 0.0, None, SKIPPED)
    if reason is not None:
        return records + [_record(k, skipped, SKIPPED) for k in ("verify", "verify_bad")]

    result = execute("verify", ["verify", job["graph"], str(rep), "--out", str(report)])
    reason = _failure(result) or _check_verify(result[0], report)
    records.append(_record("verify", result, reason))

    reason = _corrupt(rep, bad, job["moved"])
    if reason is not None:
        return records + [_record("verify_bad", skipped, reason)]
    report.unlink(missing_ok=True)
    result = execute("verify_bad", ["verify", job["graph"], str(bad), "--out", str(report)])
    reason = _failure(result) or _check_verify_bad(result[0], report, job["missing"])
    records.append(_record("verify_bad", result, reason))
    return records


def _check_construct(code: int, rep: Path, job: dict) -> str | None:
    if code != EXIT_OK:
        return f"construct exit {code}"
    obj = _load(rep)
    if not isinstance(obj, dict) or not isinstance(obj.get("coords"), list):
        return "construct wrote no representation"
    if obj.get("dimension") != job["dim"]:
        return f"dimension {obj.get('dimension')}, expected {job['dim']}"
    if len(obj["coords"]) != job["n"]:
        return f"{len(obj['coords'])} cubes for {job['n']} vertices"
    return None


def _corrupt(rep: Path, bad: Path, moved: list[int]) -> str | None:
    """Shift the moved vertices past the span of dimension 0 by more than
    one side: exactly the edges with one moved end lose their adjacency,
    and no non-edge gains one."""
    obj = _load(rep)
    if obj["dimension"] < 1:
        return "dimension 0 leaves nothing to corrupt"
    coords = obj["coords"]
    xs = [Fraction(row[0]) for row in coords]
    shift = max(xs) - min(xs) + 2 * Fraction(obj["side"])
    for v in moved:
        coords[v][0] = str(xs[v] + shift)
    bad.write_text(json.dumps(obj), encoding="utf-8")
    return None


def _check_verify(code: int, report: Path) -> str | None:
    if code != EXIT_OK:
        return f"verify exit {code} on a correct representation"
    obj = _load(report)
    if not isinstance(obj, dict) or obj.get("ok") is not True:
        return "verify report is not ok"
    return None


def _check_verify_bad(code: int, report: Path, missing: list[list[int]]) -> str | None:
    if code != EXIT_VERIFY_FAILED:
        return f"verify exit {code} on a corrupted representation, expected 2"
    obj = _load(report)
    if not isinstance(obj, dict) or obj.get("ok") is not False:
        return "verify report on a corrupted representation is not a failure"
    if sorted(obj.get("missing_adjacency", [])) != missing:
        return "missing_adjacency differs from the edges cut by the shift"
    if obj.get("missing_separation") != []:
        return "missing_separation is not empty"
    return None


def _exact(job: dict, execute, work: Path) -> list[dict]:
    out = _fresh(work, job["name"], "exact")
    result = execute("exact", ["exact", job["graph"], "--out", str(out)])
    reason = _failure(result) or _check_exact(result[0], out, job)
    return [_record("exact", result, reason)]


def _check_exact(code: int, out: Path, job: dict) -> str | None:
    if code != EXIT_OK:
        return f"exact exit {code}"
    obj = _load(out)
    cubicity = obj.get("cubicity") if isinstance(obj, dict) else None
    if not isinstance(cubicity, int):
        return "exact reported no cubicity"
    if job["cubicity"] is not None and cubicity != job["cubicity"]:
        return f"cubicity {cubicity}, expected {job['cubicity']}"
    if not job["lo"] <= cubicity <= job["hi"]:
        return f"cubicity {cubicity} outside [{job['lo']}, {job['hi']}]"
    return None


def _search(job: dict, execute, work: Path) -> list[dict]:
    out = _fresh(work, job["name"], "report")
    argv = ["search", "--count", str(job["count"]), "--n-max", str(job["n_max"]),
            "--seed", str(job["seed"]), "--out", str(out)]
    result = execute("search", argv)
    reason = _failure(result) or _check_search(result[0], out, job["count"])
    graphs = job["count"] if reason is None else 0
    return [_record("search", result, reason, graphs=graphs)]


def _check_search(code: int, out: Path, count: int) -> str | None:
    if code != EXIT_OK:
        return f"search exit {code}"
    obj = _load(out)
    if not isinstance(obj, dict):
        return "search wrote no report"
    if obj.get("graphs_tried") != count:
        return f"graphs_tried {obj.get('graphs_tried')}, expected {count}"
    if obj.get("bound_violations") != []:
        return "search reports bound violations"
    return None


_RUNNERS = {"construct": _construct, "exact": _exact, "search": _search}
