"""Every name the package exports, and every function or class defined
at the top of one of its modules, has a caller in the package or in
`perfbench/`.

Tests alone do not keep a name in the library: a helper only tests call
belongs in `tests/`, and one left behind after a move is a second copy.
A reference counts when it is code, a name or an attribute, not a
docstring or a comment, and when it lies outside the body of a checked
name that has no caller itself, so a chain of helpers only tests reach
is flagged whole.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "intervalcubes"


def exported_names() -> set[str]:
    """The names the package's lazy table resolves on first use."""
    import intervalcubes

    return set(intervalcubes._EXPORTS)


def references() -> list[tuple[str | None, str]]:
    """(top-level def or class it lies in, or None; referenced name) for
    every name and attribute in the package, outside `__init__`, and in
    the benchmark scripts."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    out = []
    for path in files:
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    out.append((owner, node.id))
                elif isinstance(node, ast.Attribute):
                    out.append((owner, node.attr))
    return out


def top_level_definitions() -> set[str]:
    """Top-level functions and classes, less the module hooks such as
    `__getattr__` that Python itself calls."""
    return {
        top.name
        for path in PACKAGE.glob("*.py")
        for top in ast.parse(path.read_text()).body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and not (top.name.startswith("__") and top.name.endswith("__"))
    }


def uncalled(names: set[str]) -> set[str]:
    refs = references()
    unused: set[str] = set()
    while True:
        used = {name for owner, name in refs if owner != name and owner not in unused}
        grown = names - used
        if grown == unused:
            return unused
        unused = grown


def test_every_export_has_a_caller_outside_tests():
    unused = uncalled(exported_names())
    assert not unused, f"exported, but only tests call them: {sorted(unused)}"


def test_every_top_level_definition_has_a_caller_outside_tests():
    unused = uncalled(exported_names() | top_level_definitions())
    assert not unused, f"defined in the package, but only tests call them: {sorted(unused)}"
