"""Every name the package exports, every function or class defined at
the top of one of its modules, and every public method or property of
those classes, has a caller in the package or in `perfbench/`.

Tests alone do not keep a name in the library: a helper only tests call
belongs in `tests/`, and one left behind after a move is a second copy.
A reference counts when it is code, a name or an attribute, or a name
in a report's `_derived`, not a docstring or a comment, and when it lies
outside the body of a checked name that has no caller itself, so a
chain of helpers only tests reach is flagged whole.  Methods are matched
by name alone: a call of any method of that name keeps them all.
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


DEFS = (ast.FunctionDef, ast.ClassDef)


def _names(nodes) -> list[str]:
    """Names and attributes, and the texts of a `_derived` tuple, which
    `graphs.Report.to_json_obj` reads as attributes."""
    out = []
    for node in nodes:
        if isinstance(node, (ast.Name, ast.Attribute)):
            out.append(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_derived"]:
            out += [elt.value for elt in node.value.elts]
    return out


def references() -> list[tuple[tuple[str, ...], str]]:
    """(the top-level def or class it lies in and, in a class, the method,
    if any; referenced name) for every name and attribute in the package,
    outside `__init__`, and in the benchmark scripts."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    out = []
    for path in files:
        for top in ast.parse(path.read_text()).body:
            owner = (top.name,) if isinstance(top, DEFS) else ()
            in_class = isinstance(top, ast.ClassDef)
            methods = [m for m in top.body if isinstance(m, DEFS)] if in_class else []
            inner: set[int] = set()  # the nodes of the methods, kept out of the class's own
            for method in methods:
                nodes = list(ast.walk(method))
                inner.update(map(id, nodes))
                out += [((*owner, method.name), name) for name in _names(nodes)]
            rest = (node for node in ast.walk(top) if id(node) not in inner)
            out += [(owner, name) for name in _names(rest)]
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


def public_methods() -> set[str]:
    """Methods and properties of the package's top-level classes whose
    names do not start with an underscore."""
    return {
        part.name
        for path in PACKAGE.glob("*.py")
        for top in ast.parse(path.read_text()).body
        if isinstance(top, ast.ClassDef)
        for part in top.body
        if isinstance(part, ast.FunctionDef) and not part.name.startswith("_")
    }


def uncalled(names: set[str]) -> set[str]:
    refs = references()
    unused: set[str] = set()
    while True:
        used = {name for owners, name in refs if name not in owners and unused.isdisjoint(owners)}
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


def test_every_public_method_has_a_caller_outside_tests():
    unused = uncalled(exported_names() | top_level_definitions() | public_methods())
    assert not unused, f"methods only tests call: {sorted(unused)}"
