"""Each CLI command loads only the modules it runs, none loads
`dataclasses`, no command loads `fractions`, whatever the text of its
endpoints and coordinates, a canonical command line loads neither
`argparse` nor `gettext`, and a bare `import intervalcubes` loads no
submodule.  The modules follow the input's format: an edge list loads
neither `intervals` nor `rationals`, and `rationals` loads only where
rational text is read or written.

Every command runs in a fresh interpreter, as the CLI does, and reports
the package modules and the watched standard modules it loaded once it
has finished.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import intervalcubes

SRC = str(Path(intervalcubes.__file__).resolve().parents[1])

PROBE = """
import json, sys
watched = ("argparse", "dataclasses", "fractions", "gettext")
before = {m for m in watched if m in sys.modules}
from intervalcubes import cli
code = cli.main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "loaded": [m for m in watched if m in sys.modules and m not in before],
    "modules": sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("intervalcubes.")),
    "compiled": "intervalcubes.rationals" in sys.modules
    and sys.modules["intervalcubes.rationals"]._rational.cache_info().currsize,
}))
"""

EVERY = {
    "cli", "construct", "generate", "graphs", "intervals", "labelling", "oracle", "params",
    "rationals", "recognition", "search", "verify",
}
BASE = {"cli", "graphs"}
MODEL = BASE | {"intervals", "rationals"}
# construct on a model: no recognition
BUILD = EVERY - {"recognition", "oracle", "search", "generate"}


def _python(*args: str) -> str:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _run(*argv: str) -> dict:
    return json.loads(_python("-c", PROBE, *argv).splitlines()[-1])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("startup")
    # unit-jitter endpoints are "p/q" text, such as "21/16"
    _run("gen", "--n", "12", "--seed", "1", "--dist", "unit-jitter", "--out", str(d / "model.json"))
    (d / "small.json").write_text(
        '{"intervals": [{"id": 0, "lo": "-1/2", "hi": "3/2"}, {"id": 1, "lo": "1", "hi": "5/2"}]}'
    )
    (d / "path.txt").write_text("4 3\n0 1\n1 2\n2 3\n")
    # every spelling the grammar reads, and two values a float cannot tell apart
    (d / "texts.json").write_text(json.dumps({"intervals": [
        {"id": 0, "lo": "0.5", "hi": "1_000 / 3"}, {"id": 1, "lo": " 1/ 2", "hi": "+2.2_5"},
        {"id": 2, "lo": "-1_0", "hi": ".5"}]}))
    below = f"{10**30 - 3}/{3 * 10**30}"  # 1/3 - 1/10^30
    (d / "ties.json").write_text(json.dumps({"intervals": [
        {"id": 0, "lo": "1/3", "hi": "1/3"}, {"id": 1, "lo": below, "hi": "1/3"},
        {"id": 2, "lo": "-1", "hi": below}]}))
    for name in ("model", "texts", "ties"):
        model, rep = str(d / f"{name}.json"), str(d / f"{name}.rep.json")
        _run("construct", model, "--variant", "best", "--out", rep)
    _run("construct", str(d / "path.txt"), "--variant", "best", "--out", str(d / "path.rep.json"))
    # the same representation with "p/q" text coordinates and no unit
    rep = json.loads((d / "path.rep.json").read_text())
    unit = rep.pop("unit")
    rep["side"] = str(Fraction(rep["side"], unit))
    rep["coords"] = [[str(Fraction(x, unit)) for x in row] for row in rep["coords"]]
    (d / "path.text.json").write_text(json.dumps(rep))
    return d


# search samples from all three distributions, unit-jitter among them
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["recognize", "path.txt"], BASE | {"recognition"}),
        (["order", "path.txt"], BASE | {"recognition"}),
        (["label", "model.json"], MODEL | {"labelling"}),
        (["params", "path.txt"], BASE | {"recognition", "labelling", "params"}),
        (["construct", "model.json", "--variant", "best", "--normalize", "--trace"], BUILD),
        (["construct", "path.txt", "--variant", "best"],
         EVERY - {"oracle", "search", "generate", "intervals", "rationals"}),
        (["verify", "model.json", "model.rep.json"], MODEL | {"verify"}),
        (["verify", "path.txt", "path.rep.json"], BASE | {"verify"}),
        (["verify", "path.txt", "path.text.json"], BASE | {"verify", "rationals"}),
        (["construct", "texts.json", "--variant", "best"], BUILD),
        (["verify", "texts.json", "texts.rep.json"], MODEL | {"verify"}),
        (["construct", "ties.json", "--variant", "best"], BUILD),
        (["verify", "ties.json", "ties.rep.json"], MODEL | {"verify"}),
        (["exact", "path.txt", "--max-b", "2"], BASE | {"oracle"}),
        (["exact", "small.json"], MODEL | {"oracle"}),
        (["search", "--count", "3", "--n-max", "5", "--seed", "1", "--csv", "hist.csv"],
         EVERY - {"construct", "verify", "recognition", "rationals"}),
        (["gen", "--n", "5", "--seed", "2", "--dist", "unit-jitter"], MODEL | {"generate"}),
    ],
    ids=["recognize", "order", "label", "params", "construct-model", "construct-edges", "verify",
         "verify-edges", "verify-edges-texts", "construct-texts", "verify-texts", "construct-ties",
         "verify-ties", "exact", "exact-model", "search", "gen"],
)
def test_each_command_loads_only_what_it_runs(inputs, argv, expected):
    argv = [str(inputs / a) if a.endswith((".txt", ".json", ".csv")) else a for a in argv]
    result = _run(*argv, "--out", str(inputs / "out.json"))
    assert result["code"] == 0
    assert set(result["modules"]) == expected
    assert result["loaded"] == []


@pytest.mark.parametrize("argv, compiled", [
    (["construct", "model.json", "--variant", "best", "--normalize"], 0),
    (["verify", "model.json", "model.rep.json"], 0),
    (["construct", "ties.json", "--variant", "best"], 0),
    (["exact", "small.json"], 0),
    (["exact", "path.txt"], 0),
    (["gen", "--n", "5", "--seed", "2", "--dist", "unit-jitter"], 0),
    (["construct", "texts.json", "--variant", "best"], 1),
    (["verify", "texts.json", "texts.rep.json"], 1),
], ids=["construct", "verify", "construct-ties", "exact-model", "exact", "gen", "construct-texts",
        "verify-texts"])
def test_only_non_canonical_text_compiles_the_pattern(inputs, argv, compiled):
    """Canonical "p", "-p" and "p/q" texts and written representations,
    all ints, are read without the rational expression, which is compiled
    on the first other text, such as " 1/ 2", and read through it."""
    argv = [str(inputs / a) if a.endswith((".txt", ".json")) else a for a in argv]
    result = _run(*argv, "--out", str(inputs / "out.json"))
    assert (result["code"], result["compiled"]) == (0, compiled)


def test_help_still_exits_0():
    out = _python("-m", "intervalcubes", "construct", "-h")
    assert out.startswith("usage: intervalcubes construct [-h] [--out OUT]")


def test_bare_import_loads_no_submodule():
    probe = "import sys, intervalcubes; print([m for m in sys.modules if '.' in m])"
    assert "intervalcubes." not in _python("-c", probe)


def test_every_export_resolves_and_is_listed():
    listed = dir(intervalcubes)
    for name, module in intervalcubes._EXPORTS.items():
        value = getattr(intervalcubes, name)
        assert value is getattr(sys.modules[f"intervalcubes.{module}"], name)
        assert name in listed


def test_star_import_gives_every_export():
    names: dict = {}
    exec("from intervalcubes import *", names)
    assert set(intervalcubes._EXPORTS) <= names.keys()


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        intervalcubes.no_such_name
    assert not hasattr(intervalcubes, "no_such_name")
