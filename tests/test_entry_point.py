"""`python -m intervalcubes` loses no output.  The entry point turns the
collector off and freezes what is tracked once `main` returns (README,
"The collector"); each command run as a real process must still give
the exit code, stdout, stderr and files that `cli.main` gives in-process,
byte for byte."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import intervalcubes
from intervalcubes.cli import main

from conftest import make_model, shifted

SRC = str(Path(intervalcubes.__file__).resolve().parents[1])

# each case's command line, run in a directory holding the inputs below,
# and the exit code it must give
CASES = {
    "construct to stdout": (["construct", "p8.json", "--variant", "best", "--normalize"], 0),
    "construct to --out": (
        ["construct", "p8.json", "--variant", "best", "--normalize", "--out", "out.json"], 0),
    "verify ok": (["verify", "p8.json", "p8.rep.json"], 0),
    "verify a moved cube": (["verify", "p8.json", "moved.rep.json"], 2),
    "recognize C_4": (["recognize", "c4.txt"], 1),
    "exact over the oracle bound": (["exact", "big.txt"], 3),
    "usage error": (["construct", "--variant", "bogus", "p8.json"], 64),
    "malformed model": (["construct", "bad.json"], 65),
    "search --csv --out": (
        ["search", "--count", "20", "--n-max", "7", "--seed", "1", "--csv", "hist.csv",
         "--out", "search.json"], 0),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    where = tmp_path_factory.mktemp("inputs")
    (where / "p8.json").write_text(make_model([(i, i + 1) for i in range(8)]).dumps())
    (where / "c4.txt").write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    (where / "big.txt").write_text("9 0\n")
    (where / "bad.json").write_text('{"intervals": [{"id": 0, "lo": "1E5", "hi": "2E5"}]}')
    assert main(["construct", str(where / "p8.json"), "--out", str(where / "p8.rep.json")]) == 0
    rep = json.loads((where / "p8.rep.json").read_text())
    (where / "moved.rep.json").write_text(json.dumps(shifted(rep, [3])))
    return where


def _files(where: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(where.iterdir())}


@pytest.mark.parametrize("case", CASES)
def test_a_process_gives_what_main_gives(tmp_path, capsysbinary, monkeypatch, inputs, case):
    argv, expected = CASES[case]
    # argparse wraps its usage line to the terminal's width
    monkeypatch.setenv("COLUMNS", "80")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    # stdout buffered, as by default, so that a lost flush at exit shows
    env.pop("PYTHONUNBUFFERED", None)
    process = shutil.copytree(inputs, tmp_path / "process")
    done = subprocess.run([sys.executable, "-m", "intervalcubes", *argv], cwd=process, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=120)

    monkeypatch.chdir(shutil.copytree(inputs, tmp_path / "main"))
    code = main(argv)
    captured = capsysbinary.readouterr()

    assert (done.returncode, code) == (expected, expected)
    assert done.stdout == captured.out
    assert done.stderr == captured.err
    assert _files(process) == _files(tmp_path / "main")
