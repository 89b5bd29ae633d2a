"""The cyclic collector's policy is the process's: `python -m
intervalcubes` turns the collector off once, at the entry point, and
freezes what is tracked once `main` returns, while `cli.main` and the
library leave it as they find it, so a program that calls them keeps its
own.  The policy holds because no command leaves
cyclic garbage: `search`, which runs the oracle thousands of times,
stays bounded with the collector off."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import intervalcubes
from intervalcubes import GenConfig, random_interval_model
from intervalcubes.cli import main

from conftest import model_text

SRC = str(Path(intervalcubes.__file__).resolve().parents[1])


def _python(code: str, *args: str) -> str:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _state():
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


COMMANDS = [
    ["construct", "{model}", "--variant", "claw", "--trace", "--out", "{rep}"],
    ["verify", "{model}", "{rep}"], ["verify", "{model}", "missing.json"], ["order", "{model}"],
    ["label", "{model}"], ["params", "{model}"], ["recognize", "{path}"], ["construct", "{path}"],
    ["exact", "{model}"], ["exact", "{path}"], ["search", "--count", "20", "--n-max", "7"],
    ["gen", "--n", "30"],
]


def _inputs(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(model_text(random_interval_model(GenConfig(7, 1, "unit-jitter"))))
    (tmp_path / "path.txt").write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
    paths = {"model": model, "rep": tmp_path / "rep.json", "path": tmp_path / "path.txt"}
    return [[word.format(**paths) for word in argv] for argv in COMMANDS]


def test_no_command_leaves_cyclic_garbage(tmp_path, capsys):
    commands = _inputs(tmp_path)
    gc.collect()
    gc.disable()
    try:
        for argv in commands:
            main(argv)
            assert gc.collect() == 0, argv
    finally:
        gc.enable()
    capsys.readouterr()


@pytest.mark.parametrize("policy", ["default", "frozen", "disabled"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, policy):
    saved = gc.get_threshold()
    try:
        if policy == "frozen":
            gc.freeze()
        elif policy == "disabled":
            gc.disable()
            gc.set_threshold(5000, 5, 5)
        before = _state()
        for argv in _inputs(tmp_path):
            main(argv)
            assert _state() == before, argv
    finally:
        gc.unfreeze()
        gc.enable()
        gc.set_threshold(*saved)
    capsys.readouterr()


def test_the_entry_point_sets_the_policy():
    """`python -m intervalcubes` runs `cli.run`, which sets the policy,
    calls `main`, and freezes what is tracked once `main` returns, so that
    finalization's collections walk nothing; atexit handlers still run."""
    out = _python(
        "import atexit, gc, runpy, sys\n"
        "from intervalcubes import cli\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
        "cli.main = lambda: print(gc.isenabled(), gc.get_threshold(),\n"
        "                         gc.get_freeze_count()) or 0\n"
        "runpy.run_module('intervalcubes', run_name='__main__')\n"
    )
    assert out == "False (700, 10, 10) 0\nTrue\n"


PEAK = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "intervalcubes", *sys.argv[1:]],
                         stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_search_stays_bounded_under_the_policy():
    """Ten times the samples peak within 10 MB: an exact run that left its
    recursive closures for the collector added about 2 kB a sample.  Each
    command runs under a small process, so that its peak RSS is its own."""
    peaks = []
    for count in ("300", "3000"):
        code, peak_kb = map(int, _python(PEAK, "search", "--count", count, "--n-max", "6").split())
        assert code == 0
        peaks.append(peak_kb)
    assert peaks[1] - peaks[0] < 10 * 1024, peaks
