"""Benchmark of intervalcubes: the CLI end to end, and each module traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  Inputs are made from --seed and written to files under
perfbench/work/; the CLI reads only those files.  Operations run one at a
time.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

--trace 0: every operation is a fresh `python -m intervalcubes` process,
  timed from start to exit, with its peak RSS from os.wait4.  Rounds of
  the workload repeat until at least three have run and --seconds have
  passed, stopping between two operations.  Each time is scaled by the
  CPU's speed while it ran (see SpeedTrace), and each operation counts
  with its median scaled time over the rounds.
--trace 1: the same rounds run inside one child process per pass, through
  the CLI's main, alternately bare and with a span around each public call
  (see inproc.py); a last pass records tracemalloc peaks.  The spans go to
  perfbench/work/trace-<workload>-<seed>.json.

See README.md for the workloads, the metrics and what moves them.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

RUN_LIMIT_S = 150  # stop starting work here; a run must end within 180 s
SETUP_REPEATS = 3  # before the first round; --trace 0 sets up again after each
MIN_ROUNDS = 3  # so that each operation's median has three repeats or more
OVERRUN = 1.25  # bounds a traced run's length; see _passes
SAMPLE_EVERY_S = 0.02  # the speed probe's period; see SpeedTrace
MIN_SAMPLES = 3
REF_PROBE_S = 0.0002  # a scaled time reads as if one probe took this long

END_TO_END_UNITS = {
    "setup_s": "s",
    "construct_s": "s",
    "verify_s": "s",
    "verify_bad_s": "s",
    "exact_s": "s",
    "search_graphs_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "rep_bytes": "bytes",
    "ok_frac": "ratio",
}


def _probe():
    """A fixed piece of pure-Python work that never changes with the
    package's code: 0.2-0.5 ms of dict updates on a shared 2-core x86-64
    host, depending on what else the host runs."""
    table: dict[int, int] = {}
    for i in range(2000):
        table[i & 255] = table.get(i & 255, 0) + i * i


class SpeedTrace:
    """Samples the CPU's speed all through a run, to scale wall times by it.

    Other tenants of a shared host slow it by up to 2.5 times, and the
    slowdown changes within seconds, inside a single operation; no number
    of repeats averages it out.  So a thread runs `_probe` every
    SAMPLE_EVERY_S and records the CPU time it took: thread CPU time, so
    that time spent preempted by the timed process does not count.  The
    benchmark and its children are pinned to one CPU, so the probe runs
    on the CPU the timed process runs on.  A wall time is divided by the
    mean probe time while it ran (over at least the MIN_SAMPLES last
    samples up to its end) and multiplied by REF_PROBE_S: the result is
    in seconds at a fixed machine speed.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._thread.start()
        while not self.samples:
            time.sleep(SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self):
        while not self._stop.wait(SAMPLE_EVERY_S):
            at, cpu = time.perf_counter(), time.thread_time()
            _probe()
            self.samples.append((at, time.thread_time() - cpu))

    def scale(self, start: float, seconds: float) -> float:
        """Scale `seconds` of wall time that began at perf_counter `start`."""
        samples = self.samples[:]
        lo = bisect.bisect_left(samples, (start,))
        hi = bisect.bisect_right(samples, (start + seconds, math.inf))
        lo = min(lo, max(0, hi - MIN_SAMPLES))
        cost = statistics.fmean(c for _, c in samples[lo:hi])
        return seconds * REF_PROBE_S / cost


def _pin_to_one_cpu():
    """Run the benchmark and every child it starts on a single CPU, so
    that the speed probe measures the CPU the timed process runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_process(cmd: list[str], deadline: float, log: Path):
    """Run one child to completion, or kill it at `deadline` (a monotonic
    time).  Returns (exit code, wall seconds, peak RSS in MiB, reason)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return None, 0.0, None, ops.NOT_RUN
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill():
        with lock:
            if not state["exited"]:
                proc.kill()
                state["killed"] = True

    timer = threading.Timer(remaining, kill)
    timer.start()
    try:
        # wait without reaping, so a late kill() cannot hit a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        seconds = time.perf_counter() - start
        with lock:
            state["exited"] = True
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mib = usage.ru_maxrss / 1024  # KiB on Linux
    if state["killed"]:
        return None, seconds, rss_mib, ops.TIMEOUT
    return proc.returncode, seconds, rss_mib, None


def set_up(workload: str, seed: int, inputs: Path, work: Path, deadline: float,
           clock: SpeedTrace):
    """Write the inputs into a fresh `inputs` directory and import the
    package cold in a fresh interpreter.

    Returns the jobs, the inputs' intervals, the scaled set-up time and the
    time spent in the library's model generator.
    """
    from intervalcubes import random_interval_model
    from workloads import write_inputs

    gen_seconds = 0.0

    def generate(cfg):
        nonlocal gen_seconds
        start = time.perf_counter()
        model = random_interval_model(cfg)
        gen_seconds += time.perf_counter() - start
        return model

    shutil.rmtree(inputs, ignore_errors=True)
    start = time.perf_counter()
    inputs.mkdir(parents=True)
    jobs, intervals = write_inputs(workload, seed, inputs, generate)
    code, _, _, reason = run_process(
        [sys.executable, "-c", "import intervalcubes"], deadline, work / "stderr.log"
    )
    if code != 0:
        raise SystemExit(f"cannot import intervalcubes from {SRC}: {reason or code}")
    return jobs, intervals, clock.scale(start, time.perf_counter() - start), gen_seconds


def setup(workload: str, seed: int, work: Path, deadline: float, clock: SpeedTrace):
    """Set up SETUP_REPEATS times into work/inputs.  Returns the jobs, the
    inputs' intervals, the set-up times and the median generator time."""
    runs = [set_up(workload, seed, work / "inputs", work, deadline, clock)
            for _ in range(SETUP_REPEATS)]
    jobs, intervals, _, _ = runs[-1]
    return jobs, intervals, [r[2] for r in runs], statistics.median(r[3] for r in runs)


def _passes(seconds: float):
    """Yield until `seconds` have passed.  A pass is not started if, lasting
    as long as the last one, it would end after OVERRUN * seconds; the
    first always runs."""
    start = last_start = time.perf_counter()
    yield
    while True:
        now = time.perf_counter()
        elapsed, last = now - start, now - last_start
        if elapsed >= seconds or elapsed + last > OVERRUN * seconds:
            return
        last_start = now
        yield


def end_to_end(jobs, seconds, work, deadline, clock, set_up_again):
    """Repeat rounds of fresh CLI processes until MIN_ROUNDS have run and
    `seconds` have passed.  The last round stops at the first job that
    would start after that, so a run overruns by one operation at most.
    Each operation's time is scaled by `clock`.
    After each whole round `set_up_again()` runs, so that set-up is timed
    all through the run, not only in its first second.
    Returns the records of each round, the last one perhaps partial, and
    the set-up times."""

    def execute(kind, argv):
        cmd = [sys.executable, "-m", "intervalcubes", *argv]
        start = time.perf_counter()
        code, wall, rss, reason = run_process(cmd, deadline, work / "stderr.log")
        return code, clock.scale(start, wall), rss, reason

    start = time.perf_counter()
    rounds, setups = [], []
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append([])
        for job in jobs:
            if len(rounds) > MIN_ROUNDS and time.perf_counter() - start >= seconds:
                break
            rounds[-1] += ops.run_round([job], execute, work)
        else:
            setups.append(set_up_again())
        if any(r["reason"] == ops.NOT_RUN for r in rounds[-1]):
            break
    return rounds, setups


def end_to_end_metrics(rounds, setup_s) -> dict:
    """Each operation's median scaled time over the rounds, summed by kind.

    An operation's repeats that started no process (cut off by the time
    limit, or a verify whose construct failed) are left out.
    """
    records = [r for rnd in rounds for r in rnd]
    repeats: dict[tuple[str, str], list[dict]] = collections.defaultdict(list)
    for record in records:
        if record["reason"] not in (ops.NOT_RUN, ops.SKIPPED):
            repeats[(record["kind"], record["job"])].append(record)

    def total(kind, field="seconds"):
        return sum(statistics.median(r[field] for r in rs)
                   for (k, _), rs in repeats.items() if k == kind)

    search_s = total("search")
    values = {
        "setup_s": setup_s,
        "construct_s": total("construct"),
        "verify_s": total("verify"),
        "verify_bad_s": total("verify_bad"),
        "exact_s": total("exact"),
        "search_graphs_per_s": total("search", "graphs") / search_s if search_s else 0.0,
        "peak_rss_mb": max((r["rss_mib"] or 0.0 for r in records), default=0.0),
        "rep_bytes": total("construct", "bytes"),
        "ok_frac": sum(r["reason"] is None for r in records) / len(records),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def traced(jobs, seconds, work, deadline, clock):
    """Alternate bare and traced in-process passes, as `_passes` allows,
    then run one tracemalloc pass.  Returns the passes' outputs, each with
    the factor `clock` scaled its process's wall time by."""
    job_file = work / "jobs.json"
    job_file.write_text(json.dumps(jobs), encoding="utf-8")

    def one_pass(mode):
        out = work / f"pass-{mode}.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "inproc.py"), str(job_file), mode, str(out)]
        start = time.perf_counter()
        code, wall, _, reason = run_process(cmd, deadline, work / "stderr.log")
        if code != 0:
            return {"mode": mode, "failed": reason or f"exit {code}"}
        return {**json.loads(out.read_text(encoding="utf-8")),
                "speed_factor": clock.scale(start, wall) / wall}

    passes = []
    for _ in _passes(seconds):
        pair = [one_pass("plain"), one_pass("trace")]
        passes += pair
        if any("failed" in p for p in pair):
            break
    passes.append(one_pass("alloc"))
    return passes


def per_layer_metrics(passes, setup_gen_s, psi_alpha) -> dict:
    import inproc

    spans = [*inproc.SPANS, *inproc.RENAME["verify_bad"].values()]
    traces = [p for p in passes if p["mode"] == "trace" and "failed" not in p]
    plain = [p for p in passes if p["mode"] == "plain" and "failed" not in p]
    alloc = [p for p in passes if p["mode"] == "alloc" and "failed" not in p]

    def median_of(field, key):
        return statistics.median([p[field].get(key, 0) for p in traces]) if traces else 0.0

    out = {}
    for name in spans:
        out[f"{name}.s"] = (median_of("totals", name), "s")
    # the generator runs in set-up, and inside `search` for its samples
    out["generate.random_interval_model.s"] = (
        setup_gen_s + median_of("totals", "generate.random_interval_model"), "s"
    )
    for name in inproc.COUNTS:
        out[name] = (median_of("counts", name), "count")
    out["params.psi"] = (psi_alpha["psi"], "count")
    out["params.alpha"] = (psi_alpha["alpha"], "count")
    for name in inproc.ALLOC:
        peak = max((p["alloc_peak_mib"].get(name, 0.0) for p in alloc), default=0.0)
        out[f"{name}.alloc_peak_mb"] = (peak, "MiB")
    # the two passes of a pair may run at different machine speeds
    overheads = [
        (t["ops_seconds"] * t["speed_factor"]) / (p["ops_seconds"] * p["speed_factor"]) - 1
        for p, t in zip(plain, traces)
        if p["ops_seconds"]
    ]
    out["trace.overhead_frac"] = (statistics.median(overheads) if overheads else 0.0, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown: git failed"
    return done.stdout.strip()


def write_trace(path: Path, args, passes, metrics):
    last = [p for p in passes if p["mode"] == "trace" and "failed" not in p][-1:]
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "per_layer": metrics,
        "self_seconds": last[0]["self_seconds"] if last else {},
        "spans_fields": ["name", "start", "end", "parent"],
        "spans": last[0]["spans"] if last else [],
        "ops_fields": ["span index", "argv"],
        "ops": last[0]["ops"] if last else [],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    if not (SRC / "intervalcubes" / "__init__.py").is_file():
        print(f"no intervalcubes sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    _pin_to_one_cpu()
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        from workloads import add_expectations

        with SpeedTrace() as clock:
            jobs, intervals, setups, gen_s = setup(args.workload, args.seed, work, deadline, clock)
            psi_alpha = add_expectations(jobs, intervals, args.seed)
            del intervals
            if args.trace:
                passes = traced(jobs, args.seconds, work, deadline, clock)
                metrics = per_layer_metrics(passes, gen_s, psi_alpha)
                write_trace(WORK / f"trace-{args.workload}-{args.seed}.json", args, passes, metrics)
                records = [r for p in passes for r in p.get("records", [])]
                crashed = [p for p in passes if "failed" in p]
            else:
                def set_up_again():
                    again = work / "inputs-again"
                    seconds = set_up(args.workload, args.seed, again, work, deadline, clock)[2]
                    shutil.rmtree(again)
                    return seconds

                rounds, more = end_to_end(jobs, args.seconds, work, deadline, clock, set_up_again)
                metrics = end_to_end_metrics(rounds, statistics.median(setups + more))
                records = [r for rnd in rounds for r in rnd]
                crashed = []
            speed = REF_PROBE_S / statistics.median(c for _, c in clock.samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in records if r["reason"] is not None]
    for r in failed:
        print(f"failed {r['kind']}: {r['reason']}", file=sys.stderr)
    for p in crashed:
        print(f"{p['mode']} pass failed: {p['failed']}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(f"median machine speed: {speed:.3f} of the reference ({len(clock.samples)} probes)",
          file=sys.stderr)
    result = {
        "correct": not crashed and not any(r["wrong"] for r in records),
        "attempted": len(records) + len(crashed),
        "failed": len(failed) + len(crashed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
