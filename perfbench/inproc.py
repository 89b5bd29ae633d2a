"""One in-process pass over a benchmark round, for the traced run.

    python3 perfbench/inproc.py JOBS.json MODE OUT.json

Runs the same operations as the end-to-end run, each as a call of the
CLI's `main` inside this process, and writes what it saw to OUT.json.
MODE is one of

  plain  no instrumentation: the baseline for the tracing overhead;
  trace  a span around every public call named in SPANS, plus counters;
  alloc  tracemalloc peaks around the four stages in ALLOC only, over
         the construct operations alone.

Spans are kept in memory and written out when the pass ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from math import lcm
from pathlib import Path

import ops
from intervalcubes import cli, construct, intervals


def _get(obj, attr):
    # a counter whose field is gone reads 0 rather than stopping the run
    return getattr(obj, attr, 0)


def _grid_bits(tracer, rep, args):
    denominator = 1
    for d in {x.denominator for row in rep.coords for x in row}:
        denominator = lcm(denominator, d)
    tracer.maximum("construct.grid_bits", denominator.bit_length())


def _verify_counts(tracer, report, args):
    n = args[0].n
    tracer.count("verify.pairs", n * (n - 1) // 2)
    tracer.count("verify.edges", _get(args[0], "edge_count"))


def _oracle_counts(tracer, result, args):
    tracer.count("oracle.candidates_enumerated", _get(result, "candidates_enumerated"))
    tracer.count("oracle.cover_nodes", _get(result, "cover_nodes"))


# span name (module.qualname under intervalcubes) -> counter hook on return
SPANS = {
    "generate.random_interval_model": None,
    "graphs.parse_graph": None,
    "intervals.IntervalModel.loads": None,
    "intervals.model_to_graph": lambda t, r, a: t.count("intervals.edges", _get(r, "edge_count")),
    "intervals.model_to_clique_ordering": lambda t, r, a: t.count("intervals.cliques", _get(r, "k")),
    "recognition.recognize_and_order": None,
    "recognition.perfect_elimination_ordering": None,
    "recognition.maximal_cliques_chordal": None,
    "pqtree.consecutive_arrangement": None,
    "labelling.label_vertices": None,
    "params.claw_number": lambda t, r, a: t.count("params.claw_number.calls", 1),
    "construct.pad_graph": lambda t, r, a: t.count("construct.pendants_added", _get(r, "added")),
    "construct.build_representation": None,
    "construct.build_alpha_representation": None,
    "construct.build_best": lambda t, r, a: (
        t.count("construct.dimension", _get(r, "dimension")), _grid_bits(t, r, a)
    ),
    "construct.normalize_unit": None,
    "construct.CubeRepresentation.dumps": None,
    "construct.CubeRepresentation.loads": None,
    "verify.verify_representation": _verify_counts,
    "oracle.exact_cubicity": _oracle_counts,
    "search.tightness_search": lambda t, r, a: t.count("search.graphs_tried", _get(r, "graphs_tried")),
}
# span name -> counter bumped when the call raises
RAISES = {
    "oracle.exact_cubicity": "oracle.refused",
    "search.tightness_search": "search.aborted",
}
ALLOC = (
    "intervals.model_to_graph",
    "recognition.recognize_and_order",
    "construct.build_best",
    "verify.verify_representation",
)
# inside the verify_bad operation the verifier's span takes this name
RENAME = {"verify_bad": {"verify.verify_representation": "verify.verify_representation_bad"}}
# every counter the hooks above can bump
COUNTS = (
    "intervals.edges",
    "intervals.cliques",
    "params.claw_number.calls",
    "construct.pendants_added",
    "construct.dimension",
    "construct.grid_bits",
    "verify.pairs",
    "verify.edges",
    "oracle.candidates_enumerated",
    "oracle.cover_nodes",
    "oracle.refused",
    "search.graphs_tried",
    "search.aborted",
)


class Tracer:
    """Spans kept in memory, the outermost time per span name, and counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.open: dict[str, int] = defaultdict(int)
        self.totals: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.rename: dict[str, str] = {}
        self.ops: list[list] = []  # [index of the op.* span, CLI argv]

    def count(self, key: str, amount: int):
        self.counts[key] += amount

    def maximum(self, key: str, value: int):
        self.counts[key] = max(self.counts[key], value)

    def enter(self, name: str) -> int:
        name = self.rename.get(name, name)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        self.open[name] += 1
        return len(self.spans) - 1

    def leave(self, index: int):
        span = self.spans[index]
        span[2] = time.perf_counter()
        self.stack.pop()
        self.open[span[0]] -= 1
        # a call nested in a call of the same name is already inside its time
        if not self.open[span[0]]:
            self.totals[span[0]] += span[2] - span[1]

    def self_times(self) -> dict[str, float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, float] = defaultdict(float)
        for (name, *_), seconds in zip(self.spans, own):
            out[name] += seconds
        return dict(out)


def _traced(func, name, tracer):
    hook, raised = SPANS.get(name), RAISES.get(name)

    def wrapper(*args, **kwargs):
        index = tracer.enter(name)
        try:
            result = func(*args, **kwargs)
        except Exception:
            if raised:
                tracer.count(raised, 1)
            raise
        finally:
            tracer.leave(index)
        if hook:
            hook(tracer, result, args)
        return result

    return wrapper


def _alloc_peaks(func, name, peaks):
    def wrapper(*args, **kwargs):
        if tracemalloc.is_tracing():
            return func(*args, **kwargs)
        tracemalloc.start()
        try:
            return func(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            peaks[name] = max(peaks.get(name, 0.0), peak)

    return wrapper


def install(name: str, make):
    """Replace `intervalcubes.<name>` everywhere the package refers to it
    by `make(original)`; a function that no longer exists is skipped."""
    module_name, *path = name.split(".")
    try:
        owner = importlib.import_module(f"intervalcubes.{module_name}")
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        raw = vars(owner)[path[-1]] if isinstance(owner, type) else getattr(owner, path[-1])
    except (ImportError, AttributeError, KeyError):
        return
    if isinstance(owner, type):
        if isinstance(raw, classmethod):
            setattr(owner, path[-1], classmethod(make(raw.__func__)))
        else:
            setattr(owner, path[-1], make(raw))
        return
    replacement = make(raw)
    for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "intervalcubes"]:
        for attr, value in list(vars(module).items()):
            if value is raw:
                setattr(module, attr, replacement)


def probe(tracer, argv, called, loads):
    """Call the public functions a construct operation would use but the
    CLI did not call, outside the operation's time: the model's clique
    ordering (for a model input) and the representation's `dumps`."""
    index = tracer.enter("op.probe")
    try:
        text = Path(argv[1]).read_text(encoding="utf-8")
        if "intervals.model_to_clique_ordering" not in called and text.lstrip().startswith(
            ("{", "[")
        ):
            intervals.model_to_clique_ordering(loads["model"](text))
        if "construct.CubeRepresentation.dumps" not in called:
            out = Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
            construct.CubeRepresentation.dumps(loads["rep"](out))
    finally:
        tracer.leave(index)


def main(job_file: str, mode: str, out_file: str) -> int:
    jobs = json.loads(Path(job_file).read_text(encoding="utf-8"))
    work = Path(out_file).parent
    tracer = Tracer()
    peaks: dict[str, float] = {}
    # unwrapped parsers, so that probes add no parse spans
    loads = {"model": intervals.IntervalModel.loads, "rep": construct.CubeRepresentation.loads}
    if mode == "trace":
        for name in SPANS:
            install(name, lambda f, name=name: _traced(f, name, tracer))
    elif mode == "alloc":
        for name in ALLOC:
            install(name, lambda f, name=name: _alloc_peaks(f, name, peaks))
    elif mode != "plain":
        raise SystemExit(f"unknown mode {mode!r}")

    ops_seconds = 0.0

    def execute(kind, argv):
        nonlocal ops_seconds
        tracer.rename = RENAME.get(kind, {}) if mode == "trace" else {}
        first = len(tracer.spans)
        index = tracer.enter(f"op.{kind}") if mode == "trace" else None
        if index is not None:
            tracer.ops.append([index, argv])
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        seconds = time.perf_counter() - start
        if index is not None:
            tracer.leave(index)
            if kind == "construct" and code == 0:
                probe(tracer, argv, {span[0] for span in tracer.spans[first:]}, loads)
        ops_seconds += seconds
        return code, seconds, None, None

    if mode == "alloc":
        # every stage in ALLOC runs inside `construct`; the other passes
        # have already checked these outputs
        for job in jobs:
            if job["kind"] == "construct":
                execute("construct", ["construct", job["graph"], "--variant", "best",
                                      "--normalize", "--out", str(work / "alloc.rep.json")])
        records = []
    else:
        records = ops.run_round(jobs, execute, work)
    out = {
        "mode": mode,
        "ops_seconds": ops_seconds,
        "records": records,
        "totals": dict(tracer.totals),
        "counts": dict(tracer.counts),
        "alloc_peak_mib": peaks,
    }
    if mode == "trace":
        out["self_seconds"] = tracer.self_times()
        out["spans"] = tracer.spans
        out["ops"] = tracer.ops
    Path(out_file).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 4:
        raise SystemExit(__doc__)
    sys.exit(main(*sys.argv[1:]))
