"""Command-line interface.

Graph inputs are edge-list text files; any input that looks like JSON is
treated as an interval model, so `gen` output pipes straight into the
other subcommands.  An edge list gets its clique ordering from
recognition, and its `Graph` is dropped once recognition returns.  A
model gets its ordering from its endpoint sweep, without recognition.
`construct` checks its representation against ranges: a model's endpoint
ranks, or an edge list's clique ranges, which recognition certified
against the graph's edges.  Only `verify`, which takes any graph, and
`exact` read a `Graph` past loading; a model's graph is built only for
`exact`, within the oracle's bound.  Every `--out` and `--csv`
destination is checked before any input is read.

Each command imports the modules it runs when it runs: only edge-list
input loads recognition, and only model input `intervals`.  What every
command needs (the edge-list parser, the clique ordering, the JSON
writer, the limits, and the errors `main` maps to exit codes) is in
`graphs`.
One table, `_COMMANDS`, defines every command and option.  A canonical
command line (exact long options given once as `--opt value`, values
and positionals not starting with "-", ints in ASCII digits) is read
from it directly; argparse, built from the same table, is imported only
for help, for errors and for any other spelling.

Exit codes: 0 success, 1 not an interval graph, 2 verification failure,
3 size refusal, 64 usage error, 65 malformed input.
"""

from __future__ import annotations

import gc
import os
import sys
from contextlib import nullcontext
from types import SimpleNamespace

from .graphs import (
    DISTRIBUTIONS, MAX_ORACLE_VERTICES, MAX_VERTICES, CliqueOrdering, Graph, NotIntervalError,
    SizeRefusalError, parse_graph, write_json,
)

EXIT_OK = 0
EXIT_NOT_INTERVAL = 1
EXIT_VERIFY_FAILED = 2
EXIT_SIZE_REFUSAL = 3
EXIT_USAGE = 64
EXIT_BAD_INPUT = 65


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _read_input(path: str, refuse=None) -> Graph | IntervalModel:
    """The input's `Graph`, or its `IntervalModel` for JSON text; `refuse`,
    if given, sees the vertex count before any edge or record is read."""
    text = _read_text(path)
    if text.lstrip().startswith(("{", "[")):
        from .intervals import IntervalModel

        return IntervalModel.loads(text, refuse)
    return parse_graph(text, refuse)


def _load(path: str) -> tuple[IntervalModel | CliqueOrdering, CliqueOrdering]:
    """The ranges a representation of the input is checked against, and a
    clique ordering: for a model, the model and its sweep's ordering; for
    an edge list, recognition's ordering twice, so the `Graph` is dropped
    here.  Recognition raises NotIntervalError for a graph that is not an
    interval graph."""
    source = _read_input(path)
    if not isinstance(source, Graph):
        from .intervals import model_to_clique_ordering

        return source, model_to_clique_ordering(source)
    from .recognition import recognize_and_order

    return (recognize_and_order(source),) * 2


def _emit(obj, out: str | None, dump=write_json) -> int:
    """Write `obj` by `dump` to `out`, or to stdout; then EXIT_OK."""
    with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as handle:
        dump(obj, handle)
    return EXIT_OK


def _cmd_recognize(args) -> int:
    try:
        _, ordering = _load(args.graph)
    except NotIntervalError as exc:
        _emit({"interval": False, "reason": exc.reason}, args.out)
        return EXIT_NOT_INTERVAL
    return _emit({"interval": True, "cliques": ordering.k}, args.out)


def _cmd_order(args) -> int:
    _, ordering = _load(args.graph)
    return _emit(ordering.to_json_obj(), args.out)


def _cmd_label(args) -> int:
    from .labelling import label_vertices

    _, ordering = _load(args.graph)
    return _emit(label_vertices(ordering).to_json_obj(), args.out)


def _cmd_params(args) -> int:
    from .params import param_report

    _, ordering = _load(args.graph)
    return _emit(param_report(ordering).to_json_obj(), args.out)


def _cmd_construct(args) -> int:
    from .construct import (
        build_alpha_representation, build_best, build_representation, normalize_unit,
    )
    from .verify import verify_representation

    ranges, ordering = _load(args.graph)
    trace = None
    if args.variant == "claw":
        rep, trace = build_representation(ordering)
    elif args.variant == "alpha":
        rep = build_alpha_representation(ordering)
    else:
        rep = build_best(ordering)
    if args.normalize:
        rep = normalize_unit(rep)
    report = verify_representation(ranges, rep)
    if not report.ok:
        print("constructed representation failed verification", file=sys.stderr)
        write_json(report.to_json_obj(), sys.stderr)
        return EXIT_VERIFY_FAILED
    extra = {"trace": trace.to_json_obj() if trace else None} if args.trace else None
    return _emit(extra, args.out, lambda extra, handle: rep.dump(handle, extra))


def _cmd_verify(args) -> int:
    from .verify import CubeRepresentation, verify_representation

    source = _read_input(args.graph)
    rep = CubeRepresentation.loads(_read_text(args.representation))
    report = verify_representation(source, rep)
    _emit(report.to_json_obj(), args.out)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _cmd_exact(args) -> int:
    from .oracle import exact_cubicity, refuse_if_large

    graph = _read_input(args.graph, refuse_if_large)
    if not isinstance(graph, Graph):
        from .intervals import model_to_graph

        graph = model_to_graph(graph)
    result = exact_cubicity(graph, b_max=args.max_b)
    return _emit(result.to_json_obj(), args.out)


def _cmd_gen(args) -> int:
    from .generate import GenConfig, random_interval_model

    cfg = GenConfig(n=args.n, seed=args.seed, dist=args.dist)
    return _emit(random_interval_model(cfg).to_json_obj(), args.out)


def _cmd_search(args) -> int:
    from .search import histogram_csv, tightness_search

    report = tightness_search(count=args.count, n_max=args.n_max, seed=args.seed)
    if report.counterexamples:
        print(f"FOUND {len(report.counterexamples)} candidate counterexample(s) with cubicity "
              "above ceil(log2 claw); see report", file=sys.stderr)
    if report.bound_violations:
        print(f"BUG: {len(report.bound_violations)} instance(s) broke the proven upper bound",
              file=sys.stderr)
    if args.csv:
        _emit(report, args.csv, lambda report, handle: handle.write(histogram_csv(report)))
    return _emit(report.to_json_obj(), args.out)


# each command's handler, help, positionals, and options as (flag,
# add_argument keywords); every command also takes `--out`, added first
_OUT = ("--out", {"help": "write output to a file instead of stdout"})
_COMMANDS = {
    "recognize": (_cmd_recognize, "test whether a graph is an interval graph", ("graph",), ()),
    "order": (_cmd_order, "emit a consecutive clique ordering as vertex ranges", ("graph",), ()),
    "label": (_cmd_label, "emit vertex levels and anchors", ("graph",), ()),
    "params": (_cmd_params, "claw number, independence number, lower bound", ("graph",), ()),
    "construct": (_cmd_construct, "build a cube representation", ("graph",), (
        ("--variant", {"choices": ("claw", "alpha", "best"), "default": "claw"}),
        ("--normalize", {"action": "store_true", "default": False,
                         "help": "rescale to unit side"}),
        ("--trace", {"action": "store_true", "default": False,
                     "help": "include the construction trace"}),
    )),
    "verify": (_cmd_verify, "check a representation against a graph",
               ("graph", "representation"), ()),
    "exact": (_cmd_exact, "exact cubicity by brute force (small graphs)", ("graph",),
              (("--max-b", {"type": int, "default": 4}),)),
    "gen": (_cmd_gen, "generate a seeded random interval model", (), (
        ("--n", {"type": int, "required": True}),
        ("--seed", {"type": int, "default": 0}),
        ("--dist", {"choices": DISTRIBUTIONS, "default": "uniform"}),
    )),
    "search": (_cmd_search, "tightness search over random instances", (), (
        ("--count", {"type": int, "required": True}),
        ("--n-max", {"type": int, "default": 6, "choices": range(2, MAX_ORACLE_VERTICES + 1)}),
        ("--seed", {"type": int, "default": 0}),
        ("--csv", {"help": "also write the histogram as CSV"}),
    )),
}


def build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="intervalcubes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, error=p.error)
        p.add_argument(_OUT[0], **_OUT[1])
        for dest in positionals:
            p.add_argument(dest)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return parser


def _quick_args(argv) -> SimpleNamespace | None:
    """The fields argparse gives a canonical `argv` (see the module
    docstring; a flag stands alone, choices match their exact text, and
    an int has at most 18 digits), all but `error`; None for any other."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, positionals, options = _COMMANDS[argv[0]]
    table = dict((_OUT, *options))
    given, fields, words = [], {}, iter(argv[1:])
    for word in words:
        keywords = table.get(word)
        if not word.startswith("-"):
            given.append(word)
        elif keywords is None or word in fields:
            return None
        elif keywords.get("action"):
            fields[word] = True
        else:
            value = next(words, "-")
            if "type" in keywords and value.isascii() and value.isdigit() and len(value) <= 18:
                value = int(value)
            elif value.startswith("-") or "type" in keywords:
                return None
            if value not in keywords.get("choices", (value,)):
                return None
            fields[word] = value
    missing = any(kw.get("required") and flag not in fields for flag, kw in table.items())
    if missing or len(given) != len(positionals):
        return None
    dests = {flag[2:].replace("-", "_"): fields.get(flag, kw.get("default"))
             for flag, kw in table.items()}
    return SimpleNamespace(command=argv[0], func=func, **dict(zip(positionals, given)), **dests)


def _misuse(args) -> str | None:
    """The message for a value the parser's types and choices let through."""
    if args.command == "search" and args.count < 0:
        return "--count must not be negative"
    if args.command == "gen" and not 1 <= args.n <= MAX_VERTICES:
        return f"--n must be between 1 and {MAX_VERTICES}"
    if args.command == "exact" and args.max_b < 1:
        return "--max-b must be at least 1"
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _quick_args(argv)
    # argparse parses anything else, and reports every error with its usage
    # line; its exit, for help or an error, becomes the return value
    if args is None or _misuse(args):
        try:
            args = build_parser().parse_args(argv)
            if _misuse(args):
                args.error(_misuse(args))
        except SystemExit as exc:
            return exc.code
    try:
        # each destination is checked before any input is read, neither created
        # nor opened: a failing command leaves no file, and a pipe is opened once
        for path in filter(None, (args.out, getattr(args, "csv", None))):
            where = path if os.path.exists(path) else os.path.dirname(path) or "."
            if os.path.isdir(path) or not os.access(where, os.W_OK):
                raise OSError(f"cannot write {path!r}")
        return args.func(args)
    except (NotIntervalError, SizeRefusalError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SIZE_REFUSAL if isinstance(exc, SizeRefusalError) else EXIT_NOT_INTERVAL
    except (ValueError, OSError, KeyError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def run():
    # the process's collector policy (README, "The collector"): off, since no
    # command leaves cyclic garbage; `main` and the library never touch it.
    # Frozen once `main` returns, so that finalization's full collections
    # walk nothing: every output file is closed by then, and atexit
    # handlers, the flushing of stdout and stderr and module teardown still run
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
