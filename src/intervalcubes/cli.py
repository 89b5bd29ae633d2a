"""Command-line interface.

Graph inputs are edge-list text files; any input that looks like JSON is
treated as an interval model, so `gen` output pipes straight into the
other subcommands.  An edge list gets its clique ordering from
recognition.  A model gets it from its endpoint sweep, without
recognition.  `construct` and `verify` check a model's representation
against the model itself, and `params` reads only the ordering, so a
model's graph is built only for `exact`, within the oracle's bound.

Each command imports the modules it runs when it runs, and only edge-list
input loads recognition; what every command needs (the parsers, limits,
and the errors `main` maps to exit codes) is in `graphs` and `intervals`.

Exit codes: 0 success, 1 not an interval graph, 2 verification failure,
3 size refusal, 64 usage error, 65 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .graphs import (
    MAX_ORACLE_VERTICES, MAX_VERTICES, Graph, GraphParseError, NotIntervalError, SizeRefusalError,
    parse_graph,
)
from .intervals import DISTRIBUTIONS, CliqueOrdering, IntervalModel, model_to_clique_ordering

EXIT_OK = 0
EXIT_NOT_INTERVAL = 1
EXIT_VERIFY_FAILED = 2
EXIT_SIZE_REFUSAL = 3
EXIT_USAGE = 64
EXIT_BAD_INPUT = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _read_input(path: str) -> Graph | IntervalModel:
    text = _read_text(path)
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        return IntervalModel.loads(text)
    return parse_graph(text)


def _load(path: str) -> tuple[Graph | IntervalModel, CliqueOrdering]:
    """The parsed input and a clique ordering: a model's from its sweep, an
    edge list's from recognition, which raises NotIntervalError for a
    graph that is not an interval graph."""
    source = _read_input(path)
    if isinstance(source, IntervalModel):
        return source, model_to_clique_ordering(source)
    from .recognition import recognize_and_order

    return source, recognize_and_order(source)


def _emit(obj, out: str | None):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_recognize(args) -> int:
    try:
        _, ordering = _load(args.graph)
    except NotIntervalError as exc:
        _emit({"interval": False, "reason": exc.reason}, args.out)
        return EXIT_NOT_INTERVAL
    _emit({"interval": True, "cliques": ordering.k}, args.out)
    return EXIT_OK


def _cmd_order(args) -> int:
    _, ordering = _load(args.graph)
    _emit(ordering.to_json_obj(), args.out)
    return EXIT_OK


def _cmd_label(args) -> int:
    from .labelling import label_vertices

    _, ordering = _load(args.graph)
    _emit(label_vertices(ordering).to_json_obj(), args.out)
    return EXIT_OK


def _cmd_params(args) -> int:
    from .params import param_report

    _, ordering = _load(args.graph)
    _emit(param_report(ordering).to_json_obj(), args.out)
    return EXIT_OK


def _cmd_construct(args) -> int:
    from .construct import (
        build_alpha_representation, build_best, build_representation, normalize_unit,
    )
    from .verify import verify_representation

    source, ordering = _load(args.graph)
    trace = None
    if args.variant == "claw":
        rep, trace = build_representation(ordering)
    elif args.variant == "alpha":
        rep = build_alpha_representation(ordering)
    else:
        rep = build_best(ordering)
    if args.normalize:
        rep = normalize_unit(rep)
    report = verify_representation(source, rep)
    if not report.ok:
        print("constructed representation failed verification", file=sys.stderr)
        print(json.dumps(report.to_json_obj(), indent=2, sort_keys=True), file=sys.stderr)
        return EXIT_VERIFY_FAILED
    payload = rep.to_json_obj()
    if args.trace:
        payload["trace"] = trace.to_json_obj() if trace else None
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import CubeRepresentation, verify_representation

    source = _read_input(args.graph)
    rep = CubeRepresentation.loads(_read_text(args.representation))
    report = verify_representation(source, rep)
    _emit(report.to_json_obj(), args.out)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _cmd_exact(args) -> int:
    from .intervals import model_to_graph
    from .oracle import exact_cubicity, refuse_if_large

    source = _read_input(args.graph)
    refuse_if_large(source)
    graph = model_to_graph(source) if isinstance(source, IntervalModel) else source
    result = exact_cubicity(graph, b_max=args.max_b)
    _emit(result.to_json_obj(), args.out)
    return EXIT_OK


def _cmd_gen(args) -> int:
    from .generate import GenConfig, random_interval_model

    cfg = GenConfig(n=args.n, seed=args.seed, dist=args.dist)
    _emit(random_interval_model(cfg).to_json_obj(), args.out)
    return EXIT_OK


def _cmd_search(args) -> int:
    from .search import histogram_csv, tightness_search

    report = tightness_search(count=args.count, n_max=args.n_max, seed=args.seed)
    if report.counterexamples:
        print(
            f"FOUND {len(report.counterexamples)} candidate counterexample(s) "
            "with cubicity above ceil(log2 claw); see report",
            file=sys.stderr,
        )
    if report.bound_violations:
        print(
            f"BUG: {len(report.bound_violations)} instance(s) broke the proven "
            "upper bound",
            file=sys.stderr,
        )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(histogram_csv(report))
    _emit(report.to_json_obj(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="intervalcubes")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, error=p.error)
        p.add_argument("--out", help="write output to a file instead of stdout")
        return p

    p = add("recognize", _cmd_recognize, "test whether a graph is an interval graph")
    p.add_argument("graph")
    p = add("order", _cmd_order, "emit a consecutive clique ordering")
    p.add_argument("graph")
    p = add("label", _cmd_label, "emit vertex levels and anchors")
    p.add_argument("graph")
    p = add("params", _cmd_params, "claw number, independence number, lower bound")
    p.add_argument("graph")

    p = add("construct", _cmd_construct, "build a cube representation")
    p.add_argument("graph")
    p.add_argument("--variant", choices=("claw", "alpha", "best"), default="claw")
    p.add_argument("--normalize", action="store_true", help="rescale to unit side")
    p.add_argument("--trace", action="store_true", help="include the construction trace")

    p = add("verify", _cmd_verify, "check a representation against a graph")
    p.add_argument("graph")
    p.add_argument("representation")

    p = add("exact", _cmd_exact, "exact cubicity by brute force (small graphs)")
    p.add_argument("graph")
    p.add_argument("--max-b", type=int, default=4, dest="max_b")

    p = add("gen", _cmd_gen, "generate a seeded random interval model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dist", choices=DISTRIBUTIONS, default="uniform")

    p = add("search", _cmd_search, "tightness search over random instances")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--n-max", type=int, default=6, dest="n_max",
                   choices=range(2, MAX_ORACLE_VERTICES + 1))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="also write the histogram as CSV")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "search" and args.count < 0:
        args.error("--count must not be negative")
    if args.command == "gen" and not 1 <= args.n <= MAX_VERTICES:
        args.error(f"--n must be between 1 and {MAX_VERTICES}")
    if args.command == "exact" and args.max_b < 1:
        args.error("--max-b must be at least 1")
    try:
        return args.func(args)
    except SystemExit:
        raise
    except NotIntervalError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NOT_INTERVAL
    except SizeRefusalError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SIZE_REFUSAL
    except (GraphParseError, ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
