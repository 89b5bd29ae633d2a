"""Randomized tightness search.

Samples interval graphs at oracle scale, compares exact cubicity against
the constructive bounds, and records any instance whose exact cubicity
exceeds ceil(log2 claw) as a counterexample candidate (an open question,
so a find is reported prominently rather than treated as a failure).
Instances breaking the proven bound min(ceil(log2 claw)+2,
ceil(log2 alpha)) are implementation bugs and are flagged separately.
"""

from __future__ import annotations

from .generate import GenConfig, random_interval_model
from .graphs import DISTRIBUTIONS, SizeRefusalError, parse_graph, serialize_graph
from .intervals import model_to_clique_ordering, model_to_graph
from .oracle import Exceeded, exact_cubicity
from .params import best_dimension, ceil_log2, parameters

_COLUMNS = ("psi", "alpha", "cubicity", "dimension", "count")


class SearchReport:
    """What a search has found so far; it fills this in as it runs."""

    def __init__(self):
        self.counterexamples: list[dict] = []
        self.bound_violations: list[dict] = []
        # (psi, alpha, cubicity, dimension) -> samples
        self.histogram: dict[tuple[int, int, int, int], int] = {}
        self.oracle_refused = 0

    @property
    def graphs_tried(self) -> int:
        """Samples the oracle ran on: each lands in the histogram or, when
        the proven bound failed, in `bound_violations`."""
        return sum(self.histogram.values()) + len(self.bound_violations)

    @property
    def degenerate_skipped(self) -> int:
        """Samples below claw number 2, tallied but never flagged."""
        return sum(count for (psi, *_), count in self.histogram.items() if psi < 2)

    def to_json_obj(self) -> dict:
        return {
            "graphs_tried": self.graphs_tried,
            "oracle_refused": self.oracle_refused,
            "counterexamples": self.counterexamples,
            "bound_violations": self.bound_violations,
            "degenerate_skipped": self.degenerate_skipped,
            "histogram": [dict(zip(_COLUMNS, row)) for row in _rows(self)],
        }


def histogram_csv(report: SearchReport) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in [_COLUMNS, *_rows(report)])


def _rows(report: SearchReport) -> list[tuple[int, ...]]:
    """The histogram's rows: the key (psi, alpha, cubicity, dimension),
    then the count, in key order."""
    return [(*key, count) for key, count in sorted(report.histogram.items())]


def tightness_search(count: int, n_max: int = 6, seed: int = 0) -> SearchReport:
    """Run `count` sampled instances with at most n_max vertices each.

    The counterexample test applies in the claw >= 2 regime; disjoint
    unions of cliques sit outside it (their cubicity is trivially 0 or 1)
    and are tallied but never flagged.  Samples beyond the oracle's vertex
    bound are counted in `oracle_refused`, not in `graphs_tried`.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    report = SearchReport()
    for i in range(count):
        cfg = GenConfig(
            n=2 + (seed * 7 + i * 13) % (n_max - 1),
            seed=seed * 1_000_000 + i,
            dist=DISTRIBUTIONS[i % len(DISTRIBUTIONS)],
        )
        model = random_interval_model(cfg)
        graph = model_to_graph(model)
        ordering = model_to_clique_ordering(model)
        psi, labelling = parameters(ordering)
        alpha = labelling.alpha
        dimension = best_dimension(psi, alpha)
        # the proven upper bound; family sizes are searched from 1
        bound = max(1, dimension)
        try:
            result = exact_cubicity(graph, b_max=bound)
        except SizeRefusalError:
            report.oracle_refused += 1
            continue
        if isinstance(result, Exceeded):
            # the proven upper bound failed to cover: an implementation bug
            report.bound_violations.append(_found(graph, psi, alpha, bound=bound))
            continue
        cub = result.cubicity
        key = (psi, alpha, cub, dimension)
        report.histogram[key] = report.histogram.get(key, 0) + 1
        if psi >= 2 and cub > ceil_log2(psi):
            entry = _found(graph, psi, alpha, cubicity=cub, lower_bound=ceil_log2(psi))
            # keep only entries that survive a from-scratch recheck
            if _recheck_counterexample(entry):
                report.counterexamples.append(entry)
    return report


def _found(graph, psi: int, alpha: int, **facts) -> dict:
    """A flagged sample: its serialized graph, psi, alpha and `facts`."""
    return {"graph": serialize_graph(graph), "psi": psi, "alpha": alpha, **facts}


def _recheck_counterexample(entry: dict) -> bool:
    graph = parse_graph(entry["graph"])
    result = exact_cubicity(graph, b_max=entry["cubicity"])
    return (
        not isinstance(result, Exceeded)
        and result.cubicity == entry["cubicity"]
        and result.cubicity > entry["lower_bound"]
    )
