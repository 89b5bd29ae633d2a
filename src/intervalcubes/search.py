"""Randomized tightness search.

Samples interval graphs at oracle scale, compares exact cubicity against
the constructive bounds, and records any instance whose exact cubicity
exceeds ceil(log2 claw) as a counterexample candidate (an open question,
so a find is reported prominently rather than treated as a failure).
Instances breaking the proven bound min(ceil(log2 claw)+2,
ceil(log2 alpha)) are implementation bugs and are flagged separately.
The report is a `graphs.Report`, built once the last sample is in, and
so are its histogram rows and flagged samples: each one's JSON is its
fields plus the properties it names.
"""

from __future__ import annotations

from .generate import GenConfig, random_interval_model
from .graphs import DISTRIBUTIONS, Record, Report, SizeRefusalError, parse_graph, serialize_graph
from .intervals import model_to_clique_ordering, model_to_graph
from .oracle import Exceeded, exact_cubicity
from .params import ParamReport, best_dimension, ceil_log2, parameters


class HistogramRow(Report):
    __slots__ = ("psi", "alpha", "cubicity", "dimension", "count")  # the CSV's columns


class Counterexample(Report):
    """A sample, as edge-list text, whose exact cubicity exceeds ceil(log2 psi)."""

    __slots__ = ("graph", "psi", "alpha", "cubicity")
    _derived = ("lower_bound",)
    lower_bound = ParamReport.lower_bound


class BoundViolation(Report):
    """A sample, as edge-list text, that no family of `bound` members covers."""

    __slots__ = ("graph", "psi", "alpha", "bound")


class SearchReport(Report):
    """Tuples of `Counterexample`s, `BoundViolation`s and `HistogramRow`s
    in key order, and the count of samples past the oracle's bound."""

    __slots__ = ("counterexamples", "bound_violations", "histogram", "oracle_refused")
    _derived = ("graphs_tried", "degenerate_skipped")

    @property
    def graphs_tried(self) -> int:
        """Samples the oracle ran on: each lands in the histogram or, when
        the proven bound failed, in `bound_violations`."""
        return sum(row.count for row in self.histogram) + len(self.bound_violations)

    @property
    def degenerate_skipped(self) -> int:
        """Samples below claw number 2, tallied but never flagged."""
        return sum(row.count for row in self.histogram if row.psi < 2)


def histogram_csv(report: SearchReport) -> str:
    rows = [HistogramRow.__slots__, *map(Record._values, report.histogram)]
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def tightness_search(count: int, n_max: int = 6, seed: int = 0) -> SearchReport:
    """Run `count` sampled instances with at most n_max vertices each.

    The counterexample test applies in the claw >= 2 regime; disjoint
    unions of cliques sit outside it (their cubicity is trivially 0 or 1)
    and are tallied but never flagged.  Samples beyond the oracle's vertex
    bound are counted in `oracle_refused`, not in `graphs_tried`.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    counterexamples, violations, refused = [], [], 0
    histogram: dict[tuple, int] = {}  # (psi, alpha, cubicity, dimension) -> samples
    for i in range(count):
        n = 2 + (seed * 7 + i * 13) % (n_max - 1)
        cfg = GenConfig(n, seed * 1_000_000 + i, DISTRIBUTIONS[i % len(DISTRIBUTIONS)])
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
            refused += 1
            continue
        if isinstance(result, Exceeded):
            # the proven upper bound failed to cover: an implementation bug
            violations.append(BoundViolation(serialize_graph(graph), psi, alpha, bound))
            continue
        cub = result.cubicity
        key = (psi, alpha, cub, dimension)
        histogram[key] = histogram.get(key, 0) + 1
        if psi >= 2 and cub > ceil_log2(psi):
            found = Counterexample(serialize_graph(graph), psi, alpha, cub)
            # keep only those that survive a from-scratch recheck
            if _recheck_counterexample(found):
                counterexamples.append(found)
    rows = (HistogramRow(*key, count) for key, count in sorted(histogram.items()))
    return SearchReport(tuple(counterexamples), tuple(violations), tuple(rows), refused)


def _recheck_counterexample(found: Counterexample) -> bool:
    result = exact_cubicity(parse_graph(found.graph), b_max=found.cubicity)
    return (
        not isinstance(result, Exceeded)
        and result.cubicity == found.cubicity
        and result.cubicity > found.lower_bound
    )
