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
from .graphs import SizeRefusalError, parse_graph, serialize_graph
from .intervals import DISTRIBUTIONS, model_to_clique_ordering, model_to_graph
from .oracle import Exceeded, exact_cubicity
from .params import best_dimension, ceil_log2, parameters


class SearchReport:
    """What a search has found so far; it fills this in as it runs."""

    def __init__(self):
        self.graphs_tried = 0
        self.counterexamples: list[dict] = []
        self.bound_violations: list[dict] = []
        self.histogram: dict[tuple[int, int, int, int], int] = {}
        self.degenerate_skipped = 0
        self.oracle_refused = 0

    def to_json_obj(self) -> dict:
        return {
            "graphs_tried": self.graphs_tried,
            "oracle_refused": self.oracle_refused,
            "counterexamples": self.counterexamples,
            "bound_violations": self.bound_violations,
            "degenerate_skipped": self.degenerate_skipped,
            "histogram": [
                {
                    "psi": psi,
                    "alpha": alpha,
                    "cubicity": cub,
                    "dimension": dim,
                    "count": count,
                }
                for (psi, alpha, cub, dim), count in sorted(self.histogram.items())
            ],
        }


def histogram_csv(report: SearchReport) -> str:
    lines = ["psi,alpha,cubicity,dimension,count"]
    for (psi, alpha, cub, dim), count in sorted(report.histogram.items()):
        lines.append(f"{psi},{alpha},{cub},{dim},{count}")
    return "\n".join(lines) + "\n"


def tightness_search(count: int, n_max: int = 6, seed: int = 0) -> SearchReport:
    """Run `count` sampled instances with at most n_max vertices each.

    The counterexample test applies in the claw >= 2 regime; disjoint
    unions of cliques sit outside it (their cubicity is trivially 0 or 1)
    and are tallied but never flagged.  Samples beyond the oracle's size
    bounds are counted in `oracle_refused`, not in `graphs_tried`.
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
        report.graphs_tried += 1

        if isinstance(result, Exceeded):
            # the proven upper bound failed to cover: an implementation bug
            report.bound_violations.append(
                {
                    "graph": serialize_graph(graph),
                    "psi": psi,
                    "alpha": alpha,
                    "bound": bound,
                }
            )
            continue
        cub = result.cubicity
        key = (psi, alpha, cub, dimension)
        report.histogram[key] = report.histogram.get(key, 0) + 1
        if psi < 2:
            report.degenerate_skipped += 1
            continue
        if cub > ceil_log2(psi):
            entry = {
                "graph": serialize_graph(graph),
                "psi": psi,
                "alpha": alpha,
                "cubicity": cub,
                "lower_bound": ceil_log2(psi),
            }
            # keep only entries that survive a from-scratch recheck
            if _recheck_counterexample(entry):
                report.counterexamples.append(entry)
    return report


def _recheck_counterexample(entry: dict) -> bool:
    graph = parse_graph(entry["graph"])
    result = exact_cubicity(graph, b_max=entry["cubicity"])
    return (
        not isinstance(result, Exceeded)
        and result.cubicity == entry["cubicity"]
        and result.cubicity > entry["lower_bound"]
    )
