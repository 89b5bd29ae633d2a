"""Greedy vertex levels over a clique ordering.

Repeatedly take the unlabelled vertex whose rightmost clique comes
earliest (the level's anchor), give its level to it and to all unlabelled
neighbors, and continue.  The anchors form a maximum independent set, and
a vertex's level is the number of anchors whose rightmost clique ends
strictly before the vertex's leftmost clique.  That last fact lets the
whole labelling run as one pass over the cliques instead of literal set
subtraction.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .graphs import Graph
from .intervals import CliqueOrdering, greedy_independent
from .reports import ValidationReport, Violation


@dataclass(frozen=True)
class Labelling:
    """Per-vertex level plus the ordered anchor vertices, one per level."""

    levels: tuple[int, ...]
    anchors: tuple[int, ...]

    @property
    def alpha(self) -> int:
        return len(self.anchors)

    def to_json_obj(self) -> dict:
        return {
            "levels": list(self.levels),
            "anchors": list(self.anchors),
            "alpha": self.alpha,
        }


def label_vertices(ordering: CliqueOrdering) -> Labelling:
    """Deterministic labelling; anchor ties break to the lowest index."""
    n, k = ordering.n, ordering.k
    if n == 0:
        raise ValueError("cannot label an empty graph")
    left, right = ordering.left, ordering.right

    # best[j]: vertex minimizing (right, index) among those with left >= j
    best: list[int | None] = [None] * (k + 1)
    by_left = ordering.by_left()
    for j in range(k - 1, -1, -1):
        cand = best[j + 1]
        for v in by_left[j]:
            if cand is None or (right[v], v) < (right[cand], cand):
                cand = v
        best[j] = cand

    anchors: list[int] = []
    j = 0
    while j < k and best[j] is not None:
        u = best[j]
        anchors.append(u)
        j = right[u] + 1

    anchor_rights = [right[u] for u in anchors]
    levels = tuple(bisect_left(anchor_rights, left[v]) for v in range(n))
    return Labelling(levels=levels, anchors=tuple(anchors))


def validate_labelling(
    ordering: CliqueOrdering, labelling: Labelling, graph: Graph
) -> ValidationReport:
    """Check the four structural facts the construction leans on.

    Kinds:
      level-threshold       level(v) <= i iff left(v) <= right(anchor_i),
                            quantified over every (v, i) pair
      same-level-nonadjacent equal levels force adjacency
      anchors-dependent      anchors must be pairwise non-adjacent
      anchors-not-maximum    anchor count must equal the maximum
                            independent set size (earliest-finish greedy)
      anchor-chain          anchor right indices strictly increase from 0
                            to k-1
      level-range           levels must cover 0..alpha-1 with
                            level(anchor_i) = i
    """
    violations: list[Violation] = []
    n, k = ordering.n, ordering.k
    levels, anchors = labelling.levels, labelling.anchors
    alpha = len(anchors)

    for v in range(n):
        for i in range(alpha):
            if (levels[v] <= i) != (ordering.left[v] <= ordering.right[anchors[i]]):
                violations.append(
                    Violation("level-threshold", (v, i), "threshold equivalence fails")
                )

    by_level: dict[int, list[int]] = {}
    for v in range(n):
        by_level.setdefault(levels[v], []).append(v)
    for lvl, members in by_level.items():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                u, v = members[a], members[b]
                if not graph.has_edge(u, v):
                    violations.append(
                        Violation("same-level-nonadjacent", (u, v), f"both at level {lvl}")
                    )

    for a in range(alpha):
        for b in range(a + 1, alpha):
            if graph.has_edge(anchors[a], anchors[b]):
                violations.append(
                    Violation("anchors-dependent", (anchors[a], anchors[b]), "")
                )
    maximum = len(greedy_independent(ordering))
    if alpha != maximum:
        violations.append(
            Violation("anchors-not-maximum", (alpha, maximum), "independent set not maximum")
        )

    chain = [ordering.right[u] for u in anchors]
    chain_ok = (
        alpha >= 1
        and chain[0] == 0
        and chain[-1] == k - 1
        and all(chain[i] < chain[i + 1] for i in range(alpha - 1))
    )
    if not chain_ok:
        violations.append(Violation("anchor-chain", tuple(chain), "not 0 < ... < k-1"))

    if sorted(set(levels)) != list(range(alpha)) or any(
        levels[anchors[i]] != i for i in range(alpha)
    ):
        violations.append(Violation("level-range", (alpha,), "levels not 0..alpha-1"))

    return ValidationReport(tuple(violations))
