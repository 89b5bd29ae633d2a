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

from .graphs import Record
from .intervals import CliqueOrdering


class Labelling(Record):
    """Per-vertex level plus the ordered anchor vertices, one per level,
    as tuples of ints."""

    __slots__ = ("levels", "anchors")

    @property
    def alpha(self) -> int:
        return len(self.anchors)

    def to_json_obj(self) -> dict:
        return {
            "levels": list(self.levels),
            "anchors": list(self.anchors),
            "alpha": self.alpha,
        }


def suffix_best(ordering: CliqueOrdering) -> list[int | None]:
    """best[j]: the vertex minimizing (right, index) among those whose
    range starts at clique j or later; best[k] is None.  After a pick that
    ends at clique r the earliest-finish greedy takes best[r + 1], so the
    labelling's anchors and the claw pass's chains both step through it."""
    right = ordering.right
    best: list[int | None] = [None] * (ordering.k + 1)
    by_left = ordering.by_left()
    for j in range(ordering.k - 1, -1, -1):
        cand = best[j + 1]
        for v in by_left[j]:
            if cand is None or (right[v], v) < (right[cand], cand):
                cand = v
        best[j] = cand
    return best


def label_vertices(ordering: CliqueOrdering, best: list[int | None] | None = None) -> Labelling:
    """Deterministic labelling; anchor ties break to the lowest index.
    `best` is the ordering's `suffix_best` table, made here when not given."""
    n, k = ordering.n, ordering.k
    left, right = ordering.left, ordering.right
    if best is None:
        best = suffix_best(ordering)

    anchors: list[int] = []
    j = 0
    while j < k and best[j] is not None:
        u = best[j]
        anchors.append(u)
        j = right[u] + 1

    anchor_rights = [right[u] for u in anchors]
    levels = tuple(bisect_left(anchor_rights, left[v]) for v in range(n))
    return Labelling(levels=levels, anchors=tuple(anchors))
