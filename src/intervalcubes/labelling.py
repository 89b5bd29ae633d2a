"""Greedy vertex levels over a clique ordering.

Repeatedly take the unlabelled vertex whose rightmost clique comes
earliest (the level's anchor), give its level to it and to all unlabelled
neighbors, and continue.  The anchors are the earliest-finish greedy over
all the ranges, a maximum independent set, walked along the suffix-best
chain by `earliest_finish` (which `params` also walks for the claw
witness), and a vertex's level, the number of anchors whose rightmost
clique ends strictly before its leftmost clique, is one bisection.
"""

from __future__ import annotations

from bisect import bisect_left

from .graphs import CliqueOrdering, Record


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
    ends at clique r the earliest-finish greedy takes best[r + 1], so
    `earliest_finish` and the claw pass's chains both step through it."""
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


def earliest_finish(
    ordering: CliqueOrdering, best: list[int | None], j: int, stop: int
) -> list[int]:
    """The earliest-finish greedy over the ranges that start in [j, stop],
    ties to the lowest index.  After a pick ending at clique r it takes
    best[r + 1] while that range starts by `stop`; one that starts later
    ends after `stop`, as does every range starting in (r, stop], so the
    last pick is the first of those by (right, index)."""
    left, right = ordering.left, ordering.right
    picks: list[int] = []
    while j <= stop:
        u = best[j]
        if left[u] > stop:
            starts = (v for v in range(ordering.n) if j <= left[v] <= stop)
            u = min(starts, key=lambda v: (right[v], v))
        picks.append(u)
        j = right[u] + 1
    return picks


def label_vertices(ordering: CliqueOrdering, best: list[int | None] | None = None) -> Labelling:
    """Deterministic labelling; anchor ties break to the lowest index.
    `best` is the ordering's `suffix_best` table, made here when not given."""
    if best is None:
        best = suffix_best(ordering)
    anchors = earliest_finish(ordering, best, 0, ordering.k - 1)
    anchor_rights = [ordering.right[u] for u in anchors]
    levels = tuple(bisect_left(anchor_rights, lv) for lv in ordering.left)
    return Labelling(levels=levels, anchors=tuple(anchors))
