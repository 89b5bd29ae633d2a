"""Interval models and linear orderings of maximal cliques.

An interval graph's maximal cliques can be linearly ordered so that the
cliques containing any one vertex are consecutive.  The CliqueOrdering
type is that witness, kept as each vertex's leftmost and rightmost clique
index alone: clique C_j is every vertex whose range holds j, so no
clique list is stored.  Everything downstream (labelling, coordinate
construction) consumes orderings, not raw models.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction

from .graphs import Graph, Record
from .rationals import parse_ratio

# the shapes of the seeded random models `generate` makes; kept here so
# that the CLI's parser does not load `generate`
DISTRIBUTIONS = ("uniform", "unit-jitter", "nested-heavy")


class IntervalModel(Record):
    """Per-vertex closed intervals [lo, hi] with exact rational endpoints:
    `intervals` is a tuple of (lo, hi) pairs of Fractions."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: tuple[tuple[Fraction, Fraction], ...]):
        for i, (lo, hi) in enumerate(intervals):
            if lo > hi:
                raise ValueError(f"interval {i} has lo > hi: [{lo}, {hi}]")
        super().__init__(intervals)

    @property
    def n(self) -> int:
        return len(self.intervals)

    def to_json_obj(self) -> dict:
        return {
            "intervals": [
                {"id": i, "lo": str(lo), "hi": str(hi)}
                for i, (lo, hi) in enumerate(self.intervals)
            ]
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj) -> "IntervalModel":
        records = obj["intervals"] if isinstance(obj, dict) else None
        if not isinstance(records, list) or not all(isinstance(rec, dict) for rec in records):
            raise ValueError("a model is an object with a list of interval records")
        slots: list[tuple[Fraction, Fraction] | None] = [None] * len(records)
        for rec in records:
            i = rec["id"]
            if type(i) is not int or not (0 <= i < len(records)) or slots[i] is not None:
                raise ValueError(f"interval ids must be a permutation of 0..{len(records) - 1}")
            slots[i] = (Fraction(*parse_ratio(rec["lo"])), Fraction(*parse_ratio(rec["hi"])))
        return cls(tuple(slots))  # type: ignore[arg-type]

    @classmethod
    def loads(cls, text: str) -> "IntervalModel":
        return cls.from_json_obj(json.loads(text))


class CliqueOrdering(Record):
    """Maximal cliques C_0..C_{k-1} in consecutive order, kept as the
    number of cliques `k` and per-vertex leftmost/rightmost clique
    indices (`left`, `right`, tuples of ints): C_j holds the vertices
    whose range holds j.  Two vertices are adjacent exactly when their
    index ranges intersect."""

    __slots__ = ("k", "left", "right")

    @property
    def n(self) -> int:
        return len(self.left)

    def by_left(self) -> list[list[int]]:
        """Vertices grouped by leftmost clique index, each group ascending."""
        groups: list[list[int]] = [[] for _ in range(self.k)]
        for v, j in enumerate(self.left):
            groups[j].append(v)
        return groups

    def to_json_obj(self) -> dict:
        cliques: list[list[int]] = [[] for _ in range(self.k)]
        for v, (lv, rv) in enumerate(zip(self.left, self.right)):
            for j in range(lv, rv + 1):
                cliques[j].append(v)
        return {"cliques": cliques, "left": list(self.left), "right": list(self.right)}


def ordering_from_cliques(cliques, n: int) -> CliqueOrdering:
    """Left/right indices from an ordered clique list; ValueError unless
    every vertex is in some clique and its cliques are consecutive."""
    left = [-1] * n
    right = [-1] * n
    for i, clique in enumerate(cliques):
        for v in clique:
            if left[v] < 0:
                left[v] = i
            right[v] = i
    if any(l < 0 for l in left):
        missing = [v for v in range(n) if left[v] < 0]
        raise ValueError(f"vertices not covered by any clique: {missing}")
    # a vertex's range spans at least the cliques it is in, and exactly
    # them when they are consecutive
    if sum(right) - sum(left) + n != sum(map(len, cliques)):
        raise ValueError("some vertex's cliques are not consecutive")
    return CliqueOrdering(len(cliques), tuple(left), tuple(right))


def ranked_endpoints(model: IntervalModel) -> tuple[list[int], list[int]]:
    """Each interval's ends as ranks among the distinct endpoints, so that
    every later comparison is between small ints.

    The endpoints are hashed as (numerator, denominator) pairs and sorted
    by integer part, then by fractional part as a float.  Division of ints
    rounds correctly, so monotonically: only two distinct values that share
    both keys could be out of order, and then the sort is redone on
    Fractions."""
    ends = [(x.numerator, x.denominator) for iv in model.intervals for x in iv]
    keyed = sorted((p // q, p % q / q, p, q) for p, q in set(ends))
    if any(a[:2] == b[:2] for a, b in zip(keyed, keyed[1:])):
        keyed.sort(key=lambda k: Fraction(k[2], k[3]))
    rank = {(k[2], k[3]): r for r, k in enumerate(keyed)}
    ranks = [rank[x] for x in ends]
    return ranks[0::2], ranks[1::2]


def model_to_graph(model: IntervalModel) -> Graph:
    """Closed-interval overlap graph; a shared endpoint is an edge.

    Sorted by `lo`, the intervals meeting u from its right are exactly the
    later starts at or before `hi` of u, one bisection away: O(n log n + m).
    This reads the endpoints directly, never the clique sweep, so the
    graph a representation is verified against stays independent of the
    ordering it was built from.
    """
    ivs = model.intervals
    order = sorted(range(model.n), key=lambda v: ivs[v][0])
    los = [ivs[v][0] for v in order]
    edges = [
        (u, v)
        for p, u in enumerate(order)
        for v in order[p + 1 : bisect_right(los, ivs[u][1])]
    ]
    return Graph(model.n, edges)


def model_to_clique_ordering(model: IntervalModel) -> CliqueOrdering:
    """Left-to-right endpoint sweep producing the maximal cliques in order.

    At each coordinate every interval starting there is admitted first;
    then, if an interval ends there and some interval was admitted since
    the last snapshot, the open intervals form the next maximal clique.
    An interval's range runs from the first snapshot taken once it is
    open to the last one taken before it closes, so each vertex's indices
    are read off the snapshot count at its ends and no clique is listed.
    """
    lo, hi = ranked_endpoints(model)
    m = max(hi, default=-1) + 1  # the largest endpoint is some interval's hi
    starting, ending = [False] * m, [False] * m
    for r in lo:
        starting[r] = True
    for r in hi:
        ending[r] = True
    k, admitted = 0, False
    at_start, at_end = [0] * m, [0] * m
    for x in range(m):
        at_start[x] = k
        admitted = admitted or starting[x]
        if ending[x] and admitted:
            k, admitted = k + 1, False
        at_end[x] = k - 1
    return CliqueOrdering(k, tuple(at_start[r] for r in lo), tuple(at_end[r] for r in hi))


def greedy_independent(ordering: CliqueOrdering, vertices) -> list[int]:
    """Earliest-finish greedy over clique ranges: a maximum independent set
    of the subgraph the ordering describes induced on `vertices`."""
    chosen: list[int] = []
    last_right = -1
    for v in sorted(vertices, key=lambda v: (ordering.right[v], v)):
        if ordering.left[v] > last_right:
            chosen.append(v)
            last_right = ordering.right[v]
    return chosen
