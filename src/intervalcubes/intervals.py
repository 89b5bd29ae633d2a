"""Interval models and linear orderings of maximal cliques.

An interval graph's maximal cliques can be linearly ordered so that the
cliques containing any one vertex are consecutive.  The CliqueOrdering
type is that witness: the clique list plus each vertex's leftmost and
rightmost clique index.  Everything downstream (labelling, coordinate
construction) consumes orderings, not raw models.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph
from .rationals import format_rational, parse_rational
from .reports import ValidationReport, Violation


@dataclass(frozen=True)
class IntervalModel:
    """Per-vertex closed intervals [lo, hi] with exact rational endpoints."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        for i, (lo, hi) in enumerate(self.intervals):
            if lo > hi:
                raise ValueError(f"interval {i} has lo > hi: [{lo}, {hi}]")

    @property
    def n(self) -> int:
        return len(self.intervals)

    def to_json_obj(self) -> dict:
        return {
            "intervals": [
                {"id": i, "lo": format_rational(lo), "hi": format_rational(hi)}
                for i, (lo, hi) in enumerate(self.intervals)
            ]
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj) -> "IntervalModel":
        records = obj["intervals"]
        slots: list[tuple[Fraction, Fraction] | None] = [None] * len(records)
        for rec in records:
            i = rec["id"]
            if not isinstance(i, int) or not (0 <= i < len(records)) or slots[i] is not None:
                raise ValueError(f"interval ids must be a permutation of 0..{len(records) - 1}")
            slots[i] = (parse_rational(rec["lo"]), parse_rational(rec["hi"]))
        return cls(tuple(slots))  # type: ignore[arg-type]

    @classmethod
    def loads(cls, text: str) -> "IntervalModel":
        return cls.from_json_obj(json.loads(text))


def make_model(pairs) -> IntervalModel:
    """Build a model from (lo, hi) pairs of ints, strings, or Fractions."""
    return IntervalModel(
        tuple((parse_rational(lo), parse_rational(hi)) for lo, hi in pairs)
    )


@dataclass(frozen=True)
class CliqueOrdering:
    """Maximal cliques C_0..C_{k-1} in consecutive order, plus per-vertex
    leftmost/rightmost clique indices.  Two vertices are adjacent exactly
    when their index ranges intersect."""

    cliques: tuple[frozenset[int], ...]
    left: tuple[int, ...]
    right: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.cliques)

    @property
    def n(self) -> int:
        return len(self.left)

    def ranges_intersect(self, u: int, v: int) -> bool:
        return self.left[u] <= self.right[v] and self.left[v] <= self.right[u]

    def by_left(self) -> list[list[int]]:
        """Vertices grouped by leftmost clique index, each group ascending."""
        groups: list[list[int]] = [[] for _ in range(self.k)]
        for v, j in enumerate(self.left):
            groups[j].append(v)
        return groups

    def to_json_obj(self) -> dict:
        return {
            "cliques": [sorted(c) for c in self.cliques],
            "left": list(self.left),
            "right": list(self.right),
        }


def ordering_from_cliques(cliques, n: int) -> CliqueOrdering:
    """Derive left/right indices from an ordered clique list."""
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
    return CliqueOrdering(tuple(frozenset(c) for c in cliques), tuple(left), tuple(right))


def model_to_graph(model: IntervalModel) -> Graph:
    """Closed-interval overlap graph; a shared endpoint is an edge."""
    n = model.n
    ivs = model.intervals
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if ivs[u][0] <= ivs[v][1] and ivs[v][0] <= ivs[u][1]
    ]
    return Graph(n, edges)


def model_to_clique_ordering(model: IntervalModel) -> CliqueOrdering:
    """Left-to-right endpoint sweep producing the maximal cliques in order.

    At each coordinate we first admit every interval starting there, then,
    if an interval ends there and some interval was admitted since the last
    snapshot, the current active set is a maximal clique.
    """
    starts: dict[Fraction, list[int]] = {}
    ends: dict[Fraction, list[int]] = {}
    for v, (lo, hi) in enumerate(model.intervals):
        starts.setdefault(lo, []).append(v)
        ends.setdefault(hi, []).append(v)
    coords = sorted(set(starts) | set(ends))
    active: set[int] = set()
    inserted_since_snapshot = False
    cliques: list[frozenset[int]] = []
    for x in coords:
        for v in starts.get(x, ()):
            active.add(v)
            inserted_since_snapshot = True
        ending = ends.get(x, ())
        if ending and inserted_since_snapshot:
            cliques.append(frozenset(active))
            inserted_since_snapshot = False
        for v in ending:
            active.remove(v)
    return ordering_from_cliques(cliques, model.n)


def validate_ordering(graph: Graph, ordering: CliqueOrdering) -> ValidationReport:
    """Check every CliqueOrdering invariant against the graph; empty report
    means valid.  Kinds: coverage, not-a-clique, not-maximal, clique-subset,
    not-consecutive, adjacency-mismatch, empty."""
    violations: list[Violation] = []
    n, k = graph.n, ordering.k
    if ordering.n != n:
        return ValidationReport(
            (Violation("coverage", (ordering.n, n), "vertex count mismatch"),)
        )
    if n >= 1 and k == 0:
        return ValidationReport((Violation("empty", (n,), "no cliques for non-empty graph"),))

    membership: list[list[int]] = [[] for _ in range(n)]
    for i, clique in enumerate(ordering.cliques):
        members = sorted(clique)
        for v in members:
            if not (0 <= v < n):
                violations.append(Violation("coverage", (i, v), "clique member out of range"))
                continue
            membership[v].append(i)
        for a_idx, u in enumerate(members):
            for v in members[a_idx + 1:]:
                if not graph.has_edge(u, v):
                    violations.append(
                        Violation("not-a-clique", (i, u, v), "non-adjacent pair inside clique")
                    )
        for w in range(n):
            if w not in clique and clique <= graph.adj[w]:
                violations.append(
                    Violation("not-maximal", (i, w), "vertex adjacent to entire clique")
                )

    for i in range(k):
        for j in range(k):
            if i != j and ordering.cliques[i] <= ordering.cliques[j]:
                violations.append(
                    Violation("clique-subset", (i, j), "clique contained in another")
                )

    for v in range(n):
        runs = membership[v]
        if not runs:
            violations.append(Violation("coverage", (v,), "vertex in no clique"))
            continue
        expected = list(range(ordering.left[v], ordering.right[v] + 1))
        if runs != expected:
            violations.append(
                Violation("not-consecutive", (v,), f"clique indices {runs} != range {expected}")
            )

    for u in range(n):
        for v in range(u + 1, n):
            if graph.has_edge(u, v) != ordering.ranges_intersect(u, v):
                violations.append(
                    Violation("adjacency-mismatch", (u, v), "range overlap disagrees with edge")
                )
    return ValidationReport(tuple(violations))


def greedy_independent(ordering: CliqueOrdering, vertices=None) -> list[int]:
    """Earliest-finish greedy over clique ranges: a maximum independent set
    of the (induced sub)graph the ordering describes."""
    pool = range(ordering.n) if vertices is None else vertices
    chosen: list[int] = []
    last_right = -1
    for v in sorted(pool, key=lambda v: (ordering.right[v], v)):
        if ordering.left[v] > last_right:
            chosen.append(v)
            last_right = ordering.right[v]
    return chosen
