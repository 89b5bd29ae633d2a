"""Interval-graph recognition from abstract graphs.

Pipeline: maximum cardinality search gives a perfect elimination ordering
candidate (chordality test); maximal cliques fall out of the elimination
ordering; a PQ-tree then orders the cliques so each vertex's cliques are
consecutive.  Graphs failing either stage are not interval, and the stage
is the reason tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .graphs import Graph
from .intervals import CliqueOrdering, ordering_from_cliques
from .pqtree import consecutive_arrangement


class NotIntervalError(Exception):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"graph is not an interval graph ({reason})")


@dataclass(frozen=True)
class NotInterval:
    """Recognition result for non-interval inputs; not an error."""

    reason: str  # "not-chordal" | "no-consecutive-ordering"


class ConstructionError(AssertionError):
    """An internal pipeline invariant failed; always a bug, never an input error."""


def mcs_order(graph: Graph) -> list[int]:
    """Maximum cardinality search visit order, lowest index on ties."""
    n = graph.n
    weight = [0] * n
    visited = [False] * n
    order = []
    for _ in range(n):
        best = max(
            (v for v in range(n) if not visited[v]),
            key=lambda v: (weight[v], -v),
        )
        visited[best] = True
        order.append(best)
        for w in graph.adj[best]:
            if not visited[w]:
                weight[w] += 1
    return order


def perfect_elimination_ordering(graph: Graph) -> list[int] | None:
    """A perfect elimination ordering, or None if the graph is not chordal."""
    peo = list(reversed(mcs_order(graph)))
    pos = {v: i for i, v in enumerate(peo)}
    for v in peo:
        later = [w for w in graph.adj[v] if pos[w] > pos[v]]
        if not later:
            continue
        anchor = min(later, key=lambda w: pos[w])
        rest = set(later) - {anchor}
        if not rest <= graph.adj[anchor]:
            return None
    return peo


def maximal_cliques_chordal(graph: Graph, peo: list[int]) -> list[frozenset[int]]:
    """All maximal cliques of a chordal graph, from its elimination ordering."""
    pos = {v: i for i, v in enumerate(peo)}
    candidates = {
        frozenset({v} | {w for w in graph.adj[v] if pos[w] > pos[v]}) for v in peo
    }
    cliques = [
        c for c in candidates if not any(c < d for d in candidates)
    ]
    cliques.sort(key=lambda c: sorted(c))
    return cliques


def recognize_and_order(graph: Graph) -> CliqueOrdering | NotInterval:
    """Recognize an interval graph and return a valid clique ordering,
    or a NotInterval result carrying the failing stage."""
    if graph.n == 0:
        return CliqueOrdering((), (), ())
    peo = perfect_elimination_ordering(graph)
    if peo is None:
        return NotInterval("not-chordal")
    cliques = maximal_cliques_chordal(graph, peo)
    rows = [
        [i for i, c in enumerate(cliques) if v in c] for v in range(graph.n)
    ]
    arrangement = consecutive_arrangement(rows, len(cliques))
    if arrangement is None:
        return NotInterval("no-consecutive-ordering")
    ordering = ordering_from_cliques([cliques[i] for i in arrangement], graph.n)
    _check_ordering_sanity(graph, ordering)
    return ordering


def require_ordering(graph: Graph) -> CliqueOrdering:
    """Recognition that raises instead of returning a result object."""
    result = recognize_and_order(graph)
    if isinstance(result, NotInterval):
        raise NotIntervalError(result.reason)
    return result


def _check_ordering_sanity(graph: Graph, ordering: CliqueOrdering):
    """Cheap canaries in O(n + m + Σ|C_j|); the full validator lives in
    intervals.validate_ordering.

    Every vertex's cliques form one non-empty run from `left` to `right`.
    Every edge's ranges meet, and exactly m pairs of ranges meet, so the
    ranges describe the graph's edges and nothing else.
    """
    n, left, right = graph.n, ordering.left, ordering.right
    membership: list[list[int]] = [[] for _ in range(n)]
    for i, clique in enumerate(ordering.cliques):
        for v in clique:
            membership[v].append(i)
    for v in range(n):
        runs = membership[v]
        if not runs or runs != list(range(left[v], right[v] + 1)):
            raise ConstructionError(f"clique run of vertex {v} is not consecutive")
    for u in range(n):
        for v in graph.adj[u]:
            if u < v and not ordering.ranges_intersect(u, v):
                raise ConstructionError(f"ordering disagrees with adjacency on ({u}, {v})")
    # Listed by left end, the vertex at position p meets the later ones
    # whose left end is at or before its right end: upto[right] - p - 1 of
    # them, where upto[j] counts the left ends at or before clique j.
    # Summed over p = 0..n-1 that is the count below.
    upto = list(accumulate(len(group) for group in ordering.by_left()))
    meeting = sum(upto[r] for r in right) - n * (n + 1) // 2
    if meeting != graph.edge_count:
        raise ConstructionError(
            f"{meeting} pairs of clique ranges meet, the graph has {graph.edge_count} edges"
        )
