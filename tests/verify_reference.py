"""Pairwise references for the sweeps that build and check graphs.

The library's `model_to_graph`, `verify_representation` and
`recognition._check_ordering_sanity` avoid walking every pair of
vertices.  These are the all-pairs versions they replaced, kept word for
word as the oracles of the differential tests.
"""

from __future__ import annotations

from intervalcubes import Graph, VerificationReport
from intervalcubes.recognition import ConstructionError

from validators import clique_sets, ranges_intersect


def model_to_graph_pairwise(model) -> Graph:
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


def verify_pairwise(graph: Graph, rep) -> VerificationReport:
    """Exhaustive pairwise check: adjacent pairs must stay within the side
    in every dimension, non-adjacent pairs must exceed it somewhere."""
    if rep.n != graph.n:
        raise ValueError(f"representation covers {rep.n} vertices, graph has {graph.n}")
    cols, side = rep.coords, rep.side
    d = rep.dimension
    missing_adjacency = []
    missing_separation = []
    stats = [0] * d
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            adjacent = v in graph.adj[u]
            separated = False
            for i in range(d):
                gap = cols[i][u] - cols[i][v]
                if gap < 0:
                    gap = -gap
                if gap > side:
                    separated = True
                    if adjacent:
                        break
                    stats[i] += 1
            if adjacent and separated:
                missing_adjacency.append((u, v))
            elif not adjacent and not separated:
                missing_separation.append((u, v))
    return VerificationReport(
        missing_adjacency=tuple(missing_adjacency),
        missing_separation=tuple(missing_separation),
        dimension_stats=tuple(stats),
    )


def check_ordering_sanity_pairwise(graph: Graph, ordering):
    """Consecutive clique runs, then range overlap against every pair."""
    membership: list[list[int]] = [[] for _ in range(graph.n)]
    for i, clique in enumerate(clique_sets(ordering)):
        for v in clique:
            membership[v].append(i)
    for v in range(graph.n):
        runs = membership[v]
        if runs != list(range(ordering.left[v], ordering.right[v] + 1)):
            raise ConstructionError(f"clique run of vertex {v} is not consecutive")
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            if (v in graph.adj[u]) != ranges_intersect(ordering, u, v):
                raise ConstructionError(f"ordering disagrees with adjacency on ({u}, {v})")
