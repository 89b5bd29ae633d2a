"""Independent checking of cube representations against graphs.

The verifier trusts nothing from the construction: it re-derives
adjacency from the graph and compares against max-norm geometry only.
It reads the graph and the coordinates, never a clique ordering or a
model.  A representation's side and coordinates are integers on one grid,
so every comparison is an exact integer comparison.

Checking every pair would cost Θ(n²·d).  Whether two cubes meet is a
fixed-radius near-neighbour question in the max norm, so the check sorts
each dimension and slides a window of width `side` (Bentley, Stanat and
Williams 1977): it touches the edges and the pairs near in one
dimension, not every pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, non_edges


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    missing_adjacency: tuple[tuple[int, int], ...]
    missing_separation: tuple[tuple[int, int], ...]
    dimension_stats: tuple[int, ...]

    def to_json_obj(self) -> dict:
        return {
            "ok": self.ok,
            "missing_adjacency": [list(p) for p in self.missing_adjacency],
            "missing_separation": [list(p) for p in self.missing_separation],
            "dimension_stats": list(self.dimension_stats),
        }


def verify_representation(graph: Graph, rep) -> VerificationReport:
    """Check that adjacent pairs stay within the side in every dimension and
    non-adjacent pairs exceed it somewhere, without walking every pair.

    Each dimension is sorted once, and a two-pointer window gives the
    number of pairs within the side there.  `dimension_stats[i]` is the
    non-edges separated in dimension i: every pair beyond the side there,
    less the edges beyond it, which one pass over the edge list finds
    along with `missing_adjacency`.  A non-edge within the side in every
    dimension is within it in the dimension with the fewest near pairs,
    so `missing_separation` comes from sliding the window over that one.
    Cost O(d·n log n + m·d + P), with P the near pairs of that dimension.
    With dimension 0 every pair counts as adjacent, so every non-edge is
    reported.  Lists are in lexicographic order.
    """
    n = graph.n
    if rep.n != n:
        raise ValueError(f"representation covers {rep.n} vertices, graph has {n}")
    rows, side, d = rep.coords, rep.side, rep.dimension
    if d == 0:
        unseparated = tuple(non_edges(graph))
        return VerificationReport(
            ok=not unseparated,
            missing_adjacency=(),
            missing_separation=unseparated,
            dimension_stats=(),
        )
    cols = [[row[i] for row in rows] for i in range(d)]
    windows = [_window(col, side) for col in cols]
    near = [sum(j - lo for j, lo in enumerate(starts)) for _, starts in windows]

    edges = [(u, v) for u in range(n) for v in graph.adj[u] if u < v]
    far_edges = [[e for e in edges if abs(col[e[0]] - col[e[1]]) > side] for col in cols]
    missing_adjacency = sorted(set().union(*far_edges))
    pairs = n * (n - 1) // 2
    stats = tuple(pairs - near[i] - len(far_edges[i]) for i in range(d))

    order, starts = windows[min(range(d), key=near.__getitem__)]
    missing_separation = sorted(_unseparated(graph, rows, side, order, starts))
    return VerificationReport(
        ok=not missing_adjacency and not missing_separation,
        missing_adjacency=tuple(missing_adjacency),
        missing_separation=tuple(missing_separation),
        dimension_stats=stats,
    )


def _window(col: list[int], side: int) -> tuple[list[int], list[int]]:
    """Vertices sorted by `col`, and for each position j the first
    position whose value is within `side` of position j's."""
    order = sorted(range(len(col)), key=col.__getitem__)
    xs = [col[v] for v in order]
    starts = []
    lo = 0
    for x in xs:
        while x - xs[lo] > side:
            lo += 1
        starts.append(lo)
    return order, starts


def _unseparated(graph: Graph, rows, side: int, order, starts):
    """The non-edges among the window pairs that lie within `side` in
    every dimension, each as (smaller, larger)."""
    adj = graph.adj
    for j, v in enumerate(order):
        gv = rows[v]
        for u in order[starts[j] : j]:
            if u in adj[v]:
                continue
            for a, b in zip(gv, rows[u]):
                if a - b > side or b - a > side:
                    break
            else:
                yield (u, v) if u < v else (v, u)


def complete_dimensions(rep) -> list[int]:
    """Dimensions whose coordinate span stays within the side: every pair
    is adjacent there, so the dimension constrains nothing."""
    out = []
    for i in range(rep.dimension):
        values = [row[i] for row in rep.coords]
        if not values or max(values) - min(values) <= rep.side:
            out.append(i)
    return out
