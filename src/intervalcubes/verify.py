"""Independent checking of cube representations against graphs.

The verifier trusts nothing from the construction: it re-derives
adjacency from the graph and compares against max-norm geometry only.
A representation's side and coordinates are integers on one grid, so
every comparison is an exact integer comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .reports import ValidationReport, Violation


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
    """Exhaustive pairwise check: adjacent pairs must stay within the side
    in every dimension, non-adjacent pairs must exceed it somewhere."""
    if rep.n != graph.n:
        raise ValueError(f"representation covers {rep.n} vertices, graph has {graph.n}")
    grid, side = rep.coords, rep.side
    d = rep.dimension
    missing_adjacency = []
    missing_separation = []
    stats = [0] * d
    for u in range(graph.n):
        gu = grid[u]
        for v in range(u + 1, graph.n):
            gv = grid[v]
            adjacent = graph.has_edge(u, v)
            separated = False
            for i in range(d):
                gap = gu[i] - gv[i]
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
        ok=not missing_adjacency and not missing_separation,
        missing_adjacency=tuple(missing_adjacency),
        missing_separation=tuple(missing_separation),
        dimension_stats=tuple(stats),
    )


def complete_dimensions(rep) -> list[int]:
    """Dimensions whose coordinate span stays within the side: every pair
    is adjacent there, so the dimension constrains nothing."""
    out = []
    for i in range(rep.dimension):
        values = [row[i] for row in rep.coords]
        if not values or max(values) - min(values) <= rep.side:
            out.append(i)
    return out


def check_trace(trace, ordering, labelling) -> ValidationReport:
    """Audit a construction trace on the padded graph.

    Kinds:
      scale-not-increasing  consecutive scale values out of order
      scale-anchor          scale misses value i at anchor i's right clique
      span-bound            a vertex's clique span reaches the cube side
      scale-outside-cube    some clique position of a vertex falls outside
                            its cube in some dimension
    """
    violations: list[Violation] = []
    scale = trace.scale
    reach = trace.claw * trace.unit - trace.unit // 2

    for j in range(len(scale) - 1):
        if not scale[j] < scale[j + 1]:
            violations.append(
                Violation("scale-not-increasing", (j,), f"{scale[j]} !< {scale[j + 1]}")
            )
    for i, u in enumerate(labelling.anchors):
        r = ordering.right[u]
        if r >= len(scale) or scale[r] != i * trace.unit:
            violations.append(Violation("scale-anchor", (i, u), ""))

    n = len(trace.coords)
    for v in range(n):
        lo, hi = ordering.left[v], ordering.right[v]
        if not scale[hi] - scale[lo] < reach:
            violations.append(
                Violation("span-bound", (v,), f"{scale[hi] - scale[lo]} >= {reach}")
            )
        for j in range(lo, hi + 1):
            for i in range(len(trace.coords[v])):
                base = trace.coords[v][i]
                if not (base <= scale[j] <= base + reach):
                    violations.append(
                        Violation(
                            "scale-outside-cube",
                            (v, j, i),
                            f"{scale[j]} outside [{base}, {base + reach}]",
                        )
                    )
    return ValidationReport(tuple(violations))
