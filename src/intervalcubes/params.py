"""Graph parameters the dimension bounds are stated in: claw number and
independence number, read off the clique ordering."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .intervals import CliqueOrdering, greedy_independent
from .labelling import Labelling


def ceil_log2(x: int) -> int:
    if x < 1:
        raise ValueError("ceil_log2 needs a positive integer")
    return (x - 1).bit_length()


@dataclass(frozen=True)
class StarWitness:
    center: int
    leaves: tuple[int, ...]

    def to_json_obj(self) -> dict:
        return {"center": self.center, "leaves": list(self.leaves)}


@dataclass(frozen=True)
class ParamReport:
    psi: int
    alpha: int
    witness: StarWitness | None
    lower_bound: int  # ceil(log2 psi) when psi >= 1, else 0

    def to_json_obj(self) -> dict:
        return {
            "psi": self.psi,
            "alpha": self.alpha,
            "lower_bound": self.lower_bound,
            "witness": self.witness.to_json_obj() if self.witness else None,
        }


def neighborhood_mis(
    ordering: CliqueOrdering, v: int, by_left: list[list[int]]
) -> tuple[int, tuple[int, ...]]:
    """Maximum independent set size within N(v), with the chosen leaves.

    N(v) with v is C_{left v} plus every vertex whose range starts in
    (left v, right v]; `by_left` is `ordering.by_left()`, the vertices
    grouped by their left clique index.  Induced subgraphs of interval
    graphs are interval and inherit the clique ranges, so the
    earliest-finish greedy is exact here.
    """
    left, right = ordering.left[v], ordering.right[v]
    pool = [u for u in ordering.cliques[left] if u != v]
    for j in range(left + 1, right + 1):
        pool.extend(by_left[j])
    leaves = greedy_independent(ordering, pool)
    return len(leaves), tuple(leaves)


def claw_number(ordering: CliqueOrdering) -> tuple[int, StarWitness | None]:
    """Largest m with an induced star on m leaves; 0 for edgeless graphs."""
    by_left = ordering.by_left()
    best = 0
    witness: StarWitness | None = None
    for v in range(ordering.n):
        m, leaves = neighborhood_mis(ordering, v, by_left)
        if m > best:
            best = m
            witness = StarWitness(center=v, leaves=leaves)
    return best, witness


def param_report(ordering: CliqueOrdering, graph: Graph, labelling: Labelling) -> ParamReport:
    """psi, alpha and the lower bound, all read off the ordering and the
    labelling.  `graph` is not read; the signature keeps it because the
    benchmark harness calls it this way."""
    psi, witness = claw_number(ordering)
    return ParamReport(
        psi=psi,
        alpha=labelling.alpha,
        witness=witness,
        lower_bound=ceil_log2(psi) if psi >= 1 else 0,
    )
