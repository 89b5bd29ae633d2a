"""Graph parameters the dimension bounds are stated in: claw number and
independence number, computed through the clique ordering."""

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
    ordering: CliqueOrdering, graph: Graph, v: int
) -> tuple[int, tuple[int, ...]]:
    """Maximum independent set size within N(v), with the chosen leaves.

    Induced subgraphs of interval graphs are interval and inherit the
    clique ranges, so the earliest-finish greedy is exact here.
    """
    leaves = greedy_independent(ordering, graph.adj[v])
    return len(leaves), tuple(leaves)


def claw_number(
    ordering: CliqueOrdering, graph: Graph
) -> tuple[int, StarWitness | None]:
    """Largest m with an induced star on m leaves; 0 for edgeless graphs."""
    best = 0
    witness: StarWitness | None = None
    for v in range(graph.n):
        m, leaves = neighborhood_mis(ordering, graph, v)
        if m > best:
            best = m
            witness = StarWitness(center=v, leaves=leaves)
    return best, witness


def independence_number(labelling: Labelling) -> int:
    return labelling.alpha


def param_report(ordering: CliqueOrdering, graph: Graph, labelling: Labelling) -> ParamReport:
    psi, witness = claw_number(ordering, graph)
    alpha = independence_number(labelling)
    return ParamReport(
        psi=psi,
        alpha=alpha,
        witness=witness,
        lower_bound=ceil_log2(psi) if psi >= 1 else 0,
    )
