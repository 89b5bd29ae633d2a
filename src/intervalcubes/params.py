"""Graph parameters the dimension bounds are stated in: claw number and
independence number, read off the clique ordering.

psi(v), the largest independent set in N(v), is the earliest-finish
greedy on N(v), and only the right ends of its picks decide how many it
makes.  N(v) is C_{left v} without v plus every vertex whose range starts
in (left v, right v].

- First pick.  Let r be the first clique from left v on where some range
  ends.  If a neighbour ends there, the greedy's first pick ends at r.
  Otherwise the ranges ending there are v itself or start after right v;
  either way every neighbour ends at r or later and holds right v, so the
  greedy stops after one pick, and so does the chain below.  With maximal
  cliques r is left v itself, since some range of C_j leaves before
  C_{j+1}; a padded ordering whose centre was alone in the last clique is
  the exception.
- Later picks.  After a pick ending at r, the greedy takes the earliest
  finisher among the ranges starting in (r, right v], and that is
  `best[r + 1]` of the labelling's suffix-best table whenever that vertex
  starts by right v.  When it starts later it also ends after right v, and
  so does every range starting in (r, right v]: the greedy takes one of
  them and stops.  Some range starts at every clique index, because the
  cliques are maximal (each pendant of a padded ordering starts its own
  clique), so the greedy has a pick wherever the chain takes a step.

So psi(v) is 1 plus the steps of the chain j -> right[best[j]] + 1 from
j = r + 1 while j <= right v, or 0 when v's range is one clique holding v
alone.  The chain's last pick may be a vertex outside N(v) where the
greedy picks another that also overruns right v: the count is the same,
the leaves may not be.  No clique or neighbourhood is listed or sorted,
so all psi(v) cost O(n + k + sum of psi(v)); `claw_number` runs the greedy
once more, on the centre it picks, for the witness leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .intervals import CliqueOrdering, greedy_independent
from .labelling import Labelling, suffix_best


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


def vertex_claws(ordering: CliqueOrdering) -> list[int]:
    """psi(v) for every vertex v: the most independent vertices in N(v),
    by the chain through the suffix-best table (see the module docstring)."""
    k, right = ordering.k, ordering.right
    after = [right[u] + 1 for u in suffix_best(ordering)[:k]]
    # first_after[j]: one past the first clique from j on where a range ends
    ends = set(right)
    first_after = [k] * (k + 1)
    for j in range(k - 1, -1, -1):
        first_after[j] = j + 1 if j in ends else first_after[j + 1]

    claws = []
    for v, (lv, rv) in enumerate(zip(ordering.left, right)):
        if lv == rv and len(ordering.cliques[lv]) == 1:  # v is isolated
            claws.append(0)
            continue
        count, j = 1, first_after[lv]
        while j <= rv:
            count, j = count + 1, after[j]
        claws.append(count)
    return claws


def claw_number(ordering: CliqueOrdering) -> tuple[int, StarWitness | None]:
    """Largest m with an induced star on m leaves; 0 for edgeless graphs.

    The centre is the lowest-indexed vertex with the largest psi(v), from
    one `vertex_claws` pass; `neighborhood_mis` runs once, on that centre,
    for the witness leaves."""
    claws = vertex_claws(ordering)
    psi = max(claws, default=0)
    if psi == 0:
        return 0, None
    center = claws.index(psi)
    _, leaves = neighborhood_mis(ordering, center, ordering.by_left())
    return psi, StarWitness(center=center, leaves=leaves)


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
