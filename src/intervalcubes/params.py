"""Graph parameters the dimension bounds are stated in: claw number and
independence number, read off the clique ordering.

psi(v), the largest independent set in N(v), is the earliest-finish
greedy on N(v), and only the right ends of its picks decide how many it
makes.  N(v) is C_{left v} without v plus every vertex whose range starts
in (left v, right v].

- First pick.  Some range ends at r = left v, because the cliques are
  maximal: some range of C_j leaves before C_{j+1}, and every range ends
  by the last clique.  If a neighbour ends there, the greedy's first pick
  ends at r.  Otherwise the ranges ending there are v itself or start
  after right v; either way every neighbour ends at r or later and holds
  right v, so the greedy stops after one pick, and so does the chain
  below.
- Later picks.  After a pick ending at r, the greedy takes the earliest
  finisher among the ranges starting in (r, right v], and that is
  `best[r + 1]` of the labelling's suffix-best table whenever that vertex
  starts by right v.  When it starts later it also ends after right v, and
  so does every range starting in (r, right v]: the greedy takes one of
  them and stops.  Some range starts at every clique index, because the
  cliques are maximal, so the greedy has a pick wherever the chain takes
  a step.

So psi(v) is 1 plus the steps of the chain j -> right[best[j]] + 1 from
j = left v + 1 while j <= right v, or 0 when v's range is one clique holding v
alone.  The chain's last pick may be a vertex outside N(v) where the
greedy picks another that also overruns right v: the count is the same,
the leaves may not be.  No clique or neighbourhood is listed or sorted,
so all psi(v) cost O(n + k + sum of psi(v)); `param_report` runs the
greedy once more, on the centre it picks, for the witness leaves.  A claw
build needs psi and the labelling, and `parameters` makes both from one
suffix-best table, as `param_report` makes psi, its witness and the
labelling: each build, each search sample and each report makes one.
"""

from __future__ import annotations

from itertools import accumulate

from .graphs import Graph, Record
from .intervals import CliqueOrdering, greedy_independent
from .labelling import Labelling, label_vertices, suffix_best


def ceil_log2(x: int) -> int:
    if x < 1:
        raise ValueError("ceil_log2 needs a positive integer")
    return (x - 1).bit_length()


def best_dimension(psi: int, alpha: int) -> int:
    """The dimension `construct.build_best` reaches for claw number psi and
    independence number alpha >= 1.  Below claw number 2 build_degenerate
    needs one dimension, or none when alpha == 1, where the alpha
    variant's zero dimensions win anyway."""
    claw_dims = ceil_log2(psi) + 2 if psi >= 2 else 1
    return min(claw_dims, ceil_log2(alpha))


class StarWitness(Record):
    __slots__ = ("center", "leaves")  # int, tuple of ints

    def to_json_obj(self) -> dict:
        return {"center": self.center, "leaves": list(self.leaves)}


class ParamReport(Record):
    """Ints psi, alpha and lower_bound (ceil(log2 psi) when psi >= 1, else
    0), and witness, a StarWitness or None."""

    __slots__ = ("psi", "alpha", "witness", "lower_bound")

    def to_json_obj(self) -> dict:
        return {
            "psi": self.psi,
            "alpha": self.alpha,
            "lower_bound": self.lower_bound,
            "witness": self.witness.to_json_obj() if self.witness else None,
        }


def neighborhood_mis(ordering: CliqueOrdering, v: int) -> tuple[int, tuple[int, ...]]:
    """Maximum independent set size within N(v), with the chosen leaves.

    N(v) is every other vertex whose range meets v's, one scan of the
    ranges.  Induced subgraphs of interval graphs are interval and
    inherit the clique ranges, so the earliest-finish greedy is exact
    here.
    """
    lv, rv = ordering.left[v], ordering.right[v]
    pool = [
        u for u, (lu, ru) in enumerate(zip(ordering.left, ordering.right))
        if lu <= rv and lv <= ru and u != v
    ]
    leaves = greedy_independent(ordering, pool)
    return len(leaves), tuple(leaves)


def vertex_claws(ordering: CliqueOrdering, best: list[int | None]) -> list[int]:
    """psi(v) for every vertex v: the most independent vertices in N(v),
    by the chain through `best`, the ordering's suffix-best table (see the
    module docstring)."""
    k, right = ordering.k, ordering.right
    after = [right[u] + 1 for u in best[:k]]
    # |C_j| by a difference array over the ranges
    change = [0] * (k + 1)
    for lv, rv in zip(ordering.left, right):
        change[lv] += 1
        change[rv + 1] -= 1
    size = list(accumulate(change))
    claws = []
    for v, (lv, rv) in enumerate(zip(ordering.left, right)):
        if lv == rv and size[lv] == 1:  # v is isolated
            claws.append(0)
            continue
        count, j = 1, lv + 1
        while j <= rv:
            count, j = count + 1, after[j]
        claws.append(count)
    return claws


def parameters(ordering: CliqueOrdering) -> tuple[int, Labelling]:
    """The claw number psi (0 for no vertices) and the labelling, from one
    suffix-best table: the claw and best builders and the search make both
    here, once each."""
    best = suffix_best(ordering)
    return max(vertex_claws(ordering, best), default=0), label_vertices(ordering, best)


def param_report(
    ordering: CliqueOrdering, graph: Graph | None = None, labelling: Labelling | None = None
) -> ParamReport:
    """psi, its witness, alpha and the lower bound, all read off the
    ordering and the labelling, which is made from the ordering when not
    given; one suffix-best table serves both.  `graph` is not read; it
    stays in the signature because the benchmark harness passes it.

    psi is the largest m with an induced star on m leaves, 0 for edgeless
    graphs.  The witness centre is the lowest-indexed vertex with the
    largest psi(v), from one `vertex_claws` pass; `neighborhood_mis` runs
    once, on that centre, for the leaves.  The builders and the search
    need no witness and read psi off `parameters`."""
    best = suffix_best(ordering)
    if labelling is None:
        labelling = label_vertices(ordering, best)
    claws = vertex_claws(ordering, best)
    psi = max(claws, default=0)
    witness = None
    if psi:
        center = claws.index(psi)
        witness = StarWitness(center=center, leaves=neighborhood_mis(ordering, center)[1])
    return ParamReport(
        psi=psi,
        alpha=labelling.alpha,
        witness=witness,
        lower_bound=ceil_log2(psi) if psi >= 1 else 0,
    )
