"""The claw pass and padding centre choice as they were before the chain
pass: the earliest-finish greedy on every vertex's neighbourhood, sorted
anew each time, O(m log n).  Kept word for word, only imports changed, as
the references for `params.claw_number` and `construct.pad_graph`."""

from __future__ import annotations

from intervalcubes.construct import PaddedGraph
from intervalcubes.intervals import CliqueOrdering
from intervalcubes.params import StarWitness, ceil_log2, neighborhood_mis


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


def pad_graph(ordering: CliqueOrdering, psi: int) -> PaddedGraph:
    """Append pendants to the last-clique vertex whose neighbourhood holds
    the most independent vertices (lowest index on ties) until the claw
    number psi is the next power of two.  Pendants touch only that center,
    so the padded claw number is known without another pass."""
    if psi < 2:
        raise ValueError("padding needs claw number at least 2")
    power = ceil_log2(psi)
    target = 1 << power
    if target == psi:
        return PaddedGraph(ordering, power, 0, None)

    n, k = ordering.n, ordering.k
    by_left = ordering.by_left()
    mis = {v: neighborhood_mis(ordering, v, by_left)[0] for v in ordering.cliques[-1]}
    center = max(sorted(mis), key=mis.__getitem__)
    added = target - mis[center]

    cliques = list(ordering.cliques) + [
        frozenset({center, n + i}) for i in range(added)
    ]
    left = list(ordering.left) + [k + i for i in range(added)]
    right = list(ordering.right) + [k + i for i in range(added)]
    right[center] = k + added - 1
    padded_ordering = CliqueOrdering(tuple(cliques), tuple(left), tuple(right))
    return PaddedGraph(padded_ordering, power, added, center)
