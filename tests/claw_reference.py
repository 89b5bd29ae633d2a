"""The claw pass and padding centre choice as they were before the chain
pass: the earliest-finish greedy on every vertex's neighbourhood, sorted
anew each time, O(m log n).  Kept as the references for the claw number
of `params.param_report`, for `params.neighborhood_mis` and for the
chain-pass centre of `padding_reference.pad_graph`; they read the cliques
as sets, derived from the ranges by `validators.clique_sets`, where the
library reads the ranges alone."""

from __future__ import annotations

from intervalcubes.intervals import CliqueOrdering, greedy_independent
from intervalcubes.params import StarWitness, ceil_log2

from padding_reference import PaddedGraph
from validators import clique_sets


def neighborhood_mis(ordering: CliqueOrdering, v: int, by_left, cliques):
    """Maximum independent set size within N(v), with the chosen leaves.

    N(v) with v is C_{left v} plus every vertex whose range starts in
    (left v, right v]; `by_left` is `ordering.by_left()` and `cliques` is
    `clique_sets(ordering)`."""
    left, right = ordering.left[v], ordering.right[v]
    pool = [u for u in cliques[left] if u != v]
    for j in range(left + 1, right + 1):
        pool.extend(by_left[j])
    leaves = greedy_independent(ordering, pool)
    return len(leaves), tuple(leaves)


def claw_number(ordering: CliqueOrdering) -> tuple[int, StarWitness | None]:
    """Largest m with an induced star on m leaves; 0 for edgeless graphs."""
    by_left, cliques = ordering.by_left(), clique_sets(ordering)
    best = 0
    witness: StarWitness | None = None
    for v in range(ordering.n):
        m, leaves = neighborhood_mis(ordering, v, by_left, cliques)
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
    by_left, cliques = ordering.by_left(), clique_sets(ordering)
    mis = {v: neighborhood_mis(ordering, v, by_left, cliques)[0] for v in cliques[-1]}
    center = max(sorted(mis), key=mis.__getitem__)
    added = target - mis[center]

    # a center alone in the last clique is isolated: the first pendant
    # clique takes that clique's place, which {center} alone would not
    # survive as a maximal clique
    first = k - 1 if len(cliques[-1]) == 1 else k
    left = list(ordering.left) + [first + i for i in range(added)]
    right = list(ordering.right) + [first + i for i in range(added)]
    right[center] = first + added - 1
    padded_ordering = CliqueOrdering(first + added, tuple(left), tuple(right))
    return PaddedGraph(padded_ordering, power, added, center)
