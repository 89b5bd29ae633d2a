"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from intervalcubes import (
    GenConfig,
    Graph,
    StarWitness,
    claw_number,
    greedy_independent,
    make_model,
    model_to_clique_ordering,
    model_to_graph,
    pad_graph,
    random_interval_model,
)
from intervalcubes.generate import DISTRIBUTIONS


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(m: int) -> Graph:
    """Center 0, leaves 1..m."""
    return Graph(m + 1, [(0, i) for i in range(1, m + 1)])


def star_model(m: int):
    """Center spanning everything, leaves in left-to-right order; cliques
    come out in leaf order."""
    pairs = [(0, m)] + [(i, f"{2 * i + 1}/2") for i in range(m)]
    return make_model(pairs)


def net_graph() -> Graph:
    """Triangle with a pendant on each corner: chordal but not interval."""
    return Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])


def p3_model():
    """Center [0,2] with leaf intervals hanging off both ends."""
    return make_model([(0, 2), (0, "1/2"), ("3/2", 2)])


def bron_kerbosch(graph: Graph) -> set[frozenset[int]]:
    """Independent maximal-clique oracle."""
    cliques: set[frozenset[int]] = set()

    def expand(r: set[int], p: set[int], x: set[int]):
        if not p and not x:
            cliques.add(frozenset(r))
            return
        pivot_pool = p | x
        pivot = max(pivot_pool, key=lambda v: len(graph.adj[v] & p))
        for v in sorted(p - graph.adj[pivot]):
            expand(r | {v}, p & graph.adj[v], x & graph.adj[v])
            p = p - {v}
            x = x | {v}

    if graph.n:
        expand(set(), set(range(graph.n)), set())
    return cliques


def literal_labelling(ordering, graph):
    """The label-and-subtract loop, word for word, as a test oracle."""
    remaining = set(range(graph.n))
    levels = {}
    anchors = []
    level = 0
    while remaining:
        anchor = min(remaining, key=lambda v: (ordering.right[v], v))
        group = {anchor} | {v for v in remaining if graph.has_edge(anchor, v)}
        for v in group:
            levels[v] = level
        anchors.append(anchor)
        remaining -= group
        level += 1
    return tuple(levels[v] for v in range(graph.n)), tuple(anchors)


def random_models(count: int, n_range, seed: int = 0):
    """A deterministic spread of models across sizes and distributions."""
    sizes = list(n_range)
    out = []
    for i in range(count):
        cfg = GenConfig(
            n=sizes[i % len(sizes)],
            seed=seed * 100_000 + i,
            dist=DISTRIBUTIONS[i % len(DISTRIBUTIONS)],
        )
        out.append(random_interval_model(cfg))
    return out


@st.composite
def interval_models(draw):
    n = draw(st.integers(1, 14))
    starts = draw(st.lists(st.integers(0, 24), min_size=n, max_size=n))
    lengths = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    return make_model([(lo, lo + ln) for lo, ln in zip(starts, lengths)])


def model_pipeline(model):
    graph = model_to_graph(model)
    ordering = model_to_clique_ordering(model)
    return graph, ordering


def adjacency_claw_number(ordering, graph: Graph):
    """The claw pass over adjacency sets: the earliest-finish greedy on each
    vertex's neighbour set.  The reference for `claw_number`, which reads
    the neighbourhoods off the clique ranges instead."""
    best, witness = 0, None
    for v in range(graph.n):
        leaves = greedy_independent(ordering, graph.adj[v])
        if len(leaves) > best:
            best, witness = len(leaves), StarWitness(center=v, leaves=tuple(leaves))
    return best, witness


def pad(ordering):
    """pad_graph as the claw build calls it, with the ordering's claw number."""
    return pad_graph(ordering, claw_number(ordering)[0])


def padded_graph(graph: Graph, padded) -> Graph:
    """The graph plus the padding's pendants, built from the original graph
    rather than from the padded ordering."""
    n = graph.n
    pendants = [(padded.center, n + i) for i in range(padded.added)]
    return Graph(n + padded.added, graph.edges() + pendants)


def augmented_graph(graph: Graph) -> Graph:
    """The graph plus one universal vertex, numbered n."""
    n = graph.n
    return Graph(n + 1, graph.edges() + [(v, n) for v in range(n)])


def range_graph(ordering) -> Graph:
    """The graph an ordering describes: ranges that meet are edges."""
    n = ordering.n
    return Graph(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n) if ordering.ranges_intersect(u, v)],
    )


@pytest.fixture
def p3():
    return path_graph(3)
