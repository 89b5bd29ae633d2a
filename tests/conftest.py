"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from intervalcubes import (
    CubeRepresentation,
    GenConfig,
    Graph,
    IntervalModel,
    NotIntervalError,
    StarWitness,
    model_to_clique_ordering,
    model_to_graph,
    non_edges,
    param_report,
    random_interval_model,
)
from intervalcubes import oracle
from intervalcubes.generate import DISTRIBUTIONS

from oracle_reference import reference_supergraphs
from padding_reference import pad_graph, psi_values
from rational_reference import parse_rational
from validators import greedy_independent, ranges_intersect


def make_model(pairs) -> IntervalModel:
    """Build a model from (lo, hi) pairs of ints, strings, or Fractions."""
    return IntervalModel(
        tuple((parse_rational(lo), parse_rational(hi)) for lo, hi in pairs)
    )


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


def recognition_outcome(recognize, graph: Graph):
    """What `recognize` (the library's recognizer or a reference one) makes
    of `graph`: its clique ordering, or the reason tag of the
    NotIntervalError it raises."""
    try:
        return recognize(graph)
    except NotIntervalError as exc:
        return exc.reason


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
        group = {anchor} | {v for v in remaining if v in graph.adj[anchor]}
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


def indifference_ordering(graph: Graph) -> tuple[int, ...] | None:
    """A vertex order in which every vertex's earlier neighbors form a
    clique suffix of the prefix; exists exactly for indifference graphs.

    This is the order search cut at the first forced edge, so the first
    full order it reaches is umbrella-free for the graph itself.  The
    search places twins in index order, which loses nothing: swapping
    twins keeps an order umbrella-free, so one in that form exists
    whenever any does.  Its cost can grow with n!, so graphs above
    MAX_ORACLE_VERTICES are refused.
    """
    oracle.refuse_if_large(graph.n)
    found: list[tuple[int, ...]] = []

    def stop(order: tuple[int, ...], _) -> bool:
        found.append(order)
        return True

    # every pair gets a nonzero bit, so prune=bool cuts any forced edge
    adj = oracle._adj_masks(graph)
    pair_bit = [[1] * graph.n] * graph.n
    oracle._order_closures(adj, oracle._consecutive_twins(adj), pair_bit, bool, stop)
    return found[0] if found else None


def indifference_supergraphs(graph: Graph) -> list[list[tuple[int, int]]]:
    """The inclusion-maximal sets of input non-edges that one indifference
    supergraph can leave uncovered, as sorted pair lists."""
    oracle.refuse_if_large(graph.n)
    missing = non_edges(graph)
    candidates, _ = oracle._enumerate_candidates(graph, missing)
    return reference_supergraphs(candidates, missing)


def from_rows(rows, side: int = 1, unit: int = 1) -> CubeRepresentation:
    """The representation written as one coordinate row per vertex, as in
    its JSON form; the record keeps one column per dimension."""
    return CubeRepresentation(len(rows), side, tuple(zip(*rows)), unit)


def _rows(rep: CubeRepresentation) -> list:
    """One tuple of coordinates per vertex, empty ones at dimension 0."""
    return list(zip(*rep.coords)) if rep.coords else [()] * rep.n


def representation_obj(rep: CubeRepresentation) -> dict:
    """The representation's document as `json.loads` reads it back: the
    record's own ints, a row per vertex, and its unit; the reference for
    the text `dump` writes straight from the columns."""
    coords = [list(row) for row in _rows(rep)]
    return {"dimension": rep.dimension, "side": rep.side, "unit": rep.unit, "coords": coords}


def rational_obj(rep: CubeRepresentation) -> dict:
    """The document as earlier versions wrote it, with no `unit`: each
    value as the text `str` of its `Fraction` gives, "p" or "p/q"."""
    coords = [[str(Fraction(x, rep.unit)) for x in row] for row in _rows(rep)]
    return {"dimension": rep.dimension, "side": str(Fraction(rep.side, rep.unit)), "coords": coords}


def shifted(obj: dict, moved) -> dict:
    """The benchmark's corrupted copy of a document: the moved rows' first
    coordinate shifted past dimension 0's span by more than one side, in
    the document's own numbers, and written as `str` of its `Fraction`."""
    rows = [list(row) for row in obj["coords"]]
    xs = [Fraction(row[0]) for row in rows]
    shift = max(xs) - min(xs) + 2 * Fraction(obj["side"])
    for v in moved:
        rows[v][0] = str(xs[v] + shift)
    return {**obj, "coords": rows}


def representation_text(obj: dict) -> str:
    """The representation document `obj` in its written layout:
    `json.dumps(indent=2, sort_keys=True)`, except that each row of
    `coords` is on one line, as `json.dumps` writes it unindented."""
    rows = ",\n".join("    " + json.dumps(row) for row in obj["coords"])
    text = json.dumps({**obj, "coords": None}, indent=2, sort_keys=True)
    return text.replace('"coords": null', f'"coords": [\n{rows}\n  ]' if rows else '"coords": []')


def values(rep):
    """A representation's side and coordinate columns as the rationals they
    stand for: each int counts units of 1/rep.unit."""
    side = Fraction(rep.side, rep.unit)
    return side, [[Fraction(x, rep.unit) for x in col] for col in rep.coords]


def model_pipeline(model):
    graph = model_to_graph(model)
    ordering = model_to_clique_ordering(model)
    return graph, ordering


def claw_number(ordering):
    """The claw number psi and its witness, as `param_report` gives them."""
    report = param_report(ordering)
    return report.psi, report.witness


def adjacency_claw_number(ordering, graph: Graph):
    """The claw pass over adjacency sets: the earliest-finish greedy on each
    vertex's neighbour set.  The reference for `param_report`'s claw
    number, which reads the neighbourhoods off the clique ranges instead."""
    best, witness = 0, None
    for v in range(graph.n):
        leaves = greedy_independent(ordering, graph.adj[v])
        if len(leaves) > best:
            best, witness = len(leaves), StarWitness(center=v, leaves=tuple(leaves))
    return best, witness


def pad(ordering):
    """The reference padding as its claw build calls it, with the
    ordering's psi(v)."""
    return pad_graph(ordering, psi_values(ordering))


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
        [(u, v) for u in range(n) for v in range(u + 1, n) if ranges_intersect(ordering, u, v)],
    )


@pytest.fixture
def p3():
    return path_graph(3)


def relabelled(graph: Graph, perm) -> Graph:
    return Graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges()])


@st.composite
def relabelled_model_graphs(draw):
    model = draw(interval_models())
    graph = model_to_graph(model)
    return relabelled(graph, draw(st.permutations(range(graph.n))))


@st.composite
def chordal_graphs(draw):
    """Each new vertex joins part of a clique already there: an earlier
    vertex u and some of the neighbours u joined.  Every vertex is then
    simplicial when added, so the graph is chordal; then relabelled."""
    n = draw(st.integers(1, 30))
    joined: list[list[int]] = []
    edges = []
    for v in range(n):
        clique = []
        if v and draw(st.booleans()):
            u = draw(st.integers(0, v - 1))
            clique = [w for w in [u, *joined[u]] if draw(st.booleans())]
        joined.append(clique)
        edges += [(w, v) for w in clique]
    return relabelled(Graph(n, edges), draw(st.permutations(range(n))))


@st.composite
def dense_graphs(draw):
    n = draw(st.integers(1, 16))
    pairs = list(itertools.combinations(range(n), 2))
    missing = draw(st.sets(st.sampled_from(pairs), max_size=max(1, len(pairs) // 5))) if pairs else set()
    return Graph(n, [p for p in pairs if p not in missing])
