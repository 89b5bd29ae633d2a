"""The vertex-order oracle against the references in `oracle_reference`:
against the subset enumeration, the same maximal missing sets, the same
set cover results and the same verdict on indifference; against the
search over every vertex order, which the twin-canonical search with
seed descents replaces, the same candidates and results, and far fewer
prefixes visited."""

import random
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intervalcubes import (
    ExactResult,
    Graph,
    exact_cubicity,
    non_edges,
)
from intervalcubes import oracle

from conftest import (
    cycle_graph,
    indifference_ordering,
    indifference_supergraphs,
    model_pipeline,
    path_graph,
    random_models,
    star_graph,
)
from oracle_reference import (
    order_candidates,
    reference_candidates,
    reference_ordering,
    reference_supergraphs,
    unit_realization,
)

# the reference walks every subset of the non-edges; this keeps it fast
REFERENCE_NON_EDGES = 16
# the twin graphs go through the reference's search over every vertex
# order and a set cover, whose costs grow with the non-edges; this keeps
# the graphs drawn, and the test's run time, within the old oracle bound
TWIN_NON_EDGES = 24


def _reference_exact(graph: Graph, candidates, missing):
    """exact_cubicity's set cover run on the reference's candidate list."""
    with mock.patch.object(oracle, "_enumerate_candidates", lambda g, m: (candidates, 0)):
        return exact_cubicity(graph)


def _relabel(graph: Graph, perm) -> Graph:
    return Graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges()])


def _check_against_reference(graph: Graph, perm) -> None:
    candidates, missing = reference_candidates(graph)
    assert indifference_supergraphs(graph) == reference_supergraphs(candidates, missing)

    result = exact_cubicity(graph)
    expected = _reference_exact(graph, candidates, missing)
    assert isinstance(result, ExactResult)
    assert (result.cubicity, result.witness, result.cover_nodes) == (
        expected.cubicity,
        expected.witness,
        expected.cover_nodes,
    )
    assert exact_cubicity(_relabel(graph, perm)).cubicity == result.cubicity

    order = indifference_ordering(graph)
    assert (order is None) == (reference_ordering(graph) is None)
    if order is not None:
        assert unit_realization(graph, order) is not None


def _corpus() -> list[Graph]:
    """The oracle tests' random-model corpora, stars, paths and C4, within
    the reference's non-edge budget."""
    graphs = []
    for count, sizes, seed in ((80, range(2, 8), 59), (25, range(2, 7), 47), (20, range(2, 7), 53)):
        graphs += [model_pipeline(m)[0] for m in random_models(count, sizes, seed=seed)]
    graphs += [star_graph(m) for m in range(1, 7)] + [path_graph(n) for n in range(1, 8)]
    graphs.append(cycle_graph(4))
    return [g for g in graphs if len(non_edges(g)) <= REFERENCE_NON_EDGES]


def test_corpus_matches_reference():
    corpus = _corpus()
    assert len(corpus) > 100
    for i, graph in enumerate(corpus):
        _check_against_reference(graph, random.Random(i).sample(range(graph.n), graph.n))


@st.composite
def small_graphs(draw):
    """Arbitrary graphs, not only interval ones, on at most 7 vertices with
    at most REFERENCE_NON_EDGES non-edges, plus a relabelling."""
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.sets(
            st.sampled_from(pairs) if pairs else st.nothing(),
            min_size=max(0, len(pairs) - REFERENCE_NON_EDGES),
        )
    )
    return Graph(n, sorted(edges)), draw(st.permutations(range(n)))


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_arbitrary_graphs_match_reference(case):
    graph, perm = case
    _check_against_reference(graph, perm)


def _without_count(result) -> dict:
    obj = result.to_json_obj()
    del obj["candidates_enumerated"]
    return obj


def _check_against_order_search(graph: Graph) -> None:
    expected, missing, _ = order_candidates(graph)
    candidates, _ = oracle._enumerate_candidates(graph, missing)
    assert set(candidates) == set(expected)
    assert len(candidates) == len(expected)
    assert _without_count(exact_cubicity(graph)) == _without_count(
        _reference_exact(graph, expected, missing)
    )


def test_stars_match_order_search():
    for m in range(1, 8):
        star = star_graph(m)
        _check_against_order_search(star)
        _check_against_order_search(_relabel(star, random.Random(m).sample(range(m + 1), m + 1)))


@st.composite
def twin_graphs(draw):
    """Graphs of at most 8 vertices and TWIN_NON_EDGES non-edges,
    under a random labelling: one or two disjoint blocks, each
    an arbitrary graph, not only an interval one, in which one vertex may
    get copies with its open neighbourhood (false twins, pairwise
    non-adjacent) or its closed one (true twins, pairwise adjacent)."""
    n, edges = 0, []
    for _ in range(draw(st.integers(1, 2))):
        if n == 8:
            break
        size = draw(st.integers(1, 8 - n))
        pairs = [(n + u, n + v) for u in range(size) for v in range(u + 1, size)]
        block = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        copies = draw(st.integers(0, 8 - n - size))
        if copies:
            v = n + draw(st.integers(0, size - 1))
            closed = draw(st.booleans())
            twins = [v] + list(range(n + size, n + size + copies))
            neighbours = [u + w - v for u, w in block if v in (u, w)]
            block |= {(u, c) for u in neighbours for c in twins[1:]}
            if closed:
                block |= {(a, b) for i, a in enumerate(twins) for b in twins[i + 1:]}
            size += copies
        edges += sorted(block)
        n += size
    graph = Graph(n, edges)
    assume(len(non_edges(graph)) <= TWIN_NON_EDGES)
    return _relabel(graph, draw(st.permutations(range(n))))


@settings(max_examples=60, deadline=None)
@given(twin_graphs())
def test_twin_graphs_match_order_search(graph):
    _check_against_order_search(graph)


def test_order_search_visits_few_prefixes():
    """K_1,7's leaves are one class of false twins, and P_8 is an
    indifference graph, which a seed descent from an end vertex closes with
    no added edge; the search over every order visits 89,459 prefixes on
    K_1,7 and over 10^4 on most labellings of P_8."""
    star, path = star_graph(7), path_graph(8)
    for seed in range(5):
        rng = random.Random(seed)
        for graph, cubicity in ((star, 3), (path, 1)):
            relabelled = _relabel(graph, rng.sample(range(8), 8))
            result = exact_cubicity(relabelled)
            assert result.cubicity == cubicity
            assert result.candidates_enumerated < 100
