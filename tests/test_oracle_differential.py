"""The vertex-order oracle against the subset-enumeration reference in
`oracle_reference`: the same maximal missing sets, the same set cover
results, and the same verdict on indifference."""

import random
from unittest import mock

from hypothesis import given, settings
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
    reference_candidates,
    reference_ordering,
    reference_supergraphs,
    unit_realization,
)

# the reference walks every subset of the non-edges; this keeps it fast
REFERENCE_NON_EDGES = 16


def _reference_exact(graph: Graph, candidates, missing):
    """exact_cubicity's set cover run on the reference's candidate list."""
    with mock.patch.object(oracle, "_enumerate_candidates", lambda g: (candidates, missing, 0)):
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
