import random

import pytest

from intervalcubes import (
    Graph,
    NotIntervalError,
    recognize_and_order,
)
from intervalcubes import recognition
from intervalcubes.recognition import maximal_cliques_chordal

from conftest import (
    bron_kerbosch,
    complete_graph,
    cycle_graph,
    model_pipeline,
    net_graph,
    path_graph,
    random_models,
    recognition_outcome,
    star_graph,
)
from pqtree_reference import (
    consecutive_arrangement_exhaustive,
    maximal_cliques_chordal as reference_cliques,
    perfect_elimination_ordering as reference_peo,
    recognize_and_order as reference_recognize,
)
from validators import validate_ordering


def test_c4_rejected_not_chordal():
    with pytest.raises(NotIntervalError) as caught:
        recognize_and_order(cycle_graph(4))
    assert caught.value.reason == "not-chordal"


def test_c5_rejected_not_chordal():
    with pytest.raises(NotIntervalError) as caught:
        recognize_and_order(cycle_graph(5))
    assert caught.value.reason == "not-chordal"


def test_net_rejected_no_consecutive_ordering():
    # the net is chordal, so it gets its cliques, but no order of them
    # keeps every vertex's cliques consecutive
    assert set(map(frozenset, maximal_cliques_chordal(net_graph()))) == bron_kerbosch(net_graph())
    with pytest.raises(NotIntervalError) as caught:
        recognize_and_order(net_graph())
    assert caught.value.reason == "no-consecutive-ordering"


def test_non_consecutive_arrangement_rejected(monkeypatch):
    # the refinement leaves the last check of every vertex's run to the
    # pass that reads the ranges; an arrangement that fails it is refused
    graph = path_graph(4)
    cliques = list(map(frozenset, maximal_cliques_chordal(graph)))
    middle = cliques.index(frozenset({1, 2}))
    ends = [i for i in range(3) if i != middle]
    monkeypatch.setattr(recognition, "_arrange_cliques", lambda cliques, n: [*ends, middle])
    with pytest.raises(NotIntervalError) as caught:
        recognize_and_order(graph)
    assert caught.value.reason == "no-consecutive-ordering"


def test_p3_recognized():
    ordering = recognize_and_order(path_graph(3))
    assert ordering.k == 2
    assert validate_ordering(path_graph(3), ordering).ok


def test_k5_single_clique():
    ordering = recognize_and_order(complete_graph(5))
    assert ordering.k == 1


def test_star_recognized():
    g = star_graph(4)
    ordering = recognize_and_order(g)
    assert ordering.k == 4
    assert validate_ordering(g, ordering).ok


def test_empty_and_edgeless():
    assert recognize_and_order(Graph(0)).k == 0
    ordering = recognize_and_order(Graph(3))
    assert ordering.k == 3
    assert validate_ordering(Graph(3), ordering).ok


def test_disconnected_graph_recognized():
    g = Graph(6, [(0, 1), (1, 2), (3, 4)])
    ordering = recognize_and_order(g)
    assert validate_ordering(g, ordering).ok


def test_model_graphs_all_accepted_and_valid():
    for model in random_models(60, range(1, 25), seed=2):
        graph, _ = model_pipeline(model)
        ordering = recognize_and_order(graph)
        assert validate_ordering(graph, ordering).ok
        assert ordering.k <= graph.n


def test_chordal_clique_enumeration_matches_bron_kerbosch():
    for model in random_models(30, range(2, 14), seed=9):
        graph, _ = model_pipeline(model)
        cliques = maximal_cliques_chordal(graph)
        assert cliques is not None
        assert len(set(map(frozenset, cliques))) == len(cliques)
        assert set(map(frozenset, cliques)) == bron_kerbosch(graph)
        assert set(reference_cliques(graph, reference_peo(graph))) == bron_kerbosch(graph)


def random_tree(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph(n, [(i, rng.randint(0, i - 1)) for i in range(1, n)])


def test_trees_are_chordal_and_recognition_agrees_with_exhaustive():
    """Trees split into caterpillars (interval) and the rest; the clique
    arrangement must agree with exhaustive permutation search and with the
    reference recognizer either way."""
    accepted = rejected = 0
    for seed in range(60):
        g = random_tree(3 + seed % 7, seed)
        cliques = maximal_cliques_chordal(g)
        assert cliques is not None
        rows = [[i for i, c in enumerate(cliques) if v in c] for v in range(g.n)]
        if len(cliques) <= 8:
            exhaustive = consecutive_arrangement_exhaustive(rows, len(cliques))
            result = recognition_outcome(recognize_and_order, g)
            reference = recognition_outcome(reference_recognize, g)
            assert isinstance(result, str) == isinstance(reference, str)
            if isinstance(result, str):
                assert result == reference
                assert exhaustive is None
                rejected += 1
            else:
                assert exhaustive is not None
                assert validate_ordering(g, result).ok
                accepted += 1
    assert accepted and rejected


def test_rejected_graphs_have_no_arrangement_by_permutation():
    g = net_graph()
    cliques = maximal_cliques_chordal(g)
    rows = [[i for i, c in enumerate(cliques) if v in c] for v in range(g.n)]
    assert consecutive_arrangement_exhaustive(rows, len(cliques)) is None
