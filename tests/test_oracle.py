import pytest

from intervalcubes import (
    ExactResult,
    Exceeded,
    Graph,
    SizeRefusalError,
    build_best,
    ceil_log2,
    exact_cubicity,
    label_vertices,
    non_edges,
)

from conftest import (
    claw_number,
    complete_graph,
    cycle_graph,
    indifference_ordering,
    indifference_supergraphs,
    model_pipeline,
    path_graph,
    random_models,
    star_graph,
)
from oracle_reference import brute_alpha, brute_claw, unit_realization


def test_brute_claw_examples():
    assert brute_claw(path_graph(3)) == 2
    assert brute_claw(complete_graph(4)) == 1
    assert brute_claw(star_graph(4)) == 4
    assert brute_claw(Graph(3)) == 0


def test_brute_alpha_examples():
    assert brute_alpha(path_graph(3)) == 2
    assert brute_alpha(complete_graph(3)) == 1
    assert brute_alpha(star_graph(4)) == 4
    assert brute_alpha(cycle_graph(5)) == 2
    assert brute_alpha(Graph(4)) == 4


def test_indifference_ordering_examples():
    assert indifference_ordering(path_graph(4)) is not None
    assert indifference_ordering(complete_graph(5)) is not None
    assert indifference_ordering(star_graph(3)) is None  # the claw itself
    assert indifference_ordering(cycle_graph(4)) is None


def test_unit_realization_examples():
    for g in (path_graph(4), complete_graph(4), Graph(4, [(0, 1), (2, 3)])):
        order = indifference_ordering(g)
        values = unit_realization(g, order)
        assert values is not None
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert (v in g.adj[u]) == (abs(values[u] - values[v]) <= 1)


def test_every_candidate_supergraph_has_a_unit_realization():
    """The realization check is independent of the ordering characterization:
    each accepted supergraph must embed on the line with threshold 1."""
    for model in random_models(25, range(2, 7), seed=47):
        graph, _ = model_pipeline(model)
        missing = non_edges(graph)
        for kept in indifference_supergraphs(graph):
            added = [p for p in missing if p not in kept]
            edges = graph.edges() + added
            h = Graph(graph.n, edges)
            order = indifference_ordering(h)
            assert order is not None
            values = unit_realization(h, order)
            assert values is not None
            for u in range(h.n):
                for v in range(u + 1, h.n):
                    assert (v in h.adj[u]) == (abs(values[u] - values[v]) <= 1)


def test_supergraphs_complete_graph():
    assert indifference_supergraphs(complete_graph(4)) == [[]]


def test_supergraphs_p3():
    assert indifference_supergraphs(path_graph(3)) == [[(0, 2)]]


def test_supergraphs_c4_needs_two():
    sets = indifference_supergraphs(cycle_graph(4))
    assert sorted(map(tuple, sets)) == [((0, 2),), ((1, 3),)]


def test_supergraph_union_covers_all_non_edges():
    for model in random_models(20, range(2, 7), seed=53):
        graph, _ = model_pipeline(model)
        union = set()
        for kept in indifference_supergraphs(graph):
            union.update(kept)
        assert union == set(non_edges(graph))


def test_exact_cubicity_stars():
    for m, expected in ((2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (7, 3)):
        result = exact_cubicity(star_graph(m))
        assert isinstance(result, ExactResult)
        assert result.cubicity == expected == ceil_log2(m)
    # K_{1,7} has 21 non-edges and 8! vertex orders; its seven leaves are
    # one twin class, so the search places them in index order
    assert result.candidates_enumerated < 100


def test_exact_cubicity_examples():
    assert exact_cubicity(path_graph(3)).cubicity == 1
    assert exact_cubicity(complete_graph(4)).cubicity == 0
    assert exact_cubicity(cycle_graph(4)).cubicity == 2


def test_exact_witness_covers_non_edges():
    result = exact_cubicity(cycle_graph(4))
    covered = set()
    for member in result.witness:
        covered.update(member)
    assert covered == set(non_edges(cycle_graph(4)))


def test_exceeded_result():
    result = exact_cubicity(star_graph(5), b_max=2)
    assert isinstance(result, Exceeded)
    assert result.b_max == 2


def _clique_plus_claw(k: int) -> Graph:
    """K_k beside a disjoint claw: only the claw blocks every order."""
    clique = [(u, v) for u in range(k) for v in range(u + 1, k)]
    return Graph(k + 4, clique + [(k, k + 1), (k, k + 2), (k, k + 3)])


def test_indifference_ordering_size_refusal(monkeypatch):
    from intervalcubes import oracle

    assert indifference_ordering(_clique_plus_claw(4)) is None  # 8 vertices

    def no_search(*args):
        raise AssertionError("searched before checking the size")

    monkeypatch.setattr(oracle, "_order_closures", no_search)
    with pytest.raises(SizeRefusalError):
        indifference_ordering(_clique_plus_claw(5))


def test_size_refusal():
    with pytest.raises(SizeRefusalError):
        exact_cubicity(Graph(9))
    # the one bound is the vertex count: 28 non-edges on 8 vertices pass
    assert exact_cubicity(Graph(8)).cubicity == 1
    with pytest.raises(SizeRefusalError):
        indifference_supergraphs(Graph(9))


def test_sandwich_property_small_corpus():
    for model in random_models(80, range(2, 8), seed=59):
        graph, ordering = model_pipeline(model)
        psi, _ = claw_number(ordering)
        alpha = label_vertices(ordering).alpha
        best = build_best(ordering)
        result = exact_cubicity(graph, b_max=max(1, best.dimension))
        assert isinstance(result, ExactResult)
        cub = result.cubicity
        assert cub <= best.dimension
        if psi >= 1:
            assert ceil_log2(psi) <= cub
        if psi >= 2:
            assert cub <= min(ceil_log2(psi) + 2, ceil_log2(alpha))
        if alpha == 1:
            assert cub == 0


def test_oracle_agrees_with_ordering_params():
    for model in random_models(60, range(2, 13), seed=61):
        graph, ordering = model_pipeline(model)
        assert brute_claw(graph) == claw_number(ordering)[0]
        assert brute_alpha(graph) == label_vertices(ordering).alpha
