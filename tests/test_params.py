import pytest
from hypothesis import given, settings

from intervalcubes import (
    Graph,
    brute_alpha,
    brute_claw,
    ceil_log2,
    claw_number,
    label_vertices,
    neighborhood_mis,
    param_report,
    recognize_and_order,
)

from conftest import (
    adjacency_claw_number,
    augmented_graph,
    complete_graph,
    interval_models,
    model_pipeline,
    p3_model,
    path_graph,
    random_models,
    star_graph,
    star_model,
)


def test_ceil_log2():
    assert [ceil_log2(x) for x in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
    with pytest.raises(ValueError):
        ceil_log2(0)


def test_p3_claw():
    graph, ordering = model_pipeline(p3_model())
    psi, witness = claw_number(ordering)
    assert psi == 2
    assert witness.center == 0  # the spanning interval
    assert set(witness.leaves) == {1, 2}


def test_star_claw():
    graph, ordering = model_pipeline(star_model(4))
    psi, witness = claw_number(ordering)
    assert psi == 4
    assert witness.center == 0


def test_complete_claw_is_one():
    g = complete_graph(5)
    ordering = recognize_and_order(g)
    psi, _ = claw_number(ordering)
    assert psi == 1


def test_edgeless_claw_is_zero():
    g = Graph(3)
    ordering = recognize_and_order(g)
    psi, witness = claw_number(ordering)
    assert psi == 0 and witness is None


def test_neighborhood_mis_examples():
    graph, ordering = model_pipeline(star_model(4))
    assert neighborhood_mis(ordering, 0, ordering.by_left())[0] == 4
    assert neighborhood_mis(ordering, 1, ordering.by_left())[0] == 1
    g3, o3 = model_pipeline(p3_model())
    assert neighborhood_mis(o3, 1, o3.by_left())[0] == 1


def test_independence_number_examples():
    for model, expected in ((p3_model(), 2), (star_model(4), 4)):
        graph, ordering = model_pipeline(model)
        assert label_vertices(ordering).alpha == expected
    g = complete_graph(3)
    o = recognize_and_order(g)
    assert label_vertices(o).alpha == 1


def test_witness_is_an_induced_star():
    for model in random_models(50, range(2, 15), seed=13):
        graph, ordering = model_pipeline(model)
        psi, witness = claw_number(ordering)
        if witness is None:
            assert psi == 0
            continue
        assert len(witness.leaves) == psi
        for leaf in witness.leaves:
            assert graph.has_edge(witness.center, leaf)
        leaves = witness.leaves
        assert all(
            not graph.has_edge(a, b)
            for i, a in enumerate(leaves)
            for b in leaves[i + 1:]
        )


def test_agreement_with_brute_force():
    for model in random_models(120, range(2, 13), seed=17):
        graph, ordering = model_pipeline(model)
        lab = label_vertices(ordering)
        assert claw_number(ordering)[0] == brute_claw(graph)
        assert lab.alpha == brute_alpha(graph)


def test_param_report_fields():
    graph, ordering = model_pipeline(star_model(5))
    report = param_report(ordering, graph, label_vertices(ordering))
    assert report.psi == 5
    assert report.alpha == 5
    assert report.lower_bound == 3
    obj = report.to_json_obj()
    assert obj["witness"]["center"] == 0


def _claw_corpus():
    """(graph, ordering) pairs over both ordering routes: the endpoint sweep
    of the random models and recognition of the same graphs, plus large
    paths and stars, cliques, edgeless graphs and universal vertices."""
    cases = []
    for model in random_models(60, range(2, 60), seed=71) + random_models(9, [400], seed=73):
        graph, ordering = model_pipeline(model)
        cases.append((graph, ordering))
        if graph.n <= 60:
            cases.append((graph, recognize_and_order(graph)))
    graphs = [path_graph(n) for n in (1, 2, 3, 500)] + [star_graph(m) for m in (1, 2, 500)]
    graphs += [complete_graph(n) for n in (1, 4)] + [Graph(n) for n in (1, 5)]
    graphs += [augmented_graph(g) for g in (path_graph(9), Graph(4))]
    return cases + [(g, recognize_and_order(g)) for g in graphs]


def test_claw_number_matches_adjacency_greedy():
    for graph, ordering in _claw_corpus():
        assert claw_number(ordering) == adjacency_claw_number(ordering, graph)


@settings(max_examples=200, deadline=None)
@given(interval_models())
def test_claw_number_matches_adjacency_greedy_hypothesis(model):
    graph, ordering = model_pipeline(model)
    assert claw_number(ordering) == adjacency_claw_number(ordering, graph)
    reordered = recognize_and_order(graph)
    assert claw_number(reordered) == adjacency_claw_number(reordered, graph)
