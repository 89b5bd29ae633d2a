import pytest
from hypothesis import given, settings

from intervalcubes import (
    Graph,
    StarWitness,
    ceil_log2,
    label_vertices,
    param_report,
    recognize_and_order,
    serialize_graph,
)
from intervalcubes.labelling import earliest_finish, suffix_best
from intervalcubes.params import vertex_claws

from conftest import (
    adjacency_claw_number,
    augmented_graph,
    claw_number,
    complete_graph,
    interval_models,
    make_model,
    model_pipeline,
    p3_model,
    pad,
    path_graph,
    random_models,
    star_graph,
    star_model,
)
import claw_reference
from oracle_reference import brute_alpha, brute_claw
from padding_reference import augment_with_universal, pad_graph
from validators import clique_sets, greedy_independent


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


def test_witness_examples():
    """The leaves are the greedy's picks in N(centre), in order.  In the
    last model the chain's step after [2, 3] lands on [11, 12], which ends
    first but lies outside N([0, 10]), where the greedy picks [9, 30]."""
    cases = (
        (star_model(4), (1, 2, 3, 4)),
        (p3_model(), (1, 2)),
        (make_model([(0, 10), (0, 1), (2, 3), (9, 30), (11, 12), (13, 30)]), (1, 2, 3)),
    )
    for model, leaves in cases:
        witness = param_report(model_pipeline(model)[1]).witness
        assert witness == StarWitness(center=0, leaves=leaves)


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
            assert leaf in graph.adj[witness.center]
        leaves = witness.leaves
        assert all(
            b not in graph.adj[a]
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


def test_params_command_makes_one_suffix_best_table(monkeypatch, tmp_path, capsys):
    """`params` reads psi, its witness and alpha off one suffix-best table,
    on a model and on an edge list."""
    from intervalcubes import cli, labelling, params

    seen, table = [], labelling.suffix_best

    def counting(ordering):
        seen.append(ordering)
        return table(ordering)

    monkeypatch.setattr(params, "suffix_best", counting)
    monkeypatch.setattr(labelling, "suffix_best", counting)
    for i, model in enumerate(random_models(6, range(2, 30), seed=41)):
        graph = model_pipeline(model)[0]
        for name, text in (("model", model.dumps()), ("graph", serialize_graph(graph))):
            path = tmp_path / f"{name}{i}.txt"
            path.write_text(text)
            seen.clear()
            assert cli.main(["params", str(path)]) == 0
            assert len(seen) == 1
    capsys.readouterr()


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


def _psi_orderings(ordering):
    """The ordering, the same with a universal vertex, and the padded
    ordering the reference claw build makes of it: every form the psi pass
    meets on the paper's route."""
    out = [ordering]
    if ordering.n:
        out.append(augment_with_universal(ordering))
    if claw_number(ordering)[0] >= 2:
        out.append(pad(ordering).ordering)
    return out


def _psi_cases():
    """Each ordering of `_claw_corpus` and the empty one, in every form
    `_psi_orderings` gives."""
    orderings = [ordering for _, ordering in _claw_corpus()]
    orderings.append(recognize_and_order(Graph(0)))
    return [form for ordering in orderings for form in _psi_orderings(ordering)]


def psi_pass(ordering):
    return vertex_claws(ordering, suffix_best(ordering))


def _check_psi_pass(ordering):
    """The chain pass against the greedy on each neighbourhood listed from
    its cliques, the witness walk over each vertex's later cliques against
    the sorted greedy on the ranges starting there, and the claw number,
    its witness and the padding against their per-vertex-greedy
    references."""
    by_left, cliques = ordering.by_left(), clique_sets(ordering)
    expected = [
        claw_reference.neighborhood_mis(ordering, v, by_left, cliques)[0]
        for v in range(ordering.n)
    ]
    assert psi_pass(ordering) == expected
    best = suffix_best(ordering)
    for lv, rv in zip(ordering.left, ordering.right):
        starts = [u for j in range(lv + 1, rv + 1) for u in by_left[j]]
        assert earliest_finish(ordering, best, lv + 1, rv) == greedy_independent(ordering, starts)
    assert claw_number(ordering) == claw_reference.claw_number(ordering)
    psi = max(expected, default=0)
    if psi >= 2:
        assert pad_graph(ordering, expected) == claw_reference.pad_graph(ordering, psi)


def test_psi_pass_matches_neighborhood_greedy():
    for ordering in _psi_cases():
        _check_psi_pass(ordering)


def test_psi_pass_small_families():
    # paths, stars, one clique, edgeless graphs and no vertices at all
    graphs = [path_graph(n) for n in range(0, 12)] + [star_graph(m) for m in range(1, 12)]
    graphs += [complete_graph(n) for n in (1, 2, 6)] + [Graph(n) for n in (0, 1, 2, 7)]
    for graph in graphs:
        for ordering in _psi_orderings(recognize_and_order(graph)):
            _check_psi_pass(ordering)
    assert psi_pass(recognize_and_order(path_graph(5))) == [1, 2, 2, 2, 1]
    assert psi_pass(recognize_and_order(star_graph(6))) == [6] + [1] * 6
    assert psi_pass(recognize_and_order(complete_graph(4))) == [1] * 4
    assert psi_pass(recognize_and_order(Graph(3))) == [0] * 3
    assert psi_pass(recognize_and_order(Graph(0))) == []


@settings(max_examples=200, deadline=None)
@given(interval_models())
def test_psi_pass_matches_neighborhood_greedy_hypothesis(model):
    graph, ordering = model_pipeline(model)
    for start in (ordering, recognize_and_order(graph)):
        for form in _psi_orderings(start):
            _check_psi_pass(form)
