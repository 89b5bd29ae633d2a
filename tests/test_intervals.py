from fractions import Fraction

import pytest

from intervalcubes import (
    CliqueOrdering,
    IntervalModel,
    greedy_independent,
    model_to_clique_ordering,
    model_to_graph,
)

from conftest import bron_kerbosch, make_model, model_pipeline, p3_model, random_models, star_model
from validators import validate_ordering


def test_model_rejects_inverted_interval():
    with pytest.raises(ValueError):
        make_model([(1, 0)])


def test_model_to_graph_overlap():
    model = make_model([(0, 2), (0, "1/2"), ("3/2", 2)])
    g = model_to_graph(model)
    assert g.edges() == [(0, 1), (0, 2)]


def test_model_to_graph_closed_touch():
    g = model_to_graph(make_model([(0, 1), (1, 2)]))
    assert g.edges() == [(0, 1)]


def test_model_to_graph_disjoint():
    g = model_to_graph(make_model([(0, 1), (2, 3)]))
    assert g.edges() == []


def test_p3_model_sweep():
    ordering = model_to_clique_ordering(p3_model())
    assert ordering.cliques == (frozenset({0, 1}), frozenset({0, 2}))
    assert ordering.left[0] == 0 and ordering.right[0] == 1


def test_nested_single_clique():
    ordering = model_to_clique_ordering(make_model([(0, 3), (1, 2)]))
    assert ordering.cliques == (frozenset({0, 1}),)


def test_star_model_sweep():
    ordering = model_to_clique_ordering(star_model(4))
    assert ordering.k == 4
    assert ordering.cliques == tuple(frozenset({0, i}) for i in range(1, 5))


def test_sweep_matches_bron_kerbosch():
    for model in random_models(40, range(2, 15), seed=11):
        graph, ordering = model_pipeline(model)
        assert set(ordering.cliques) == bron_kerbosch(graph)


def test_sweep_ordering_validates():
    for model in random_models(40, range(1, 20), seed=5):
        graph, ordering = model_pipeline(model)
        report = validate_ordering(graph, ordering)
        assert report.ok, report
        assert ordering.k <= graph.n


def test_validate_flags_swapped_cliques():
    model = p3_model()
    graph, ordering = model_pipeline(model)
    broken = CliqueOrdering(
        cliques=(ordering.cliques[1], ordering.cliques[0]),
        left=ordering.left,
        right=ordering.right,
    )
    report = validate_ordering(graph, broken)
    assert report.has("not-consecutive")


def test_validate_flags_subset_clique():
    model = p3_model()
    graph, _ = model_pipeline(model)
    broken = CliqueOrdering(
        cliques=(frozenset({1}), frozenset({0, 1}), frozenset({0, 2})),
        left=(1, 0, 2),
        right=(2, 1, 2),
    )
    report = validate_ordering(graph, broken)
    assert report.has("not-maximal")
    assert report.has("clique-subset")


def test_validate_accepts_correct_p3():
    graph, ordering = model_pipeline(p3_model())
    assert validate_ordering(graph, ordering).ok


def test_model_json_round_trip():
    model = make_model([(0, "5/2"), ("-3/2", "7/3"), ("0.25", 1)])
    text = model.dumps()
    again = IntervalModel.loads(text)
    assert again == model
    assert again.intervals[2][0] == Fraction(1, 4)


def test_model_json_rejects_bad_ids():
    with pytest.raises(ValueError):
        IntervalModel.loads('{"intervals": [{"id": 1, "lo": "0", "hi": "1"}]}')


def test_greedy_independent_is_maximum():
    # brute force over vertex subsets on small instances
    for model in random_models(25, range(2, 10), seed=3):
        graph, ordering = model_pipeline(model)
        chosen = greedy_independent(ordering)
        assert all(
            not graph.has_edge(u, v)
            for i, u in enumerate(chosen)
            for v in chosen[i + 1:]
        )
        best = 0
        for mask in range(1 << graph.n):
            members = [v for v in range(graph.n) if (mask >> v) & 1]
            if all(
                not graph.has_edge(u, v)
                for i, u in enumerate(members)
                for v in members[i + 1:]
            ):
                best = max(best, len(members))
        assert len(chosen) == best
