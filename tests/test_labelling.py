from intervalcubes import (
    CliqueOrdering,
    Labelling,
    label_vertices,
    recognize_and_order,
)

from conftest import (
    complete_graph,
    literal_labelling,
    model_pipeline,
    p3_model,
    random_models,
    star_model,
)
from validators import greedy_independent, validate_labelling


def test_p3_hand_trace():
    # center is vertex 0 in this model; leaves 1 and 2
    graph, ordering = model_pipeline(p3_model())
    lab = label_vertices(ordering)
    assert lab.levels == (0, 0, 1)
    assert lab.anchors == (1, 2)
    assert lab.alpha == 2


def test_star4_hand_trace():
    graph, ordering = model_pipeline(star_model(4))
    lab = label_vertices(ordering)
    assert lab.levels == (0, 0, 1, 2, 3)  # center, x1, x2, x3, x4
    assert lab.anchors == (1, 2, 3, 4)
    assert lab.alpha == 4


def test_complete_graph_single_level():
    g = complete_graph(6)
    ordering = recognize_and_order(g)
    lab = label_vertices(ordering)
    assert set(lab.levels) == {0}
    assert lab.anchors == (0,)


def test_empty_graph_labels_empty():
    lab = label_vertices(CliqueOrdering(0, (), ()))
    assert lab == Labelling((), ())
    assert lab.alpha == 0


def test_matches_literal_algorithm():
    for model in random_models(60, range(1, 30), seed=21):
        graph, ordering = model_pipeline(model)
        lab = label_vertices(ordering)
        levels, anchors = literal_labelling(ordering, graph)
        assert lab.levels == levels
        assert lab.anchors == anchors


def test_deterministic_and_idempotent():
    graph, ordering = model_pipeline(star_model(5))
    assert label_vertices(ordering) == label_vertices(ordering)


def test_validation_passes_on_random_corpus():
    for model in random_models(40, range(1, 25), seed=31):
        graph, ordering = model_pipeline(model)
        lab = label_vertices(ordering)
        report = validate_labelling(ordering, lab, graph)
        assert report.ok, report


def test_validation_catches_forced_level():
    graph, ordering = model_pipeline(star_model(4))
    lab = label_vertices(ordering)
    forced = list(lab.levels)
    forced[4] = 2  # collide leaf x4 with leaf x3
    broken = Labelling(levels=tuple(forced), anchors=lab.anchors)
    report = validate_labelling(ordering, broken, graph)
    assert report.has("same-level-nonadjacent")
    assert any(
        v.kind == "same-level-nonadjacent" and v.witness == (3, 4)
        for v in report.violations
    )


def test_k3_degenerate_chain():
    graph, ordering = model_pipeline(star_model(1))  # K2; also try K3 below
    g3 = complete_graph(3)
    o3 = recognize_and_order(g3)
    lab = label_vertices(o3)
    report = validate_labelling(o3, lab, g3)
    assert report.ok
    assert o3.right[lab.anchors[0]] == 0 == o3.k - 1


def test_levels_form_contiguous_range():
    for model in random_models(20, range(2, 20), seed=41):
        graph, ordering = model_pipeline(model)
        lab = label_vertices(ordering)
        assert sorted(set(lab.levels)) == list(range(lab.alpha))
        assert all(lab.levels[lab.anchors[i]] == i for i in range(lab.alpha))


def test_greedy_independent_is_maximum():
    # brute force over vertex subsets on small instances
    for model in random_models(25, range(2, 10), seed=3):
        graph, ordering = model_pipeline(model)
        chosen = greedy_independent(ordering, range(ordering.n))
        assert all(
            v not in graph.adj[u]
            for i, u in enumerate(chosen)
            for v in chosen[i + 1:]
        )
        best = 0
        for mask in range(1 << graph.n):
            members = [v for v in range(graph.n) if (mask >> v) & 1]
            if all(
                v not in graph.adj[u]
                for i, u in enumerate(members)
                for v in members[i + 1:]
            ):
                best = max(best, len(members))
        assert len(chosen) == best
