from fractions import Fraction

import pytest

from intervalcubes import (
    CubeRepresentation,
    build_representation,
    verify_representation,
)
from intervalcubes.construct import ConstructionTrace

from conftest import (
    claw_number,
    complete_graph,
    model_pipeline,
    p3_model,
    random_models,
    star_model,
)
from validators import check_trace, complete_dimensions

F = Fraction


def test_verifier_accepts_build():
    graph, ordering = model_pipeline(p3_model())
    rep, _ = build_representation(ordering)
    report = verify_representation(graph, rep)
    assert report.ok
    assert report.missing_adjacency == ()
    assert report.missing_separation == ()


def test_verifier_flags_collapsed_separation():
    graph, ordering = model_pipeline(p3_model())
    rep, _ = build_representation(ordering)
    a, b = 1, 2  # the two leaves
    rows = [list(row) for row in rep.coords]
    rows[b][0] = 0  # gap to a becomes exactly the side: no separation left
    broken = CubeRepresentation(rep.dimension, rep.side, tuple(tuple(r) for r in rows), rep.unit)
    report = verify_representation(graph, broken)
    assert not report.ok
    assert (a, b) in report.missing_separation
    assert report.missing_adjacency == ()


def test_verifier_flags_broken_adjacency():
    graph, ordering = model_pipeline(p3_model())
    rep, _ = build_representation(ordering)
    rows = [list(row) for row in rep.coords]
    rows[0][0] += 100 * rep.unit
    broken = CubeRepresentation(rep.dimension, rep.side, tuple(tuple(r) for r in rows), rep.unit)
    report = verify_representation(graph, broken)
    assert report.missing_adjacency


def test_verifier_complete_graph_zero_dims():
    rep = CubeRepresentation(0, 1, ((), (), ()), 1)
    assert verify_representation(complete_graph(3), rep).ok


def test_verifier_rejects_vertex_mismatch():
    rep = CubeRepresentation(0, 1, ((),), 1)
    with pytest.raises(ValueError):
        verify_representation(complete_graph(3), rep)


def test_dimension_stats_count_separations():
    graph, ordering = model_pipeline(p3_model())
    rep, _ = build_representation(ordering)
    report = verify_representation(graph, rep)
    # only non-adjacent pair (1,2) separates, in dimension 0 only
    assert report.dimension_stats == (1, 0, 0)


def test_complete_dimensions_p3():
    graph, ordering = model_pipeline(p3_model())
    rep, _ = build_representation(ordering)
    assert complete_dimensions(rep) == [1, 2]


def test_complete_dimensions_star4():
    graph, ordering = model_pipeline(star_model(4))
    rep, _ = build_representation(ordering)
    assert complete_dimensions(rep) == [2, 3]


def test_complete_dimensions_zero_dim():
    assert complete_dimensions(CubeRepresentation(0, 1, ((),), 1)) == []


def test_check_trace_star4():
    graph, ordering = model_pipeline(star_model(4))
    rep, trace = build_representation(ordering)
    report = check_trace(trace, ordering, rep.coords)
    assert report.ok
    # the center's span sits strictly inside the reach
    center_span = trace.scale[ordering.right[0]] - trace.scale[ordering.left[0]]
    assert F(center_span, trace.unit) == 3 < F(7, 2)


def test_check_trace_p3():
    graph, ordering = model_pipeline(p3_model())
    rep, trace = build_representation(ordering)
    assert check_trace(trace, ordering, rep.coords).ok


def test_check_trace_flags_corrupted_scale():
    graph, ordering = model_pipeline(p3_model())
    rep, trace = build_representation(ordering)
    bad_scale = list(trace.scale)
    bad_scale[1] = -5 * trace.unit
    corrupted = ConstructionTrace(
        labelling=trace.labelling,
        power=trace.power,
        scale=tuple(bad_scale),
        unit=trace.unit,
    )
    report = check_trace(corrupted, ordering, rep.coords)
    assert not report.ok
    assert report.has("scale-not-increasing")
    assert report.has("scale-outside-cube")


def test_trace_checks_on_random_corpus():
    for model in random_models(40, range(3, 35), seed=43):
        graph, ordering = model_pipeline(model)
        psi, _ = claw_number(ordering)
        if psi < 2:
            continue
        rep, trace = build_representation(ordering)
        assert check_trace(trace, ordering, rep.coords).ok
