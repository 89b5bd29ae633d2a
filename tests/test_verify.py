from fractions import Fraction

import pytest

from intervalcubes import (
    CubeRepresentation,
    build_representation,
    check_trace,
    complete_dimensions,
    verify_representation,
)
from intervalcubes.construct import ConstructionTrace

from conftest import (
    complete_graph,
    model_pipeline,
    p3_model,
    random_models,
    star_model,
)

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
    rows[b][0] = F(0)  # gap to a becomes exactly the side: no separation left
    broken = CubeRepresentation(rep.dimension, rep.side, tuple(tuple(r) for r in rows))
    report = verify_representation(graph, broken)
    assert not report.ok
    assert (a, b) in report.missing_separation
    assert report.missing_adjacency == ()


def test_verifier_flags_broken_adjacency():
    graph, ordering = model_pipeline(p3_model())
    rep, _ = build_representation(ordering)
    rows = [list(row) for row in rep.coords]
    rows[0][0] += F(100)
    broken = CubeRepresentation(rep.dimension, rep.side, tuple(tuple(r) for r in rows))
    report = verify_representation(graph, broken)
    assert report.missing_adjacency


def test_verifier_complete_graph_zero_dims():
    rep = CubeRepresentation(0, F(1), ((), (), ()))
    assert verify_representation(complete_graph(3), rep).ok


def test_verifier_rejects_vertex_mismatch():
    rep = CubeRepresentation(0, F(1), ((),))
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
    assert complete_dimensions(CubeRepresentation(0, F(1), ((),))) == []


def test_check_trace_star4():
    graph, ordering = model_pipeline(star_model(4))
    _, trace = build_representation(ordering)
    report = check_trace(trace, trace.padded.ordering, trace.labelling)
    assert report.ok
    # the center's span sits strictly inside the reach
    center_span = trace.scale[trace.padded.ordering.right[0]] - trace.scale[
        trace.padded.ordering.left[0]
    ]
    assert center_span == 3 < F(7, 2)


def test_check_trace_p3():
    graph, ordering = model_pipeline(p3_model())
    _, trace = build_representation(ordering)
    assert check_trace(trace, trace.padded.ordering, trace.labelling).ok


def test_check_trace_flags_corrupted_scale():
    graph, ordering = model_pipeline(p3_model())
    _, trace = build_representation(ordering)
    bad_scale = list(trace.scale)
    bad_scale[1] = F(-5)
    corrupted = ConstructionTrace(
        power=trace.power,
        claw=trace.claw,
        scale=tuple(bad_scale),
        codes=trace.codes,
        levels=trace.levels,
        branch=trace.branch,
        coords=trace.coords,
        padded=trace.padded,
        labelling=trace.labelling,
    )
    report = check_trace(corrupted, trace.padded.ordering, trace.labelling)
    assert not report.ok
    assert report.has("scale-not-increasing")
    assert report.has("scale-outside-cube")


def test_trace_checks_on_random_corpus():
    from intervalcubes import claw_number

    for model in random_models(40, range(3, 35), seed=43):
        graph, ordering = model_pipeline(model)
        psi, _ = claw_number(ordering)
        if psi < 2:
            continue
        _, trace = build_representation(ordering)
        assert check_trace(trace, trace.padded.ordering, trace.labelling).ok
