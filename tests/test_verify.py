import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcubes import (
    CliqueOrdering,
    CubeRepresentation,
    Graph,
    build_alpha_representation,
    build_best,
    build_representation,
    verify_representation,
)
from intervalcubes.construct import ConstructionTrace
from intervalcubes.verify import MAX_UNIT_BITS

from conftest import (
    claw_number,
    complete_graph,
    from_rows,
    make_model,
    model_pipeline,
    p3_model,
    random_models,
    representation_obj,
    representation_text,
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
    cols = [list(col) for col in rep.coords]
    cols[0][b] = 0  # gap to a becomes exactly the side: no separation left
    broken = CubeRepresentation(rep.n, rep.side, tuple(tuple(c) for c in cols), rep.unit)
    report = verify_representation(graph, broken)
    assert not report.ok
    assert (a, b) in report.missing_separation
    assert report.missing_adjacency == ()


def test_verifier_flags_broken_adjacency():
    graph, ordering = model_pipeline(p3_model())
    rep, _ = build_representation(ordering)
    cols = [list(col) for col in rep.coords]
    cols[0][0] += 100 * rep.unit
    broken = CubeRepresentation(rep.n, rep.side, tuple(tuple(c) for c in cols), rep.unit)
    report = verify_representation(graph, broken)
    assert report.missing_adjacency


def test_verifier_complete_graph_zero_dims():
    rep = from_rows([(), (), ()])
    assert verify_representation(complete_graph(3), rep).ok


def test_dimension_is_the_number_of_columns():
    assert CubeRepresentation.__slots__ == ("n", "side", "coords", "unit")
    graph, ordering = model_pipeline(star_model(4))
    for rep in (build_representation(ordering)[0], build_alpha_representation(ordering),
                from_rows([(0, 1, 2)] * 2), from_rows([()] * 3)):
        assert rep.dimension == len(rep.coords)
        assert all(len(col) == rep.n for col in rep.coords)


def test_zero_dimensions_keep_the_vertex_count():
    # no column holds n then, so the record keeps it apart
    text = '{"dimension": 0, "side": "1", "coords": [[], [], []]}'
    rep = CubeRepresentation.loads(text)
    assert (rep.n, rep.dimension, rep.coords) == (3, 0, ())
    assert rep.dumps() == representation_text({**json.loads(text), "side": 1, "unit": 1})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_written_layout_reads_back(data):
    """The one-row-per-line text is the JSON of `to_json_obj` and loads back
    as the same record, with no vertices, no dimensions, negative values,
    values of 10^15 and repeated values."""
    n, d = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 3))
    pool = data.draw(st.lists(st.sampled_from([-(10**15), -7, -1, 0, 1, 3, 10**15]), min_size=1))
    rows = [tuple(data.draw(st.sampled_from(pool)) for _ in range(d)) for _ in range(n)]
    rep = CubeRepresentation(n, data.draw(st.sampled_from([1, 2, 10**15])), tuple(zip(*rows)), 1)
    text = rep.dumps()
    assert json.loads(text) == representation_obj(rep)
    assert text == representation_text(representation_obj(rep))
    assert CubeRepresentation.loads(text) == rep


def test_zero_dimensions_verify_without_quadratic_masks():
    # every builder gives 0 dimensions when all intervals meet; a mask per
    # vertex of the earlier vertices near it took n^2/16 bytes, 56 MB here
    n = 3 * 10**4
    model = make_model([(0, 1)] * n)
    rep = CubeRepresentation(n, 1, (), 1)
    tracemalloc.start()
    try:
        report = verify_representation(model, rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 10 * 2**20


def test_verifier_rejects_vertex_mismatch():
    rep = from_rows([()])
    with pytest.raises(ValueError):
        verify_representation(complete_graph(3), rep)


def test_verifier_rejects_ragged_columns():
    # a column shorter or longer than the vertex count is refused before
    # any window is built: neither reported ok nor an IndexError
    cases = [(Graph(3), (0, 10)), (complete_graph(3), (0, 0)), (complete_graph(3), (0, 0, 0, 0))]
    for graph, column in cases:
        rep = CubeRepresentation(3, 1, (column,), 1)
        with pytest.raises(ValueError, match="every column must hold 3 coordinates"):
            verify_representation(graph, rep)
    # a model is checked alike, and a later column counts as much as the first
    rep = CubeRepresentation(3, 1, ((0, 0, 0), (0, 0)), 1)
    with pytest.raises(ValueError, match="every column must hold 3 coordinates"):
        verify_representation(make_model([(0, 1)] * 3), rep)


def test_positive_dimension_needs_coordinates():
    # with no vector to bound it, the claimed dimension alone would size
    # the verifier's per-dimension columns
    with pytest.raises(ValueError, match="dimension must be 0"):
        CubeRepresentation.loads('{"dimension": 1000000, "side": 1, "coords": []}')
    # every builder gives the empty graph dimension 0, which loads back
    empty = CliqueOrdering(0, (), ())
    for rep in (build_representation(empty)[0], build_alpha_representation(empty),
                build_best(empty)):
        assert rep.dimension == 0
        assert CubeRepresentation.loads(rep.dumps()) == rep
        assert verify_representation(Graph(0), rep).ok


@pytest.mark.parametrize("unit", [0, -1, True, 1.0, "2", 2**1100, None, [2]])
def test_a_unit_other_than_a_positive_int_of_bounded_width_is_refused(unit):
    with pytest.raises(ValueError, match="unit must be a positive integer of at most 1024 bits"):
        CubeRepresentation.from_json_obj(
            {"dimension": 1, "side": 1, "unit": unit, "coords": [[0], [1]]})


def test_a_unit_whose_grid_passes_the_bound_is_refused():
    """The unit times the lcm of the texts' denominators must fit
    MAX_UNIT_BITS, as the lcm alone must without a unit."""
    q = 2**40 + 15  # odd, 41 bits
    rows = [["1/3"], [f"1/{q}"], [0]]
    fits = CubeRepresentation.from_json_obj(
        {"dimension": 1, "side": 1, "unit": 2 ** (MAX_UNIT_BITS - 44), "coords": rows})
    assert fits.unit.bit_length() <= MAX_UNIT_BITS
    for unit in (2 ** (MAX_UNIT_BITS - 40), 2 ** (MAX_UNIT_BITS - 1)):
        obj = {"dimension": 1, "side": 1, "unit": unit, "coords": rows}
        with pytest.raises(ValueError, match="the common grid needs a unit of more than 1024"):
            CubeRepresentation.from_json_obj(obj)
    # a side's denominator counts too, with no coordinate at all
    obj = {"dimension": 0, "side": "1/3", "unit": 2 ** (MAX_UNIT_BITS - 1), "coords": [[]]}
    with pytest.raises(ValueError, match="the common grid needs a unit of more than 1024"):
        CubeRepresentation.from_json_obj(obj)


def test_representation_refuses_deeply_nested_json():
    for text in ("[" * 10**5 + "]" * 10**5, '{"dimension": 1, "side": 1, "coords": ' + "[" * 10**5):
        with pytest.raises(ValueError, match="^JSON nested too deeply$"):
            CubeRepresentation.loads(text)


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
    assert complete_dimensions(from_rows([()])) == []


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
