from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings

from intervalcubes import (
    CliqueOrdering,
    CubeRepresentation,
    Graph,
    NotIntervalError,
    bit,
    branch_codes,
    build_alpha_representation,
    build_best,
    build_degenerate,
    build_representation,
    ceil_log2,
    clique_scale,
    label_vertices,
    normalize_unit,
    recognize_and_order,
    verify_representation,
)
from intervalcubes.labelling import Labelling

from conftest import (
    adjacency_claw_number,
    claw_number,
    complete_graph,
    cycle_graph,
    from_rows,
    interval_models,
    make_model,
    model_pipeline,
    p3_model,
    pad,
    padded_graph,
    path_graph,
    random_models,
    range_graph,
    star_graph,
    star_model,
    values,
)
from padding_reference import padded_claw_build
from validators import clique_sets

F = Fraction


def test_bit_function():
    assert bit(4, 2) == 1
    assert bit(5, 1) == 0
    assert bit(0, 7) == 0
    with pytest.raises(ValueError):
        bit(-1, 0)


def test_branch_codes_small_cases():
    assert branch_codes(Labelling((0,), (0,)), 2) == (2,)
    assert branch_codes(Labelling((1,), (0,)), 2) == (3,)
    assert branch_codes(Labelling((5,), (0,)), 4) == (9,)  # block 1 is odd
    with pytest.raises(ValueError):
        branch_codes(Labelling((0,), (0,)), 3)


def test_branch_codes_low_bits_copy_level():
    levels = tuple(range(12))
    codes = branch_codes(Labelling(levels, tuple(range(12))), 4)
    for lvl, code in zip(levels, codes):
        assert 4 <= code < 12
        for i in range(2):  # p = 2
            assert bit(code, i) == bit(lvl, i)


# The padding of the paper's route, kept in tests/padding_reference.py as
# the reference the builders are compared against.


def test_pad_star3_becomes_star4():
    graph, ordering = model_pipeline(star_model(3))
    padded = pad(ordering)
    assert padded.added == 1
    assert padded.power == 2
    assert padded.ordering.n == 5
    # the pendant hangs off the center (the only vertex in the last clique
    # with a 3-leaf star)
    assert padded.center == 0
    assert clique_sets(padded.ordering)[-1] == frozenset({0, 4})
    psi, _ = adjacency_claw_number(padded.ordering, padded_graph(graph, padded))
    assert psi == 4


def test_pad_skips_power_of_two():
    graph, ordering = model_pipeline(p3_model())
    padded = pad(ordering)
    assert padded.added == 0
    assert padded.center is None
    assert padded.ordering is ordering


def test_pad_claw5_adds_three():
    graph, ordering = model_pipeline(star_model(5))
    padded = pad(ordering)
    assert padded.added == 3
    psi, _ = adjacency_claw_number(padded.ordering, padded_graph(graph, padded))
    assert psi == 8


def test_pad_center_ties_go_to_lowest_index():
    # vertices 0 and 1 both span the line and see the same three leaves
    model = make_model([(0, 10), (0, 10), (1, 1), (3, 3), (5, 5)])
    graph, ordering = model_pipeline(model)
    assert clique_sets(ordering)[-1] == frozenset({0, 1, 4})
    padded = pad(ordering)
    assert (padded.center, padded.added) == (0, 1)


def assert_cliques_not_nested(ordering):
    assert not any(a <= b for a, b in permutations(clique_sets(ordering), 2))


def test_pad_center_alone_in_last_clique():
    # psi = 3 and the center, 8, is the isolated [3, 3]: the first pendant
    # clique replaces {8} rather than following it, and so contains it
    model = make_model([(0, 0)] * 5 + [(1, 1), (0, 2), (2, 2), (3, 3)])
    graph, ordering = model_pipeline(model)
    assert clique_sets(ordering)[-1] == frozenset({8})
    padded = pad(ordering)
    assert (padded.center, padded.added) == (8, 4)
    assert clique_sets(padded.ordering)[ordering.k - 1 :] == tuple(
        frozenset({8, 9 + i}) for i in range(4)
    )
    assert (padded.ordering.left[8], padded.ordering.right[8]) == (3, 6)
    assert_cliques_not_nested(padded.ordering)
    psi, _ = adjacency_claw_number(padded.ordering, padded_graph(graph, padded))
    assert psi == 4
    rep, _ = build_representation(ordering)
    assert rep.dimension == 4
    assert verify_representation(graph, rep).ok


@settings(max_examples=200, deadline=None)
@given(interval_models())
def test_padded_cliques_stay_maximal(model):
    graph, ordering = model_pipeline(model)
    for start in (ordering, recognize_and_order(graph)):
        if claw_number(start)[0] >= 2:
            assert_cliques_not_nested(pad(start).ordering)


def test_pad_rejects_degenerate():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        pad(recognize_and_order(g))


def test_scale_star4():
    graph, ordering = model_pipeline(star_model(4))
    lab = label_vertices(ordering)
    assert clique_scale(ordering, lab) == ((0, 2, 4, 6), 2)  # 0, 1, 2, 3


def test_scale_p3():
    graph, ordering = model_pipeline(p3_model())
    lab = label_vertices(ordering)
    assert clique_scale(ordering, lab) == ((0, 2), 2)  # 0, 1


def test_scale_complete():
    g = complete_graph(4)
    o = recognize_and_order(g)
    assert clique_scale(o, label_vertices(o)) == ((0,), 2)


def test_scale_interpolates_between_anchors():
    # two anchors with three cliques between their right ends
    model_pairs = [(0, 10), (0, 1), (2, 3), (4, 5), (6, 7), (8, 10), (9, 10)]
    model = make_model(model_pairs)
    graph, ordering = model_pipeline(model)
    lab = label_vertices(ordering)
    scale, unit = clique_scale(ordering, lab)
    assert all(scale[j] < scale[j + 1] for j in range(len(scale) - 1))
    rights = [ordering.right[u] for u in lab.anchors]
    for i, r in enumerate(rights):
        assert scale[r] == i * unit
    for i, (a, b) in enumerate(zip(rights, rights[1:])):
        for j in range(a + 1, b):
            assert i + F(1, 2) < F(scale[j], unit) < i + 1


def test_p3_build_exact_coordinates():
    """Frozen hand evaluation: vertices (a=leaf, c=center, b=leaf)."""
    graph, ordering = model_pipeline(p3_model())  # 0=center, 1=a-leaf, 2=b-leaf
    rep, trace = build_representation(ordering)
    assert rep.dimension == 3
    side, coords = values(rep)
    assert side == F(3, 2)
    a, c, b = 1, 0, 2
    assert [coords[0][v] for v in (a, c, b)] == [F(-3, 2), F(-1, 2), F(1)]
    assert [coords[1][v] for v in (a, c, b)] == [F(0), F(0), F(1)]
    assert [coords[2][v] for v in (a, c, b)] == [F(-3, 2), F(-1, 2), F(-1, 2)]
    assert verify_representation(graph, rep).ok
    assert trace.claw == 2 and trace.power == 1


def test_star4_build_exact_coordinates():
    graph, ordering = model_pipeline(star_model(4))  # 0=center, 1..4=leaves
    rep, trace = build_representation(ordering)
    assert rep.dimension == 4
    side, coords = values(rep)
    assert side == F(7, 2)
    x1, c, x2, x3, x4 = 1, 0, 2, 3, 4
    assert [coords[0][v] for v in (x1, c, x2, x3, x4)] == [
        F(-7, 2),
        F(-1, 2),
        F(1),
        F(-3, 2),
        F(3),
    ]
    # non-adjacent leaf pairs all separate within dimensions 0-1
    for u, v in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
        assert any(
            abs(rep.coords[i][u] - rep.coords[i][v]) > rep.side for i in (0, 1)
        )
    assert verify_representation(graph, rep).ok


def test_build_dimension_formula():
    for model in random_models(40, range(3, 40), seed=23):
        graph, ordering = model_pipeline(model)
        psi, _ = claw_number(ordering)
        if psi < 2:
            continue
        rep, trace = build_representation(ordering)
        assert rep.dimension == ceil_log2(psi) + 2
        assert rep.unit == trace.unit
        assert values(rep)[0] == trace.claw - F(1, 2)
        assert verify_representation(graph, rep).ok


def test_build_routes_complete_to_degenerate():
    rep, trace = build_representation(recognize_and_order(complete_graph(3)))
    assert trace is None
    assert rep.dimension == 0
    assert verify_representation(complete_graph(3), rep).ok


def test_build_rejects_non_interval():
    with pytest.raises(NotIntervalError):
        build_representation(recognize_and_order(cycle_graph(4)))


def test_degenerate_complete():
    rep = build_degenerate(recognize_and_order(complete_graph(5)))
    assert rep.dimension == 0 and rep.n == 5
    assert rep.coords == ()
    assert verify_representation(complete_graph(5), rep).ok


def test_degenerate_two_triangles():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    rep = build_degenerate(recognize_and_order(g))
    assert rep.dimension == 1
    assert rep.unit == 1
    assert set(rep.coords[0]) == {0, 2}
    assert verify_representation(g, rep).ok


def test_degenerate_edgeless():
    g = Graph(3)
    rep = build_degenerate(recognize_and_order(g))
    assert rep.coords == ((0, 2, 4),)
    assert verify_representation(g, rep).ok


def test_degenerate_ranks_cliques_by_smallest_member():
    # C_0 = {1, 4}, C_1 = {2}, C_2 = {0, 3}: ranked by their smallest
    # members the cliques run C_2, C_0, C_1, whatever their indices
    ordering = CliqueOrdering(3, (2, 0, 1, 2, 0), (2, 0, 1, 2, 0))
    rep = build_degenerate(ordering)
    assert rep.coords == ((0, 2, 4, 0, 2),)
    assert verify_representation(range_graph(ordering), rep).ok


def test_degenerate_rejects_p3():
    with pytest.raises(ValueError):
        build_degenerate(recognize_and_order(path_graph(3)))


def test_alpha_variant_p3():
    g = path_graph(3)
    rep = build_alpha_representation(recognize_and_order(g))
    assert rep.dimension == 1
    assert verify_representation(g, rep).ok
    # the surviving dimension separates the two leaves
    assert abs(rep.coords[0][0] - rep.coords[0][2]) > rep.side


def test_alpha_variant_star4():
    g = star_graph(4)
    rep = build_alpha_representation(recognize_and_order(g))
    assert rep.dimension == 2
    assert verify_representation(g, rep).ok


def test_alpha_variant_complete():
    rep = build_alpha_representation(recognize_and_order(complete_graph(4)))
    assert rep.dimension == 0


def test_alpha_variant_dimension_formula():
    for model in random_models(40, range(2, 40), seed=29):
        graph, ordering = model_pipeline(model)
        lab = label_vertices(ordering)
        rep = build_alpha_representation(ordering)
        expected = 0 if lab.alpha == 1 else ceil_log2(lab.alpha)
        assert rep.dimension == expected
        assert verify_representation(graph, rep).ok


def test_build_best_examples():
    assert build_best(recognize_and_order(star_graph(4))).dimension == 2
    assert build_best(recognize_and_order(path_graph(3))).dimension == 1
    p7 = path_graph(7)  # claw 2, independence 4
    rep = build_best(recognize_and_order(p7))
    assert rep.dimension == 2
    assert verify_representation(p7, rep).ok


def test_build_best_formula():
    for model in random_models(30, range(3, 30), seed=37):
        graph, ordering = model_pipeline(model)
        psi, _ = claw_number(ordering)
        if psi < 2:
            continue
        alpha = label_vertices(ordering).alpha
        rep = build_best(ordering)
        assert rep.dimension == min(ceil_log2(psi) + 2, ceil_log2(alpha))
        assert verify_representation(graph, rep).ok


def test_normalize_unit_p3():
    graph, ordering = model_pipeline(p3_model())
    rep, _ = build_representation(ordering)
    unit = normalize_unit(rep)
    side, coords = values(unit)
    assert side == 1
    assert unit.coords == rep.coords
    a, c, b = 1, 0, 2
    assert [coords[0][v] for v in (a, c, b)] == [F(-1), F(-1, 3), F(2, 3)]
    assert verify_representation(graph, unit).ok


def test_normalize_identity_cases():
    rep = from_rows([(), ()])
    assert normalize_unit(rep) is rep
    unit = from_rows([(0,), (2,)])
    assert normalize_unit(unit) is unit


def test_representation_json_round_trip():
    graph, ordering = model_pipeline(star_model(4))
    rep, _ = build_representation(ordering)
    again = CubeRepresentation.loads(rep.dumps())
    assert again == rep


def test_padding_restriction_is_sound():
    """Coordinates the reference restricts from the padded graph must
    verify against the original, whatever the padding added; the build on
    the star itself reaches the same dimension."""
    for m in (3, 5, 6, 7):
        g = star_graph(m)
        ordering = recognize_and_order(g)
        rep, trace = padded_claw_build(ordering)
        assert trace.padded.added == (1 << trace.power) - m
        assert verify_representation(g, rep).ok
        assert build_representation(ordering)[0].dimension == rep.dimension
