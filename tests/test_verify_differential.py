"""The sweeps that build and check graphs against their all-pairs
references in `verify_reference`: equal graphs, equal verification
reports, and the same sanity verdicts, on built, corrupted and arbitrary
inputs.  Verification against an interval model, which never lists the
model's edges, is checked against verification of the model's graph."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcubes import (
    CubeRepresentation,
    Graph,
    build_alpha_representation,
    build_best,
    build_representation,
    model_to_clique_ordering,
    model_to_graph,
    normalize_unit,
    ordering_from_cliques,
    verify_representation,
)
from intervalcubes import verify
from intervalcubes.recognition import ConstructionError, _check_ordering_sanity

from conftest import (
    cycle_graph,
    interval_models,
    make_model,
    model_pipeline,
    path_graph,
    random_models,
    star_model,
)
from verify_reference import (
    check_ordering_sanity_pairwise,
    model_to_graph_pairwise,
    verify_pairwise,
)


def assert_same_report(graph, rep):
    report = verify_representation(graph, rep)
    assert report == verify_pairwise(graph, rep)
    return report


@st.composite
def endpoint_models(draw):
    """Models on a coarse half-integer grid, so shared endpoints, nested
    and point intervals are common."""
    n = draw(st.integers(0, 16))
    pairs = []
    for _ in range(n):
        lo = draw(st.integers(-6, 12))
        pairs.append((Fraction(lo, 2), Fraction(lo + draw(st.integers(0, 6)), 2)))
    return make_model(pairs)


def assert_model_report(model, rep):
    report = verify_representation(model, rep)
    assert report == verify_representation(model_to_graph(model), rep)
    return report


def built_representations(model):
    """Every builder's output on the model's sweep ordering, as built and
    normalized."""
    ordering = model_to_clique_ordering(model)
    built = [
        build_best(ordering),
        build_representation(ordering)[0],
        build_alpha_representation(ordering),
    ]
    return built + [normalize_unit(rep) for rep in built]


def moved(rep, draws):
    """A copy of `rep` with each (vertex, dimension, shift) of `draws`
    applied to its coordinates."""
    rows = [list(row) for row in rep.coords]
    for v, i, shift in draws:
        rows[v][i] += shift
    return CubeRepresentation(rep.dimension, rep.side, tuple(map(tuple, rows)), rep.unit)


@st.composite
def moves(draw, rep):
    """One to four random vertices moved in a random dimension, by a near
    shift (around the side) or a far one (past every coordinate)."""
    rows = rep.coords
    span = max(max(row) for row in rows) - min(min(row) for row in rows)
    near = st.integers(-2 * rep.side - 1, 2 * rep.side + 1)
    far = st.sampled_from([span + rep.side + 1, -span - rep.side - 1, 3 * span + 5])
    count = draw(st.integers(1, 4))
    return [
        (
            draw(st.integers(0, rep.n - 1)),
            draw(st.integers(0, rep.dimension - 1)),
            draw(st.one_of(near, far)),
        )
        for _ in range(count)
    ]


@st.composite
def arbitrary_instances(draw):
    """Any graph (interval or not) with any representation: small
    coordinates, negative and duplicated, so that gaps of exactly the side
    and of one more are common."""
    n = draw(st.integers(0, 10))
    d = draw(st.integers(0, 4))
    side = draw(st.integers(1, 4))
    coord = st.integers(-6, 6)
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    rep = CubeRepresentation(d, side, tuple(map(tuple, rows)), 1)
    return Graph(n, edges), rep


@settings(max_examples=300, deadline=None)
@given(endpoint_models())
def test_model_to_graph_matches_pairwise(model):
    assert model_to_graph(model) == model_to_graph_pairwise(model)


def test_model_to_graph_matches_pairwise_on_corpus():
    for model in random_models(30, range(1, 60), seed=53):
        assert model_to_graph(model) == model_to_graph_pairwise(model)
    touching = make_model([(0, 1), (1, 1), (1, 2), (2, 2), (3, 3), (3, 3), (0, 3)])
    assert model_to_graph(touching) == model_to_graph_pairwise(touching)


@settings(max_examples=300, deadline=None)
@given(arbitrary_instances())
def test_verify_matches_pairwise_on_arbitrary_instances(instance):
    assert_same_report(*instance)


@settings(max_examples=150, deadline=None)
@given(interval_models(), st.data())
def test_verify_matches_pairwise_on_corrupted_builds(model, data):
    graph, ordering = model_pipeline(model)
    rep = data.draw(st.sampled_from([build_best(ordering), build_representation(ordering)[0]]))
    assert_same_report(graph, rep)
    if rep.dimension and graph.n:
        assert_same_report(graph, moved(rep, data.draw(moves(rep))))


def test_verify_matches_pairwise_on_cycles():
    for n in range(3, 9):
        graph = cycle_graph(n)
        for d in range(0, 3):
            rows = [[(v * (i + 2)) % 5 - 2 for i in range(d)] for v in range(n)]
            assert_same_report(graph, CubeRepresentation(d, 1, tuple(map(tuple, rows)), 1))


@pytest.mark.parametrize("side", [1, 3, 10])
def test_gap_of_exactly_the_side_is_adjacent(side):
    # within the side is adjacent, one more is separated, in either order
    # and with negative coordinates
    for graph in (Graph(2), Graph(2, [(0, 1)])):
        for rows in ([[0], [side]], [[side], [0]], [[-side], [0]], [[0], [-side]]):
            rep = CubeRepresentation(1, side, tuple(map(tuple, rows)), 1)
            report = assert_same_report(graph, rep)
            assert report.ok == (graph.edge_count == 1)
            assert report.missing_separation == (() if report.ok else ((0, 1),))
        for rows in ([[0], [side + 1]], [[side + 1], [0]], [[-side - 1], [0]]):
            rep = CubeRepresentation(1, side, tuple(map(tuple, rows)), 1)
            report = assert_same_report(graph, rep)
            assert report.ok == (graph.edge_count == 0)
            assert report.missing_adjacency == (() if report.ok else ((0, 1),))
            assert report.dimension_stats == (1 if report.ok else 0,)


def test_duplicate_coordinates_and_degenerate_sizes():
    # every vertex on one point: all pairs are near, only the edges pass
    rep = CubeRepresentation(2, 1, ((5, -5),) * 4, 1)
    report = assert_same_report(path_graph(4), rep)
    assert report.missing_separation == ((0, 2), (0, 3), (1, 3))
    for n in (0, 1):
        for d in (0, 2):
            rep = CubeRepresentation(d, 1, ((0,) * d,) * n, 1)
            assert assert_same_report(Graph(n), rep).ok
    # dimension 0 leaves every non-edge unseparated
    report = assert_same_report(path_graph(4), CubeRepresentation(0, 1, ((),) * 4, 1))
    assert report.missing_separation == ((0, 2), (0, 3), (1, 3))
    assert report.dimension_stats == ()


def test_separation_scan_reads_the_sparsest_dimension(monkeypatch):
    # dimension 0 is complete (every pair near) and dimension 1 the
    # sparsest; the scan must cost the near pairs of dimension 1 only
    n, side = 12, 2
    rows = [(0, v // 2 * 3, v * 2) for v in range(n)]
    rep = CubeRepresentation(3, side, tuple(rows), 1)
    near = [
        sum(abs(rows[u][i] - rows[v][i]) <= side for u in range(n) for v in range(u + 1, n))
        for i in range(3)
    ]
    assert near == [n * (n - 1) // 2, n // 2, n - 1]
    scanned = []
    unseparated = verify._unseparated

    def spy(graph, rows, side, order, starts):
        scanned.append(sum(j - lo for j, lo in enumerate(starts)))
        return unseparated(graph, rows, side, order, starts)

    monkeypatch.setattr(verify, "_unseparated", spy)
    report = assert_same_report(Graph(n, [(v, v + 1) for v in range(0, n, 2)]), rep)
    assert report.ok
    assert scanned == [min(near)]


@settings(max_examples=200, deadline=None)
@given(endpoint_models(), st.data())
def test_model_verify_matches_graph_verify_on_builds(model, data):
    for rep in built_representations(model):
        assert assert_model_report(model, rep).ok
        if rep.dimension and rep.n:
            assert_model_report(model, moved(rep, data.draw(moves(rep))))


@settings(max_examples=300, deadline=None)
@given(endpoint_models(), st.data())
def test_model_verify_matches_graph_verify_on_random_coordinates(model, data):
    d = data.draw(st.integers(0, 4))
    side = data.draw(st.integers(1, 4))
    coord = st.lists(st.integers(-6, 6), min_size=d, max_size=d)
    rows = data.draw(st.lists(coord, min_size=model.n, max_size=model.n))
    rep = CubeRepresentation(d, side, tuple(map(tuple, rows)), 1)
    assert_model_report(model, rep)
    if d and model.n:
        assert_model_report(model, moved(rep, data.draw(moves(rep))))


def test_model_verify_matches_graph_verify_on_corpus():
    models = random_models(30, range(1, 60), seed=53) + random_models(4, [300], seed=61)
    models += [star_model(m) for m in range(1, 9)]
    # shared endpoints, duplicates, point intervals, and n = 0 and 1
    models += [
        make_model([(0, 1), (1, 1), (1, 2), (2, 2), (3, 3), (3, 3), (0, 3)]),
        make_model([(0, 0)] * 5 + [(1, 1), (0, 2), (2, 2), (3, 3)]),
        make_model([(0, 2)] * 4 + [(2, 4)] * 3),
        make_model([]),
        make_model([(5, 5)]),
    ]
    failing = 0
    for t, model in enumerate(models):
        for rep in built_representations(model):
            assert assert_model_report(model, rep).ok
            if rep.dimension == 0 or rep.n == 0:
                continue
            # deterministic moves: vertex t moved past everything, and a
            # near nudge of every third vertex in dimension t
            i = t % rep.dimension
            span = max(max(row) for row in rep.coords) - min(min(row) for row in rep.coords)
            draws = [(t % rep.n, i, span + rep.side + 1)]
            draws += [(v, (i + 1) % rep.dimension, rep.side) for v in range(0, rep.n, 3)]
            failing += not assert_model_report(model, moved(rep, draws)).ok
    assert failing > len(models) // 2


def test_model_verify_touching_intervals_are_adjacent():
    # [0, 1] and [1, 2] share the endpoint 1: they must be near, and
    # [0, 1] and [2, 3] apart, with zero dimensions too
    model = make_model([(0, 1), (1, 2), (2, 3)])
    far = CubeRepresentation(1, 1, ((0,), (5,), (10,)), 1)
    report = assert_model_report(model, far)
    assert report.missing_adjacency == ((0, 1), (1, 2))
    assert report.missing_separation == ()
    flat = CubeRepresentation(0, 1, ((),) * 3, 1)
    assert assert_model_report(model, flat).missing_separation == ((0, 2),)
    with pytest.raises(ValueError):
        verify_representation(model, CubeRepresentation(0, 1, ((),) * 2, 1))


@settings(max_examples=200, deadline=None)
@given(interval_models(), st.data())
def test_ordering_sanity_matches_pairwise(model, data):
    graph = model_to_graph(model)
    ordering = model_to_clique_ordering(model)
    _check_ordering_sanity(graph, ordering)
    if graph.n < 2:
        return
    # toggle one pair: both checks must refuse the ordering
    u = data.draw(st.integers(0, graph.n - 2))
    v = data.draw(st.integers(u + 1, graph.n - 1))
    edges = set(graph.edges()) ^ {(u, v)}
    toggled = Graph(graph.n, edges)
    for check in (_check_ordering_sanity, check_ordering_sanity_pairwise):
        with pytest.raises(ConstructionError):
            check(toggled, ordering)


def _p4():
    """P_4 as 0-1-2-3 and its clique ordering."""
    return path_graph(4), ordering_from_cliques([{0, 1}, {1, 2}, {2, 3}], 4)


def _bad_orderings():
    graph, ordering = _p4()
    yield "extra intersecting pair", graph, ordering_from_cliques([{0, 1, 2}, {2, 3}], 4)
    yield "missing intersecting pair", graph, ordering_from_cliques([{0, 1}, {2}, {2, 3}], 4)
    # the centre of K_1,3 misses the middle clique, yet its range 0..2
    # still meets exactly the three leaves
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    yield "non-consecutive run", star, ordering_from_cliques([{0, 1}, {2}, {0, 3}], 4)
    # 0 and 3 swap places: the ordering is the path 3-1-2-0, still 3 edges
    yield "swapped pair", graph, ordering_from_cliques([{3, 1}, {1, 2}, {2, 0}], 4)


@pytest.mark.parametrize("case", list(_bad_orderings()), ids=lambda case: case[0])
def test_ordering_sanity_canaries(case):
    _, graph, ordering = case
    for check in (_check_ordering_sanity, check_ordering_sanity_pairwise):
        with pytest.raises(ConstructionError):
            check(graph, ordering)


def test_ordering_sanity_accepts_valid_orderings():
    graph, ordering = _p4()
    _check_ordering_sanity(graph, ordering)
    for model in random_models(20, range(1, 40), seed=59):
        _check_ordering_sanity(model_to_graph(model), model_to_clique_ordering(model))
