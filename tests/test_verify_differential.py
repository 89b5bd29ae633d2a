"""The sweeps that build and check graphs against their all-pairs
references in `verify_reference`: equal graphs, equal verification
reports, and the same sanity verdicts, on built, corrupted and arbitrary
inputs.  Verification against an interval model, and against the clique
ordering recognized from an edge list, is checked against verification
of the graph, and each of the verifier's two paths, bitmasks and window,
is forced in turn."""

import itertools
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcubes import (
    CubeRepresentation,
    GenConfig,
    Graph,
    IntervalModel,
    NotIntervalError,
    build_alpha_representation,
    build_best,
    build_representation,
    model_to_clique_ordering,
    model_to_graph,
    normalize_unit,
    random_interval_model,
    recognize_and_order,
    verify_representation,
)
from intervalcubes import verify
from intervalcubes.recognition import ConstructionError, _check_ordering_sanity

from conftest import (
    chordal_graphs,
    cycle_graph,
    dense_graphs,
    from_rows,
    interval_models,
    make_model,
    model_pipeline,
    path_graph,
    random_models,
    relabelled,
    relabelled_model_graphs,
    star_model,
)
from validators import ordering_from_cliques
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
    return built_from(model_to_clique_ordering(model))


def built_from(ordering):
    """Every builder's output on `ordering`, as built and normalized."""
    built = [
        build_best(ordering),
        build_representation(ordering)[0],
        build_alpha_representation(ordering),
    ]
    return built + [normalize_unit(rep) for rep in built]


def moved(rep, draws):
    """A copy of `rep` with each (vertex, dimension, shift) of `draws`
    applied to its coordinates."""
    cols = [list(col) for col in rep.coords]
    for v, i, shift in draws:
        cols[i][v] += shift
    return CubeRepresentation(rep.n, rep.side, tuple(map(tuple, cols)), rep.unit)


@st.composite
def moves(draw, rep):
    """One to four random vertices moved in a random dimension, by a near
    shift (around the side) or a far one (past every coordinate)."""
    cols = rep.coords
    span = max(max(col) for col in cols) - min(min(col) for col in cols)
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
    cols = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=d, max_size=d))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    rep = CubeRepresentation(n, side, tuple(map(tuple, cols)), 1)
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
            assert_same_report(graph, from_rows(rows))


@pytest.mark.parametrize("side", [1, 3, 10])
def test_gap_of_exactly_the_side_is_adjacent(side):
    # within the side is adjacent, one more is separated, in either order
    # and with negative coordinates
    for graph in (Graph(2), Graph(2, [(0, 1)])):
        for rows in ([[0], [side]], [[side], [0]], [[-side], [0]], [[0], [-side]]):
            rep = from_rows(rows, side)
            report = assert_same_report(graph, rep)
            assert report.ok == (graph.edge_count == 1)
            assert report.missing_separation == (() if report.ok else ((0, 1),))
        for rows in ([[0], [side + 1]], [[side + 1], [0]], [[-side - 1], [0]]):
            rep = from_rows(rows, side)
            report = assert_same_report(graph, rep)
            assert report.ok == (graph.edge_count == 0)
            assert report.missing_adjacency == (() if report.ok else ((0, 1),))
            assert report.dimension_stats == (1 if report.ok else 0,)


def test_duplicate_coordinates_and_degenerate_sizes():
    # every vertex on one point: all pairs are near, only the edges pass
    rep = from_rows([(5, -5)] * 4)
    report = assert_same_report(path_graph(4), rep)
    assert report.missing_separation == ((0, 2), (0, 3), (1, 3))
    for n in (0, 1):
        for d in (0, 2):
            rep = CubeRepresentation(n, 1, ((0,) * n,) * d, 1)
            assert assert_same_report(Graph(n), rep).ok
    # dimension 0 leaves every non-edge unseparated
    report = assert_same_report(path_graph(4), from_rows([()] * 4))
    assert report.missing_separation == ((0, 2), (0, 3), (1, 3))
    assert report.dimension_stats == ()


def test_separation_scan_reads_the_sparsest_dimension(monkeypatch):
    # dimension 0 is complete (every pair near) and dimension 1 the
    # sparsest; the scan must cost the near pairs of dimension 1 only
    n, side = 12, 2
    rows = [(0, v // 2 * 3, v * 2) for v in range(n)]
    rep = from_rows(rows, side)
    near = [
        sum(abs(rows[u][i] - rows[v][i]) <= side for u in range(n) for v in range(u + 1, n))
        for i in range(3)
    ]
    assert near == [n * (n - 1) // 2, n // 2, n - 1]
    scanned = []
    unseparated = verify._unseparated

    def spy(apart, cols, side, order, starts):
        scanned.append(sum(j - lo for j, lo in enumerate(starts)))
        return unseparated(apart, cols, side, order, starts)

    monkeypatch.setattr(verify, "_unseparated", spy)
    report = assert_same_report(Graph(n, [(v, v + 1) for v in range(0, n, 2)]), rep)
    assert report.ok
    assert scanned == [min(near)]


def assert_both_paths(source, rep, graph=None):
    """Each verify path, forced in turn, gives the pairwise reference's
    report on `source`, a graph or a model (whose graph is `graph`)."""
    if graph is None:
        graph = model_to_graph(source) if isinstance(source, IntervalModel) else source
    expected = verify_pairwise(graph, rep)
    for masks in (True, False):
        with patch.object(verify, "_masks_pay", lambda *args: masks):
            assert verify_representation(source, rep) == expected
    return expected


def random_representation(data, n, d_max=4):
    """Random small coordinates, negative and repeated, so that gaps of
    exactly the side and of one more are common."""
    d = data.draw(st.integers(0, d_max))
    side = data.draw(st.integers(1, 4))
    coord = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    cols = data.draw(st.lists(coord, min_size=d, max_size=d))
    return CubeRepresentation(n, side, tuple(map(tuple, cols)), 1)


@settings(max_examples=200, deadline=None)
@given(endpoint_models(), st.data())
def test_both_paths_match_pairwise_on_models(model, data):
    # endpoint_models has n = 0 and 1, shared endpoints and point intervals
    graph = model_to_graph(model)
    reps = built_representations(model) + [random_representation(data, model.n)]
    for rep in reps:
        for source in (model, graph):
            assert_both_paths(source, rep, graph)
        if rep.dimension and rep.n:
            broken = moved(rep, data.draw(moves(rep)))
            for source in (model, graph):
                assert_both_paths(source, broken, graph)


@settings(max_examples=200, deadline=None)
@given(arbitrary_instances())
def test_both_paths_match_pairwise_on_arbitrary_graphs(instance):
    assert_both_paths(*instance)


def test_both_paths_on_degenerate_sizes():
    models = [
        make_model([]),
        make_model([(5, 5)]),
        make_model([(0, 1), (1, 1), (1, 2), (2, 2), (3, 3), (3, 3), (0, 3)]),
        make_model([(0, 0)] * 5 + [(1, 1), (0, 2), (2, 2), (3, 3)]),
    ]
    for model in models:
        n = model.n
        for d in (0, 1, 3):
            for cols in ([(0,) * n] * d, [tuple(range(i, i + n)) for i in range(d)]):
                rep = CubeRepresentation(n, 1, tuple(cols), 1)
                assert_both_paths(model, rep)
                assert_both_paths(model_to_graph(model), rep)
    # dimension 0 reports every non-edge, on either path
    flat = from_rows([()] * 4)
    assert assert_both_paths(path_graph(4), flat).missing_separation == ((0, 2), (0, 3), (1, 3))


def test_both_paths_on_corpus():
    models = random_models(12, range(1, 80), seed=67) + [star_model(m) for m in (1, 2, 5)]
    for t, model in enumerate(models):
        graph = model_to_graph(model)
        for rep in built_representations(model):
            assert assert_both_paths(model, rep, graph).ok
            if rep.dimension == 0 or rep.n == 0:
                continue
            span = max(max(col) for col in rep.coords) - min(min(col) for col in rep.coords)
            draws = [(t % rep.n, t % rep.dimension, span + rep.side + 1)]
            draws += [(v, (t + 1) % rep.dimension, rep.side) for v in range(0, rep.n, 3)]
            assert_both_paths(model, moved(rep, draws), graph)


def test_path_rule_takes_masks_on_dense_input_and_the_window_on_sparse():
    # the benchmark's shapes: dense generated models at n = 400 take the
    # masks; the path, the caterpillar and a unit-jitter model at n = 500
    # keep the window; as models and as edge lists
    dense = [random_interval_model(GenConfig(n=400, seed=0, dist=dist))
             for dist in ("uniform", "nested-heavy")]
    sparse = [
        make_model([(i, i + 1) for i in range(500)]),
        make_model([(3 * i, 3 * i + 3) for i in range(250)]
                   + [(3 * i + 1, 3 * i + 1) for i in range(250)]),
        random_interval_model(GenConfig(n=500, seed=0, dist="unit-jitter")),
    ]
    cases = [(m, build_best(model_to_clique_ordering(m)), "masks") for m in dense]
    cases += [(m, build_best(model_to_clique_ordering(m)), "window") for m in sparse]
    # a unit interval model whose dimensions are copies of one line: every
    # window pair is an edge, and the d passes over the edges tip the rule
    line = make_model([(x, x + 6) for x in range(400)])
    cases.append((line, CubeRepresentation(400, 6, (tuple(range(400)),) * 4, 1), "masks"))

    taken = []
    by_masks, unseparated, rule = verify._by_masks, verify._unseparated, verify._masks_pay

    def spy(name, call):
        def wrapped(*args):
            taken.append(name)
            return call(*args)

        return wrapped

    with patch.object(verify, "_by_masks", spy("masks", by_masks)), \
            patch.object(verify, "_unseparated", spy("window", unseparated)), \
            patch.object(verify, "_masks_pay", lambda *args: taken.append(args) or rule(*args)):
        for model, rep, expected in cases:
            graph = model_to_graph(model)
            for source in (model, graph):
                taken.clear()
                assert verify_representation(source, rep).ok
                # a model's edges are counted without listing them
                (_, edges, d, n), path = taken
                assert (edges, d, n, path) == (graph.edge_count, rep.dimension, graph.n, expected)


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
    coord = st.lists(st.integers(-6, 6), min_size=model.n, max_size=model.n)
    cols = data.draw(st.lists(coord, min_size=d, max_size=d))
    rep = CubeRepresentation(model.n, side, tuple(map(tuple, cols)), 1)
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
            span = max(max(col) for col in rep.coords) - min(min(col) for col in rep.coords)
            draws = [(t % rep.n, i, span + rep.side + 1)]
            draws += [(v, (i + 1) % rep.dimension, rep.side) for v in range(0, rep.n, 3)]
            failing += not assert_model_report(model, moved(rep, draws)).ok
    assert failing > len(models) // 2


def test_model_verify_touching_intervals_are_adjacent():
    # [0, 1] and [1, 2] share the endpoint 1: they must be near, and
    # [0, 1] and [2, 3] apart, with zero dimensions too
    model = make_model([(0, 1), (1, 2), (2, 3)])
    far = from_rows([(0,), (5,), (10,)])
    report = assert_model_report(model, far)
    assert report.missing_adjacency == ((0, 1), (1, 2))
    assert report.missing_separation == ()
    flat = from_rows([()] * 3)
    assert assert_model_report(model, flat).missing_separation == ((0, 2),)
    with pytest.raises(ValueError):
        verify_representation(model, from_rows([()] * 2))


def assert_ordering_report(graph, ordering, rep):
    """Each verify path, forced in turn, gives the same report against the
    ranges of `ordering`, recognized from `graph`, as against `graph`."""
    for masks in (True, False):
        with patch.object(verify, "_masks_pay", lambda *args: masks):
            report = verify_representation(ordering, rep)
            assert report == verify_representation(graph, rep)
    return report


def corrupted(rep, draws):
    """`rep` with the cubes of `draws` moved; with its side shrunk, on a
    grid twice as fine so that a side of one unit shrinks too; and with
    each column dropped in turn."""
    yield moved(rep, draws)
    finer = tuple(tuple(2 * x for x in col) for col in rep.coords)
    yield CubeRepresentation(rep.n, 2 * rep.side - 1, finer, 2 * rep.unit)
    for i in range(rep.dimension):
        yield CubeRepresentation(rep.n, rep.side, rep.coords[:i] + rep.coords[i + 1 :], rep.unit)


def assert_ordering_reports(graph, draws_for) -> int | None:
    """None if `graph` is not an interval graph.  Otherwise the reports
    against its recognized ordering and against it agree on zero
    dimensions, on every build, and on each build's corruptions, with
    `draws_for(rep)` the moves; returns how many corruptions failed."""
    try:
        ordering = recognize_and_order(graph)
    except NotIntervalError:
        return None
    # zero dimensions pass only a complete graph
    complete = graph.edge_count == graph.n * (graph.n - 1) // 2
    assert assert_ordering_report(graph, ordering, CubeRepresentation(graph.n, 1, (), 1)).ok == complete
    failing = 0
    for rep in built_from(ordering):
        assert assert_ordering_report(graph, ordering, rep).ok
        if rep.dimension and rep.n:
            for broken in corrupted(rep, draws_for(rep)):
                failing += not assert_ordering_report(graph, ordering, broken).ok
    return failing


@settings(max_examples=100, deadline=None)
@given(st.one_of(relabelled_model_graphs(), chordal_graphs(), dense_graphs()), st.data())
def test_ordering_verify_matches_graph_verify(graph, data):
    assert_ordering_reports(graph, lambda rep: data.draw(moves(rep)))


def test_ordering_verify_matches_graph_verify_on_recognition_corpora():
    # every labelled graph on up to four vertices, and relabelled model graphs
    graphs = [Graph(0)]
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        graphs += [Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
                   for mask in range(1 << len(pairs))]
    rng = random.Random(71)
    for model in random_models(12, range(1, 60), seed=71):
        graphs.append(relabelled(model_to_graph(model), rng.sample(range(model.n), model.n)))

    def far(rep):
        span = max(max(col) for col in rep.coords) - min(min(col) for col in rep.coords)
        return [(rep.n // 2, rep.dimension - 1, span + rep.side + 1)]

    results = [assert_ordering_reports(graph, far) for graph in graphs]
    recognized = [failing for failing in results if failing is not None]
    assert len(recognized) > len(graphs) // 2
    assert sum(recognized) > len(recognized)


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
    # 0 and 3 swap places: the ordering is the path 3-1-2-0, still 3 edges
    yield "swapped pair", graph, ordering_from_cliques([{3, 1}, {1, 2}, {2, 0}], 4)


@pytest.mark.parametrize("case", list(_bad_orderings()), ids=lambda case: case[0])
def test_ordering_sanity_canaries(case):
    _, graph, ordering = case
    for check in (_check_ordering_sanity, check_ordering_sanity_pairwise):
        with pytest.raises(ConstructionError):
            check(graph, ordering)


def test_ordering_from_cliques_refuses_non_consecutive_run():
    # the centre of K_1,3 misses the middle clique, yet its range 0..2
    # would still meet exactly the three leaves, so no canary downstream
    # could tell: the ranges are refused where they are made
    with pytest.raises(ValueError, match="not consecutive"):
        ordering_from_cliques([{0, 1}, {2}, {0, 3}], 4)


def test_ordering_sanity_accepts_valid_orderings():
    graph, ordering = _p4()
    _check_ordering_sanity(graph, ordering)
    for model in random_models(20, range(1, 40), seed=59):
        _check_ordering_sanity(model_to_graph(model), model_to_clique_ordering(model))
