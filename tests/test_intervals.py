from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intervalcubes import (
    CliqueOrdering,
    IntervalModel,
    model_to_clique_ordering,
    model_to_graph,
)
from intervalcubes.graphs import by_right_end

from conftest import (
    bron_kerbosch,
    interval_models,
    make_model,
    model_pipeline,
    p3_model,
    random_models,
    star_model,
)
from validators import clique_sets, ordering_from_cliques, validate_ordering


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
    assert clique_sets(ordering) == (frozenset({0, 1}), frozenset({0, 2}))
    assert ordering.left[0] == 0 and ordering.right[0] == 1


def test_nested_single_clique():
    ordering = model_to_clique_ordering(make_model([(0, 3), (1, 2)]))
    assert clique_sets(ordering) == (frozenset({0, 1}),)


def test_star_model_sweep():
    ordering = model_to_clique_ordering(star_model(4))
    assert ordering.k == 4
    assert clique_sets(ordering) == tuple(frozenset({0, i}) for i in range(1, 5))


def test_sweep_matches_bron_kerbosch():
    for model in random_models(40, range(2, 15), seed=11):
        graph, ordering = model_pipeline(model)
        assert set(clique_sets(ordering)) == bron_kerbosch(graph)


def test_sweep_ordering_validates():
    for model in random_models(40, range(1, 20), seed=5):
        graph, ordering = model_pipeline(model)
        report = validate_ordering(graph, ordering)
        assert report.ok, report
        assert ordering.k <= graph.n


def _reference_sweep(model) -> list[frozenset[int]]:
    """The set-based endpoint sweep that `model_to_clique_ordering`
    replaced, as the reference of its differential test: the maximal
    cliques in order, as frozensets."""
    starts: dict[Fraction, list[int]] = {}
    ends: dict[Fraction, list[int]] = {}
    for v, (lo, hi) in enumerate(model.intervals):
        starts.setdefault(lo, []).append(v)
        ends.setdefault(hi, []).append(v)
    coords = sorted(set(starts) | set(ends))
    active: set[int] = set()
    inserted_since_snapshot = False
    cliques: list[frozenset[int]] = []
    for x in coords:
        for v in starts.get(x, ()):
            active.add(v)
            inserted_since_snapshot = True
        ending = ends.get(x, ())
        if ending and inserted_since_snapshot:
            cliques.append(frozenset(active))
            inserted_since_snapshot = False
        for v in ending:
            active.remove(v)
    return cliques


@st.composite
def crowded_models(draw):
    """Models on the nine coordinates 0, 1/2, .., 4, so that endpoints are
    shared, points are common and intervals nest; possibly empty."""
    n = draw(st.integers(0, 16))
    pairs = draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=n, max_size=n))
    return make_model([(f"{min(p)}/2", f"{max(p)}/2") for p in pairs])


@settings(max_examples=300, deadline=None)
@given(st.one_of(crowded_models(), interval_models()))
def test_sweep_matches_set_sweep(model):
    cliques = _reference_sweep(model)
    ordering = model_to_clique_ordering(model)
    assert ordering == ordering_from_cliques(cliques, model.n)
    # the cliques read off the ranges, in the sweep's order
    assert clique_sets(ordering) == tuple(cliques)


@st.composite
def crowded_ranges(draw):
    """Closed int ranges on 0..6, as (left, right) columns: shared
    endpoints, one-point ranges and equal right ends are common."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=16))
    return tuple(map(min, pairs)), tuple(map(max, pairs))


@settings(max_examples=400, deadline=None)
@given(crowded_ranges())
@example(((), ()))
@example(((2,), (2,)))
def test_by_right_end_matches_all_pairs(ranges):
    """Against every pair: below p, the positions from closed[p] on meet
    p's range and those before closed[p] do not, so sum(closed) is the
    number of disjoint pairs."""
    left, right = ranges
    n = len(left)
    seq, closed = by_right_end(left, right)
    assert sorted(seq) == list(range(n))

    def meet(u, v):
        return left[u] <= right[v] and left[v] <= right[u]

    for p, c in enumerate(closed):
        assert all(meet(seq[q], seq[p]) for q in range(c, p))
        assert not any(meet(seq[q], seq[p]) for q in range(c))
    assert sum(closed) == sum(not meet(u, v) for v in range(n) for u in range(v))


def test_ordering_from_cliques_rejects_swapped_cliques():
    # the path 0-1-2-3 with its last two cliques swapped: 1 and 2 each
    # skip the middle clique
    with pytest.raises(ValueError, match="not consecutive"):
        ordering_from_cliques([{0, 1}, {2, 3}, {1, 2}], 4)
    assert ordering_from_cliques([{0, 1}, {1, 2}, {2, 3}], 4) == CliqueOrdering(
        3, (0, 0, 1, 2), (0, 1, 2, 2)
    )


def test_validate_flags_subset_clique():
    # P3 with the centre's range running over a middle clique {0} that
    # sits inside both neighbouring cliques
    graph, _ = model_pipeline(p3_model())
    broken = CliqueOrdering(k=3, left=(0, 0, 2), right=(2, 0, 2))
    assert clique_sets(broken)[1] == frozenset({0})
    report = validate_ordering(graph, broken)
    assert report.has("not-maximal")
    assert report.has("clique-subset")
    assert not report.has("adjacency-mismatch")


def test_validate_accepts_correct_p3():
    graph, ordering = model_pipeline(p3_model())
    assert validate_ordering(graph, ordering).ok


def test_model_json_round_trip():
    model = make_model([(0, "5/2"), ("-3/2", "7/3"), ("0.25", 1)])
    text = model.dumps()
    again = IntervalModel.loads(text)
    assert again == model
    assert again.intervals[2][0] == Fraction(1, 4)


def test_model_refuses_deeply_nested_json():
    for text in ("[" * 10**5 + "]" * 10**5, '{"intervals": ' + "[" * 10**5):
        with pytest.raises(ValueError, match="^JSON nested too deeply$"):
            IntervalModel.loads(text)


def test_model_json_rejects_bad_ids():
    with pytest.raises(ValueError):
        IntervalModel.loads('{"intervals": [{"id": 1, "lo": "0", "hi": "1"}]}')


def fraction_ranks(pairs):
    """Endpoint ranks from a sort of the Fractions themselves."""
    rank = {x: r for r, x in enumerate(sorted({x for iv in pairs for x in iv}))}
    return tuple(rank[lo] for lo, _ in pairs), tuple(rank[hi] for _, hi in pairs)


endpoints = st.one_of(
    st.fractions(-50, 50, max_denominator=12),
    st.integers(-50, 50).map(Fraction),
    # fractional parts that differ past a float's precision
    st.sampled_from([Fraction(1, 3), Fraction(10**30 + 1, 3 * 10**30), Fraction(-2, 3),
                     Fraction(-(10**30) - 1, 3 * 10**30), Fraction(10**40 + 1, 10**40)]),
)
endpoint_pairs = st.lists(
    st.tuples(endpoints, st.fractions(0, 6, max_denominator=12)).map(lambda p: (p[0], p[0] + p[1])),
    max_size=20,
)


@settings(max_examples=300, deadline=None)
@given(endpoint_pairs)
def test_model_ranks_match_fraction_ranks(pairs):
    model = IntervalModel(tuple(pairs))
    assert (model.lo, model.hi) == fraction_ranks(pairs)
    values = sorted({x for iv in pairs for x in iv})
    assert model.values == tuple((x.numerator, x.denominator) for x in values)


def test_model_ranks_order_values_a_float_cannot_tell_apart():
    third = Fraction(1, 3)
    below = third - Fraction(1, 10**30)  # the same float fractional part, a larger numerator
    pairs = ((third, third), (below, third), (Fraction(-1), below))
    model = IntervalModel(pairs)
    assert (model.lo, model.hi) == fraction_ranks(pairs) == ((2, 1, 0), (2, 2, 1))
    assert IntervalModel.loads(model.dumps()) == model


@settings(max_examples=300, deadline=None)
@given(st.one_of(endpoint_pairs, st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 9)).map(
    lambda p: (p[0], p[0] + p[1])), max_size=12)))
def test_model_gives_back_its_intervals(pairs):
    model = IntervalModel(tuple(pairs))
    assert model.intervals == tuple(pairs)
    assert all(type(x) is int or x.denominator > 1 for iv in model.intervals for x in iv)
    assert IntervalModel(model.intervals) == model
    assert IntervalModel(intervals=model.intervals) == model
    assert IntervalModel.loads(model.dumps()) == model


# shared endpoints, point intervals, negatives, non-canonical and huge text
ENDPOINT_TEXT = [
    "0", "-0", "+1", " 7 ", "0/5", "-0/5", "00012/0006", "-12/8", "5/2", "-5/2", "0.25",
    "-3/2", "7/3", "9" * 400, "-" + "9" * 400, "1/" + "7" * 300, "-" + "3" * 200 + "/" + "7" * 210,
    str(10**30 + 1) + "/" + str(3 * 10**30), "1/3",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(ENDPOINT_TEXT), st.sampled_from(ENDPOINT_TEXT)),
                max_size=12))
def test_model_text_matches_fraction_text(texts):
    pairs = [sorted(p, key=Fraction) for p in texts]
    obj = {"intervals": [{"id": i, "lo": lo, "hi": hi} for i, (lo, hi) in enumerate(pairs)]}
    expected = [{"id": i, "lo": str(Fraction(lo)), "hi": str(Fraction(hi))}
                for i, (lo, hi) in enumerate(pairs)]
    model = IntervalModel.from_json_obj(obj)
    assert model.to_json_obj() == {"intervals": expected}
    assert model == IntervalModel(tuple((Fraction(lo), Fraction(hi)) for lo, hi in pairs))


def test_generated_model_text_matches_fraction_text():
    for model in random_models(12, (1, 2, 7, 30), seed=4):
        expected = [{"id": i, "lo": str(Fraction(lo)), "hi": str(Fraction(hi))}
                    for i, (lo, hi) in enumerate(model.intervals)]
        assert model.to_json_obj() == {"intervals": expected}


def test_inverted_interval_message():
    with pytest.raises(ValueError, match=r"^interval 1 has lo > hi: \[5/2, -1/3\]$"):
        IntervalModel(((0, 0), (Fraction(5, 2), Fraction(-1, 3))))
    with pytest.raises(ValueError, match=r"^interval 0 has lo > hi: \[2, 1\]$"):
        IntervalModel(((2, 1), (3, 0)))
    text = '{"intervals": [{"id": 1, "lo": "10/4", "hi": "-2/6"}, {"id": 0, "lo": "0", "hi": "0"}]}'
    with pytest.raises(ValueError, match=r"^interval 1 has lo > hi: \[5/2, -1/3\]$"):
        IntervalModel.loads(text)
