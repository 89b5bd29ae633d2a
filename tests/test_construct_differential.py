"""build_best against both public variants, and the ordering-only padding
and universal vertex against graphs built independently from the input."""

from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcubes import (
    Graph,
    build_alpha_representation,
    build_best,
    build_representation,
    claw_number,
    label_vertices,
    make_model,
    recognize_and_order,
)
from intervalcubes import construct, params
from intervalcubes.construct import _augment_with_universal, best_dimension

from conftest import (
    augmented_graph,
    complete_graph,
    model_pipeline,
    pad,
    padded_graph,
    path_graph,
    random_models,
    range_graph,
    star_graph,
    star_model,
)


def _corpus():
    """(graph, ordering) pairs: the random-model corpora of the construct
    tests, stars, paths, and disjoint unions of cliques (claw number < 2,
    where a two-clique union is the one case the alpha variant wins)."""
    cases = [model_pipeline(m) for m in random_models(40, range(2, 40), seed=29)]
    cases += [model_pipeline(m) for m in random_models(30, range(3, 30), seed=37)]
    cases += [model_pipeline(star_model(m)) for m in range(1, 10)]
    graphs = [star_graph(m) for m in range(1, 10)] + [path_graph(n) for n in range(0, 20)]
    graphs += [complete_graph(n) for n in range(1, 5)] + [Graph(n) for n in range(1, 5)]
    graphs.append(Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)]))
    return cases + [(g, recognize_and_order(g)) for g in graphs]


def _expected_best(graph, ordering):
    claw, _ = build_representation(graph, ordering)
    alpha = build_alpha_representation(graph, ordering)
    return ("alpha", alpha) if alpha.dimension <= claw.dimension else ("claw", claw)


def test_build_best_matches_smaller_public_variant():
    winners = set()
    for graph, ordering in _corpus():
        winner, expected = _expected_best(graph, ordering)
        assert build_best(graph, ordering) == expected
        if graph.n:
            psi, alpha = claw_number(ordering, graph)[0], label_vertices(ordering).alpha
            assert best_dimension(psi, alpha) == expected.dimension
        winners.add((winner, expected.dimension > 1))
    assert len(winners) == 4


@st.composite
def interval_models(draw):
    n = draw(st.integers(1, 14))
    starts = draw(st.lists(st.integers(0, 24), min_size=n, max_size=n))
    lengths = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    return make_model([(lo, lo + ln) for lo, ln in zip(starts, lengths)])


@settings(max_examples=150, deadline=None)
@given(interval_models())
def test_build_best_matches_smaller_public_variant_hypothesis(model):
    graph, ordering = model_pipeline(model)
    assert build_best(graph, ordering) == _expected_best(graph, ordering)[1]


def test_padding_reference_on_rebuilt_graphs():
    """The padded claw number, known by construction, equals a full claw
    pass on the padded graph rebuilt from the input, and the padded
    ordering describes exactly that graph; likewise for the universal
    vertex, whose claw number is the independence number."""
    padded_count = 0
    for graph, ordering in _corpus():
        if graph.n == 0:
            continue
        if claw_number(ordering, graph)[0] >= 2:
            padded = pad(graph, ordering)
            rebuilt = padded_graph(graph, padded)
            assert claw_number(padded.ordering, rebuilt)[0] == 2**padded.power
            assert range_graph(padded.ordering) == rebuilt
            padded_count += padded.added > 0

        alpha = label_vertices(ordering).alpha
        aug, aug_ordering = augmented_graph(graph), _augment_with_universal(ordering)
        assert range_graph(aug_ordering) == aug
        if alpha >= 2:
            assert claw_number(aug_ordering, aug)[0] == alpha
            _, trace = build_representation(aug, aug_ordering)
            rebuilt = padded_graph(aug, trace.padded)
            assert claw_number(trace.padded.ordering, rebuilt)[0] == trace.claw
            assert range_graph(trace.padded.ordering) == rebuilt
    assert padded_count > 10


def test_build_best_runs_one_claw_pass_and_one_variant(monkeypatch):
    calls = {"claw": 0, "neighborhood": 0, "center": 0, "build": 0, "graph": 0}
    built = []  # vertex count of each ordering the builder ran on

    def counting(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if key == "build":
                built.append(args[0].n)
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(construct, "claw_number", counting("claw", construct.claw_number))
    monkeypatch.setattr(
        params, "neighborhood_mis", counting("neighborhood", params.neighborhood_mis)
    )
    monkeypatch.setattr(
        construct, "greedy_independent", counting("center", construct.greedy_independent)
    )
    monkeypatch.setattr(construct, "_build", counting("build", construct._build))
    monkeypatch.setattr(Graph, "__init__", counting("graph", Graph.__init__))

    winners = set()
    for graph, ordering in _corpus():
        calls.update(dict.fromkeys(calls, 0))
        built.clear()
        build_best(graph, ordering)
        assert calls["graph"] == 0
        assert calls["claw"] == (1 if graph.n else 0)
        assert calls["neighborhood"] == graph.n
        # the only other greedy passes pick the padding center, among the
        # last clique and perhaps a universal vertex
        assert calls["center"] <= (len(ordering.cliques[-1]) + 1 if graph.n else 0)
        assert calls["build"] <= 1
        if built:
            # the alpha variant builds on the ordering plus a universal vertex
            winners.add("alpha" if built[0] == graph.n + 1 else "claw")
    assert winners == {"claw", "alpha"}
