"""build_best against both public variants, the ordering-only padding
and universal vertex against graphs built independently from the input,
and the integer grid of every representation built."""

from hypothesis import given, settings

from intervalcubes import (
    CubeRepresentation,
    Graph,
    Labelling,
    build_alpha_representation,
    build_best,
    build_representation,
    claw_number,
    label_vertices,
    normalize_unit,
    recognize_and_order,
    verify_representation,
)
from intervalcubes import construct, labelling, params
from intervalcubes.construct import _augment_with_universal, best_dimension

from conftest import (
    adjacency_claw_number,
    augmented_graph,
    complete_graph,
    interval_models,
    model_pipeline,
    pad,
    padded_graph,
    path_graph,
    random_models,
    range_graph,
    star_graph,
    star_model,
    values,
)
from validators import check_trace


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


def _expected_best(ordering):
    claw, _ = build_representation(ordering)
    alpha = build_alpha_representation(ordering)
    return ("alpha", alpha) if alpha.dimension <= claw.dimension else ("claw", claw)


def test_build_best_matches_smaller_public_variant():
    winners = set()
    for graph, ordering in _corpus():
        winner, expected = _expected_best(ordering)
        assert build_best(ordering) == expected
        if graph.n:
            psi, alpha = claw_number(ordering)[0], label_vertices(ordering).alpha
            assert best_dimension(psi, alpha) == expected.dimension
        winners.add((winner, expected.dimension > 1))
    assert len(winners) == 4


@settings(max_examples=150, deadline=None)
@given(interval_models())
def test_build_best_matches_smaller_public_variant_hypothesis(model):
    graph, ordering = model_pipeline(model)
    assert build_best(ordering) == _expected_best(ordering)[1]


def _all_ints(*groups) -> bool:
    return all(type(x) is int for group in groups for x in group)


def _check_integer_grid(graph, ordering):
    """Every representation the builders give, plain and normalized, holds
    ints, and its JSON round trip keeps its values and its verification
    report; a claw build's trace is on the same grid and passes the audit."""
    claw_rep, trace = build_representation(ordering)
    if trace is not None:
        assert trace.unit == claw_rep.unit
        assert _all_ints(trace.scale, *trace.coords)
        assert check_trace(trace, trace.padded.ordering, trace.labelling).ok
    for built in (claw_rep, build_alpha_representation(ordering), build_best(ordering)):
        for rep in (built, normalize_unit(built)):
            assert _all_ints((rep.dimension, rep.side, rep.unit), *rep.coords)
            report = verify_representation(graph, rep)
            assert report.ok
            again = CubeRepresentation.loads(rep.dumps())
            assert _all_ints((again.side, again.unit), *again.coords)
            assert values(again) == values(rep)
            assert verify_representation(graph, again) == report


def test_integer_grid_round_trip():
    for graph, ordering in _corpus():
        _check_integer_grid(graph, ordering)


@settings(max_examples=100, deadline=None)
@given(interval_models())
def test_integer_grid_round_trip_hypothesis(model):
    _check_integer_grid(*model_pipeline(model))


def test_padding_reference_on_rebuilt_graphs():
    """The padded claw number, known by construction, equals a full claw
    pass on the padded graph rebuilt from the input, and the padded
    ordering describes exactly that graph; likewise for the universal
    vertex, whose claw number is the independence number."""
    padded_count = 0
    for graph, ordering in _corpus():
        if graph.n == 0:
            continue
        if claw_number(ordering)[0] >= 2:
            padded = pad(ordering)
            rebuilt = padded_graph(graph, padded)
            assert adjacency_claw_number(padded.ordering, rebuilt)[0] == 2**padded.power
            assert range_graph(padded.ordering) == rebuilt
            padded_count += padded.added > 0

        alpha = label_vertices(ordering).alpha
        aug, aug_ordering = augmented_graph(graph), _augment_with_universal(ordering)
        assert range_graph(aug_ordering) == aug
        if alpha >= 2:
            assert adjacency_claw_number(aug_ordering, aug)[0] == alpha
            _, trace = build_representation(aug_ordering)
            rebuilt = padded_graph(aug, trace.padded)
            assert adjacency_claw_number(trace.padded.ordering, rebuilt)[0] == trace.claw
            assert range_graph(trace.padded.ordering) == rebuilt
    assert padded_count > 10


def test_build_best_runs_one_claw_pass_and_one_variant(monkeypatch):
    calls = {"psi": 0, "neighborhood": 0, "pad": 0, "padded": 0, "build": 0, "graph": 0}
    built = []  # vertex count of each ordering the builder ran on

    def counting(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if key == "build":
                built.append(args[0].n)
            result = func(*args, **kwargs)
            if key == "pad" and result.added:
                calls["padded"] += 1
            return result

        return wrapper

    # every psi pass, whether for the claw number or the padding center
    monkeypatch.setattr(params, "vertex_claws", counting("psi", params.vertex_claws))
    monkeypatch.setattr(
        params, "neighborhood_mis", counting("neighborhood", params.neighborhood_mis)
    )
    monkeypatch.setattr(construct, "pad_graph", counting("pad", construct.pad_graph))
    monkeypatch.setattr(construct, "_build", counting("build", construct._build))
    monkeypatch.setattr(Graph, "__init__", counting("graph", Graph.__init__))

    winners, padded = set(), 0
    for graph, ordering in _corpus():
        calls.update(dict.fromkeys(calls, 0))
        built.clear()
        build_best(ordering)
        padded += calls["padded"]
        assert calls["graph"] == 0
        # no greedy on a neighbourhood: the build needs psi, not a witness
        assert calls["neighborhood"] == 0
        # one psi pass serves the claw number and the padding center
        assert calls["psi"] == (1 if graph.n else 0)
        assert calls["build"] <= 1
        if built:
            # the alpha variant builds on the ordering plus a universal vertex
            winners.add("alpha" if built[0] == graph.n + 1 else "claw")
    assert winners == {"claw", "alpha"}
    assert padded > 0


def count_suffix_best(monkeypatch) -> list:
    """Patch every binding of `suffix_best`; the returned list collects
    the ordering of each call."""
    seen, table = [], labelling.suffix_best

    def counting(ordering):
        seen.append(ordering)
        return table(ordering)

    monkeypatch.setattr(params, "suffix_best", counting)
    monkeypatch.setattr(labelling, "suffix_best", counting)
    return seen


def test_each_build_makes_one_suffix_best_table_on_its_input(monkeypatch):
    """Each variant makes the suffix-best table once on the input
    ordering, and once more only on a padded ordering it must label anew:
    the alpha variant's universal vertex costs no table of its own."""
    padded, pad = [], construct.pad_graph

    def recording_pad(*args):
        padded.append(pad(*args))
        return padded[-1]

    monkeypatch.setattr(construct, "pad_graph", recording_pad)
    seen = count_suffix_best(monkeypatch)
    for graph, ordering in _corpus():
        if graph.n == 0:
            continue
        for builder in (build_representation, build_alpha_representation, build_best):
            seen.clear()
            padded.clear()
            builder(ordering)
            assert seen == [ordering, *(p.ordering for p in padded if p.added)]
            assert seen[0] is ordering


def _check_universal_vertex_claws(ordering):
    claws, lab = params.parameters(ordering)
    augmented = _augment_with_universal(ordering)
    assert params.parameters(augmented)[0] == [max(c, 1) for c in claws] + [lab.alpha]
    # the universal vertex is never an anchor, and sits at level 0
    assert label_vertices(augmented) == Labelling(lab.levels + (0,), lab.anchors)


def test_universal_vertex_claws_follow_from_the_ordering():
    """The alpha variant builds on the ordering plus a universal vertex
    with psi values and a labelling read off the ordering's own pass: the
    universal vertex's psi is alpha, and it lifts no other but a 0 to 1;
    it adds level 0 and no anchor."""
    for graph, ordering in _corpus():
        if graph.n:
            _check_universal_vertex_claws(ordering)


@settings(max_examples=150, deadline=None)
@given(interval_models())
def test_universal_vertex_claws_follow_from_the_ordering_hypothesis(model):
    _check_universal_vertex_claws(model_pipeline(model)[1])
