"""build_best against both public variants, both variants against the
paper's route through padding and a universal vertex (kept in
`padding_reference`), that route's ordering edits against graphs built
independently from the input, and the integer grid of every
representation built."""

from hypothesis import given, settings

from intervalcubes import (
    CubeRepresentation,
    Graph,
    Labelling,
    build_alpha_representation,
    build_best,
    build_representation,
    label_vertices,
    normalize_unit,
    recognize_and_order,
    verify_representation,
)
from intervalcubes import construct, labelling, params
from intervalcubes.construct import best_dimension

from conftest import (
    adjacency_claw_number,
    augmented_graph,
    claw_number,
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
from padding_reference import (
    augment_with_universal,
    padded_claw_build,
    psi_values,
    universal_alpha_build,
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
        assert _all_ints(trace.scale)
        assert check_trace(trace, ordering, claw_rep.coords).ok
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


def _check_against_padding_reference(graph, ordering) -> int:
    """Each variant against the paper's route: the same dimension, both
    verify, the same levels on the input's vertices, and the same JSON
    whenever that route adds no pendant, that is when psi (claw variant)
    or alpha (alpha variant) is a power of two, or below 2.  Returns how
    many of the two variants the route padded."""
    psi, lab = params.parameters(ordering)
    rep, trace = build_representation(ordering)
    if trace is not None:
        assert trace.labelling == lab
    padded = 0
    pairs = (
        (rep, *padded_claw_build(ordering), psi),
        (build_alpha_representation(ordering), *universal_alpha_build(ordering), lab.alpha),
    )
    for built, reference, ref_trace, size in pairs:
        assert built.dimension == reference.dimension
        assert verify_representation(graph, built).ok
        assert verify_representation(graph, reference).ok
        if ref_trace is not None:
            assert ref_trace.labelling.levels[: ordering.n] == lab.levels
            padded += ref_trace.padded.added > 0
        if size & (size - 1) == 0 or size < 2:
            assert built.dumps() == reference.dumps()
    return padded


def test_builds_match_padding_reference():
    padded = sum(_check_against_padding_reference(*case) for case in _corpus())
    assert padded > 10


@settings(max_examples=150, deadline=None)
@given(interval_models())
def test_builds_match_padding_reference_hypothesis(model):
    graph, ordering = model_pipeline(model)
    _check_against_padding_reference(graph, ordering)
    _check_against_padding_reference(graph, recognize_and_order(graph))


def test_padding_reference_on_rebuilt_graphs():
    """The reference's padded claw number, known by construction, equals a
    full claw pass on the padded graph rebuilt from the input, and the
    padded ordering describes exactly that graph; likewise for the
    universal vertex, whose claw number is the independence number."""
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
        aug, aug_ordering = augmented_graph(graph), augment_with_universal(ordering)
        assert range_graph(aug_ordering) == aug
        if alpha >= 2:
            assert adjacency_claw_number(aug_ordering, aug)[0] == alpha
            _, trace = padded_claw_build(aug_ordering)
            rebuilt = padded_graph(aug, trace.padded)
            assert adjacency_claw_number(trace.padded.ordering, rebuilt)[0] == trace.claw
            assert range_graph(trace.padded.ordering) == rebuilt
    assert padded_count > 10


def test_build_best_runs_one_claw_pass_and_one_variant(monkeypatch):
    calls = {"psi": 0, "witness": 0, "build": 0, "alpha": 0, "graph": 0}

    def counting(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(params, "vertex_claws", counting("psi", params.vertex_claws))
    # the witness walk, bound in params; the labelling walks its own binding
    monkeypatch.setattr(params, "earliest_finish", counting("witness", params.earliest_finish))
    monkeypatch.setattr(construct, "_build", counting("build", construct._build))
    monkeypatch.setattr(construct, "_build_alpha", counting("alpha", construct._build_alpha))
    monkeypatch.setattr(Graph, "__init__", counting("graph", Graph.__init__))

    winners = set()
    for graph, ordering in _corpus():
        calls.update(dict.fromkeys(calls, 0))
        build_best(ordering)
        assert calls["graph"] == 0
        # no witness walk: the build needs psi, not a witness
        assert calls["witness"] == 0
        assert calls["psi"] == 1
        # the alpha variant runs the one build on the input itself
        assert calls["build"] <= 1
        if calls["build"]:
            winners.add("alpha" if calls["alpha"] else "claw")
    assert winners == {"claw", "alpha"}


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
    """Each variant makes the suffix-best table exactly once, on the input
    ordering, whatever its claw and independence numbers."""
    seen = count_suffix_best(monkeypatch)
    for graph, ordering in _corpus():
        for builder in (build_representation, build_alpha_representation, build_best):
            seen.clear()
            builder(ordering)
            assert len(seen) == 1
            assert seen[0] is ordering


def _check_universal_vertex_claws(ordering):
    claws, lab = psi_values(ordering), label_vertices(ordering)
    augmented = augment_with_universal(ordering)
    assert psi_values(augmented) == [max(c, 1) for c in claws] + [lab.alpha]
    # the universal vertex is never an anchor, and sits at level 0
    assert label_vertices(augmented) == Labelling(lab.levels + (0,), lab.anchors)


def test_universal_vertex_claws_follow_from_the_ordering():
    """The reference alpha route builds on the ordering plus a universal
    vertex with psi values and a labelling read off the ordering's own
    pass: the universal vertex's psi is alpha, and it lifts no other but a
    0 to 1; it adds level 0 and no anchor."""
    for graph, ordering in _corpus():
        if graph.n:
            _check_universal_vertex_claws(ordering)


@settings(max_examples=150, deadline=None)
@given(interval_models())
def test_universal_vertex_claws_follow_from_the_ordering_hypothesis(model):
    _check_universal_vertex_claws(model_pipeline(model)[1])
