"""`write_json`, the one writer of every document, against `json.dumps`:
byte for byte `json.dumps(obj, indent=2, sort_keys=True)` and a newline,
on any value of dicts with text keys, lists, tuples and scalars and on
every object a command writes; and with `inline`, the layout of a
representation's trace, every list of scalars on one line."""

import json
from io import StringIO

from hypothesis import example, given, settings
from hypothesis import strategies as st

from intervalcubes import (
    GenConfig,
    IntervalModel,
    exact_cubicity,
    label_vertices,
    model_to_clique_ordering,
    model_to_graph,
    param_report,
    random_interval_model,
    tightness_search,
)
from intervalcubes.graphs import write_json
from intervalcubes.verify import verify_representation

from conftest import from_rows, interval_models

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**30), 10**30),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8),
    # brackets, separators and newlines inside strings, and text past ASCII
    st.sampled_from(["],\n    [", "}, {", "é", " ", '"', "\\", "\x00", "[", "]"]),
)
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=5),
        # rows: lists, or dicts, of scalars of one shape
        st.lists(st.lists(scalars, min_size=1, max_size=3), min_size=1, max_size=4),
        st.lists(st.dictionaries(st.sampled_from("abc"), scalars, min_size=1), max_size=4),
    ),
    max_leaves=40,
)


def written(obj, inline=False) -> str:
    buffer = StringIO()
    write_json(obj, buffer, inline)
    return buffer.getvalue()


def inline_layout(value, pad="\n") -> str:
    """The `inline` layout, one value at a time: `json.dumps(indent=2,
    sort_keys=True)`, but a non-empty list of scalars as `json.dumps`
    writes it unindented."""
    inner = pad + "  "
    if isinstance(value, (list, tuple)) and value:
        if not any(isinstance(x, (list, tuple, dict)) for x in value):
            return json.dumps(value)
        return "[" + ",".join(inner + inline_layout(x, inner) for x in value) + pad + "]"
    if isinstance(value, dict) and value:
        items = sorted(value.items())
        return "{" + ",".join(f"{inner}{json.dumps(k)}: {inline_layout(v, inner)}"
                              for k, v in items) + pad + "}"
    return json.dumps(value)


@settings(max_examples=1000, deadline=None)
@given(documents)
def test_written_as_json_dumps_writes_it(obj):
    assert written(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert written(obj, inline=True) == inline_layout(obj) + "\n"


def test_long_lists_cross_the_encoder_slices():
    for obj in [list(range(3000)), [[i, -i] for i in range(2500)],
                [{"id": i, "lo": str(i), "hi": f"{i}/2"} for i in range(2100)],
                {"a": [[i] for i in range(1025)], "b": list("x" * 1024)}]:
        assert written(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _command_documents(model, rep):
    """Every document a command writes but `construct`'s, on `model` and,
    for `verify`, on `rep`."""
    ordering = model_to_clique_ordering(model)
    graph = model_to_graph(model)
    docs = [
        {"interval": True, "cliques": ordering.k},
        {"interval": False, "reason": "not chordal: no perfect elimination ordering"},
        ordering.to_json_obj(),
        label_vertices(ordering).to_json_obj(),
        param_report(ordering).to_json_obj(),
        model.to_json_obj(),
        verify_representation(model, rep).to_json_obj(),
        verify_representation(graph, rep).to_json_obj(),
    ]
    if model.n <= 6:
        docs += [exact_cubicity(graph).to_json_obj(), exact_cubicity(graph, b_max=1).to_json_obj()]
    return docs


@settings(max_examples=100, deadline=None)
@given(interval_models(), st.data())
def test_every_command_document_is_written_as_json_dumps_writes_it(model, data):
    d = data.draw(st.integers(0, 3))
    coord = st.lists(st.integers(-4, 4), min_size=d, max_size=d)
    rep = from_rows(data.draw(st.lists(coord, min_size=model.n, max_size=model.n)), 1)
    for obj in _command_documents(model, rep):
        assert written(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_generated_and_search_documents_are_written_as_json_dumps_writes_them():
    model = random_interval_model(GenConfig(n=300, seed=3, dist="unit-jitter"))
    rep = from_rows([[v % 7, v % 5] for v in range(model.n)], 2)
    docs = _command_documents(model, rep)
    docs.append(tightness_search(count=40, n_max=6, seed=1).to_json_obj())
    for obj in docs:
        assert written(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@settings(max_examples=100, deadline=None)
@given(interval_models())
@example(IntervalModel(()))
def test_model_dumps_is_the_writers_text(model):
    """`IntervalModel.dumps` writes through `write_json`, as
    `CubeRepresentation.dumps` does, less the final newline."""
    assert model.dumps() == json.dumps(model.to_json_obj(), indent=2, sort_keys=True)
