"""The CLI's exit-code contract on hostile input: whatever the documents,
`cli.main` returns one of the documented codes (0, 1, 2, 3, 64, 65) and
lets no exception escape.  Hypothesis mutates a model, an edge list and a
representation that every command accepts as they stand, record by
record (a hostile value, a missing key, lo > hi, a denominator too wide
for one grid, a record dropped or repeated) and character by character,
and runs `recognize`, `order`, `label`, `params`, each `construct`
variant, `verify` and `exact` on the result."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcubes import (
    GenConfig, build_best, model_to_clique_ordering, model_to_graph, random_interval_model,
    serialize_graph,
)
from intervalcubes.cli import main

CODES = {0, 1, 2, 3, 64, 65}
COMMANDS = [
    ["recognize"], ["order"], ["label"], ["params"], ["exact"],
    ["construct", "--variant", "claw", "--trace"], ["construct", "--variant", "alpha"],
    ["construct", "--variant", "best", "--normalize"],
]

_model = random_interval_model(GenConfig(6, 1, "unit-jitter"))
MODEL = _model.to_json_obj()
REPRESENTATION = json.loads(build_best(model_to_clique_ordering(_model)).dumps())
EDGES = serialize_graph(model_to_graph(_model))

# values a document may hold, and values no document may hold
VALUES = st.one_of(
    st.integers(-3, 40), st.sampled_from(["1/2", "-1", "7/16", "5", "0.25"]), st.sampled_from([
        True, False, None, 1.0, 0.5, 10**30, "x", "", "1/0", "1e3", " 7 ", "1/" + "7" * 300,
        "2/" + "3" * 250, "1/" + "3" * 320, "9" * 5000, [0], ["1"], {},
    ]),
)
# what a character-level mutation inserts: JSON's punctuation, digits, blanks
# and a few characters no document holds; at most two mutations, so an
# edge list's header grows to a few hundred vertices at most
CHARACTERS = st.sampled_from(list('{}[],:"-/.0123456789 \n\t\\x\x00é٣'))


@st.composite
def mutated_text(draw, text: str) -> str:
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + text[at + draw(st.integers(1, 4)):]
        else:
            text = text[:at] + draw(CHARACTERS) + text[at:]
    return text


@st.composite
def mutated_models(draw) -> str:
    records = [dict(rec) for rec in MODEL["intervals"]]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(records) - 1))
        change = draw(st.sampled_from(["value", "delete", "swap", "drop", "repeat", "record"]))
        rec = records[i] if isinstance(records[i], dict) else {}
        if change == "value":
            rec[draw(st.sampled_from(["id", "lo", "hi"]))] = draw(VALUES)
        elif change == "delete":
            rec.pop(draw(st.sampled_from(["id", "lo", "hi"])), None)
        elif change == "swap":
            rec["lo"], rec["hi"] = rec.get("hi"), rec.get("lo")
        elif change == "drop" and len(records) > 1:
            del records[i]
        elif change == "repeat":
            records.append(dict(rec))
        elif change == "record":
            records[i] = draw(VALUES)
    doc = draw(st.sampled_from([{"intervals": records}] * 4 + [{"other": records}, records]))
    return draw(mutated_text(json.dumps(doc)))


@st.composite
def mutated_edge_lists(draw) -> str:
    """Edges added and removed, which may leave an interval graph or not,
    and odd lines, under a header that counts them or an odd one."""
    n, header = len(MODEL["intervals"]), None
    lines = EDGES.splitlines()[1:]
    odd = st.sampled_from(["", "x", "0 0", "0 99", "-1 2", "1 2 3", "3", "1.5 2", "6 6", "9 0"])
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines)))
        change = draw(st.sampled_from(["edge", "edge", "delete", "odd", "header"]))
        if change == "edge":
            u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            lines.insert(i, f"{u} {v}")
        elif change == "delete" and lines:
            del lines[i - 1]
        elif change == "odd":
            lines.insert(i, draw(odd))
        elif change == "header":
            header = draw(odd)
    header = f"{n} {sum(map(bool, map(str.strip, lines)))}" if header is None else header
    return draw(mutated_text("\n".join([header, *lines]) + "\n"))


@st.composite
def mutated_representations(draw) -> str:
    doc = {**REPRESENTATION, "coords": [list(row) for row in REPRESENTATION["coords"]]}
    rows = doc["coords"]
    for _ in range(draw(st.integers(0, 3))):
        change = draw(st.sampled_from(["key", "delete", "value", "row", "drop", "extend"]))
        i = draw(st.integers(0, len(rows) - 1)) if rows else 0
        if change == "key":
            doc[draw(st.sampled_from(["dimension", "side", "unit", "coords"]))] = draw(VALUES)
        elif change == "delete":
            doc.pop(draw(st.sampled_from(["dimension", "side", "unit", "coords"])), None)
        elif change == "value" and rows and isinstance(rows[i], list) and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(VALUES)
        elif change == "row" and rows:
            rows[i] = draw(VALUES)
        elif change == "drop" and rows:
            del rows[i]
        elif change == "extend" and rows and isinstance(rows[i], list):
            rows[i].append(0)
    return draw(mutated_text(json.dumps(doc)))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory holding the unmutated model, edge list and
    representation, beside which each example writes its mutated one."""
    where = tmp_path_factory.mktemp("exit-codes")
    (where / "model.json").write_text(json.dumps(MODEL))
    (where / "edges.txt").write_text(EDGES)
    (where / "rep.json").write_text(json.dumps(REPRESENTATION))
    return where


def code_of(*argv) -> int:
    """`main`'s return value, its output and messages discarded."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main([str(word) for word in argv])
    assert code in CODES, (argv, code)
    return code


def test_the_unmutated_documents_pass(work):
    for name in ("model.json", "edges.txt"):
        assert [code_of(*command, work / name) for command in COMMANDS] == [0] * len(COMMANDS)
        assert code_of("verify", work / name, work / "rep.json") == 0


@settings(max_examples=300, deadline=None)
@given(st.one_of(mutated_models(), mutated_edge_lists()))
def test_mutated_graph_inputs_exit_with_a_documented_code(work, text):
    path = work / "mutated.input"
    path.write_text(text, encoding="utf-8")
    for command in COMMANDS:
        code_of(*command, path)
    code_of("verify", path, work / "rep.json")


@settings(max_examples=300, deadline=None)
@given(mutated_representations())
def test_mutated_representations_exit_with_a_documented_code(work, text):
    path = work / "mutated.rep.json"
    path.write_text(text, encoding="utf-8")
    for graph in ("model.json", "edges.txt"):
        code_of("verify", work / graph, path)
