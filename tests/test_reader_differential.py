"""The document readers against the ones they replaced (kept in
`reader_reference`): `parse_graph` on edge lists led by every line break
`str.splitlines` knows and by blanks that are no break, `parse_ratio` on
every text, and the model and representation readers on whole documents
that mix repeated texts, JSON ints, true, 1.0, null and lists among
strings, canonical and non-canonical spellings of one value, duplicate or
missing ids and keys, lo > hi, distinct fractions that tie on a float
key, and texts past the interpreter's digit limit.  Each document must
give the same value or the same refusal, message and all."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcubes import CubeRepresentation, IntervalModel, parse_graph
from intervalcubes.rationals import parse_ratio

import reader_reference as reference
from rational_table import HOSTILE, TABLE

_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
# a third, and a value below it that a float's fractional part cannot tell apart
_BELOW = f"{10**30 - 3}/{3 * 10**30}"
SPELLINGS = [
    "0", "-0", "1", "-1", "2", "1/2", "2/4", " 1/2", "0.5", "+1", "1_0", "10", "-3/2",
    "-1.5", "7/3", "1/3", _BELOW, "5/16", "10/32", "1/0", "x", "", "1" * (_LIMIT + 1),
    "1/" + "3" * (_LIMIT + 1), "-" + "9" * 50 + "/" + "7" * 49, "3" * 30,
]
values = st.one_of(
    st.sampled_from(SPELLINGS),
    st.sampled_from(HOSTILE),
    st.integers(-(10**20), 10**20),
    st.sampled_from([True, False, 1.0, 0.5, None, [1], ["1"], {"p": 1}]),
)
# mostly good values, so that most documents get past their first record
good = st.one_of(st.sampled_from(["0", "1", "1/2", "2/4", "0.5", "-3/2", "7/3", "1/3", _BELOW]),
                 st.integers(-5, 5))


def outcome(read, obj):
    """The value `read(obj)` gives, or the type and message of its error."""
    try:
        return "value", read(obj)
    except (ValueError, KeyError, TypeError) as exc:
        return type(exc).__name__, str(exc)


# every break `str.splitlines` splits at, and blanks (`str.isspace`) that it does not
BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SPACES = [" ", "\t", "\x1f", "\xa0", "\u3000"]


@st.composite
def edge_lists(draw):
    """A run of breaks and blanks, a header of 0-3 tokens, then edge lines
    (with a blank or malformed line among them at times), each after a
    break of any kind.  The header's counts are often the right ones."""
    breaks, spaces = st.sampled_from(BREAKS), st.sampled_from(SPACES)
    gap = st.text(spaces, min_size=1, max_size=2)
    lead = "".join(draw(st.lists(st.one_of(breaks, spaces), max_size=8)))
    edges = draw(st.lists(st.tuples(st.integers(-1, 4), st.integers(0, 5)), max_size=5))
    lines = [f"{u}{draw(gap)}{v}" for u, v in edges]
    for odd in draw(st.lists(st.sampled_from(["", " ", "\xa0", "x", "1", "1 2 3"]), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), odd)
    token = st.one_of(st.integers(-1, 6).map(str), st.sampled_from(["+2", "-0", "x", "1.5", "\u0663"]))
    counts = st.tuples(st.integers(0, 6).map(str), st.just(str(len(edges)))).map(list)
    head = draw(st.one_of(st.lists(token, max_size=3), counts))
    header = "".join(draw(st.sampled_from(["", " ", "\xa0"])) + t + draw(gap) for t in head)
    return lead + header + "".join(draw(breaks) + line for line in lines) + draw(
        st.sampled_from(["", "\n", "\r", "\u2028"]))


def read_graph(read, text):
    """`read(text)`'s graph and the counts it gave `refuse`, or the type
    and message of its error."""
    seen = []
    return outcome(lambda text: read(text, seen.append), text), seen


@settings(max_examples=1500, deadline=None)
@given(edge_lists())
def test_edge_list_reader_matches_the_reference(text):
    assert read_graph(parse_graph, text) == read_graph(reference.parse_graph, text)


# blanks and header lines either side of the first prefixes the header is
# looked for in, 256 characters and then 4096, with a "\r\n" split across
# their ends
@pytest.mark.parametrize("lead", [
    "", " " * 255 + "\r\n", " " * 254 + "\r\n", "\r\n" * 128, "\n" * 300, "\u2028 " * 3000,
])
@pytest.mark.parametrize("header", [
    "3 2", "3" + " " * 252 + "2", "3" + " " * 253 + "2", "3" + "\t" * 5000 + "2", "3 2 " + "x" * 300,
])
def test_edge_list_reader_matches_the_reference_on_long_runs(lead, header):
    for text in (lead + header + "\r\n0 1\n1 2\n", lead + header, lead):
        assert read_graph(parse_graph, text) == read_graph(reference.parse_graph, text)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.sampled_from([text for text, _ in TABLE]), values))
def test_parse_ratio_matches_the_reference(value):
    assert outcome(parse_ratio, value) == outcome(reference.parse_ratio, value)


@st.composite
def model_documents(draw):
    n = draw(st.integers(0, 8))
    odd = st.sampled_from([True, 1.0, "0", [0]])
    ids = draw(st.one_of(st.permutations(range(n)),
                         st.lists(st.one_of(st.integers(-1, n), odd), min_size=n, max_size=n)))
    end = st.one_of(good, values) if draw(st.booleans()) else good
    records = []
    for i in ids:
        rec = {"id": i, "lo": draw(end), "hi": draw(end)}
        for key in draw(st.lists(st.sampled_from(["id", "lo", "hi"]), max_size=1)):
            del rec[key]
        records.append(rec)
    return draw(st.sampled_from([{"intervals": records}, {"intervals": records},
                                 {"intervals": records + [1]}, {"other": records}, records]))


@settings(max_examples=800, deadline=None)
@given(model_documents())
def test_model_reader_matches_the_reference(obj):
    assert outcome(IntervalModel.from_json_obj, obj) == outcome(reference.model_from_json_obj, obj)


@pytest.mark.parametrize("first, then", [
    (1, True), (0, False), (1, 1.0), ("1", True), (1, [1]), (True, 1), (1, "1"), (2, "2/1"),
])
def test_values_that_compare_equal_never_share_an_entry(first, then):
    """JSON true and 1.0 equal 1, and a list hashes not at all: after a
    value, each is still read or refused on its own."""
    model = {"intervals": [{"id": 0, "lo": first, "hi": first}, {"id": 1, "lo": first, "hi": then}]}
    rep = {"dimension": 2, "side": "1", "coords": [[first, first], [first, then]]}
    assert outcome(IntervalModel.from_json_obj, model) == outcome(
        reference.model_from_json_obj, model)
    assert outcome(CubeRepresentation.from_json_obj, rep) == outcome(
        reference.representation_from_json_obj, rep)


# float keys that tie, denominators whose lcm passes 64 bits, and one value
# in many spellings
TIES = ["1/3", _BELOW, "-1", "1/" + "7" * 30, "2/" + "7" * 30, "0.5", "2/4", "1/2", "4", "8/2"]


def _value(text):
    return Fraction(*reference.parse_ratio(text))


@pytest.mark.parametrize("shift", range(len(TIES)))
def test_model_reader_matches_the_reference_on_ties(shift):
    texts = TIES[shift:] + TIES[:shift]
    pairs = [sorted(p, key=_value) for p in zip(texts, texts[1:] + texts[:1])]
    obj = {"intervals": [{"id": i, "lo": lo, "hi": hi} for i, (lo, hi) in enumerate(pairs)]}
    read = outcome(IntervalModel.from_json_obj, obj)
    assert read == outcome(reference.model_from_json_obj, obj) and read[0] == "value"
    # every interval turned round: the first in id order with lo > hi is refused
    obj = {"intervals": [{"id": i, "lo": hi, "hi": lo} for i, (lo, hi) in enumerate(pairs)]}
    assert outcome(IntervalModel.from_json_obj, obj) == outcome(reference.model_from_json_obj, obj)


@st.composite
def representation_documents(draw):
    d = draw(st.integers(0, 3))
    n = draw(st.integers(0, 6))
    value = st.one_of(good, values) if draw(st.booleans()) else good
    rows = [draw(st.lists(value, min_size=d, max_size=d)) for _ in range(n)]
    if rows and draw(st.integers(0, 9)) == 0:
        rows[draw(st.integers(0, n - 1))] = draw(st.sampled_from([[], ["1"] * (d + 1), "1", None]))
    side = draw(st.one_of(st.sampled_from(["1", "3/2", "1/2", "0", "-1"]), values))
    dimension = draw(st.one_of(st.just(d), st.sampled_from([0, d + 1, -1, True, 1.0])))
    return {"dimension": dimension, "side": side, "coords": rows}


@settings(max_examples=800, deadline=None)
@given(representation_documents())
def test_representation_reader_matches_the_reference(obj):
    assert outcome(CubeRepresentation.from_json_obj, obj) == outcome(
        reference.representation_from_json_obj, obj)
