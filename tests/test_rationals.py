"""The integer readers and writers of the interchange format against
`Fraction` and the pinned grammar: `parse_ratio` gives what the table
pins, and the value `Fraction` parses, or the error the `Fraction`-based
reference raises, wherever every supported Python's `Fraction` reads the
text alike; `format_ratio` gives the text `str` of the `Fraction` gives,
on generated and hostile input."""

import json
import re
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcubes import (
    CubeRepresentation,
    GenConfig,
    build_alpha_representation,
    build_best,
    build_representation,
    model_to_clique_ordering,
    normalize_unit,
    random_interval_model,
)
from intervalcubes.rationals import format_ratio, parse_ratio

import reader_reference as reference
from conftest import (
    from_rows, interval_models, rational_obj, representation_obj, representation_text, shifted,
    values,
)
from rational_reference import parse_rational
from rational_table import HOSTILE, TABLE, refusal

texts = st.one_of(
    st.from_regex(r"\A[+-]?[0-9]{1,40}(/[0-9]{1,40})?\Z"),
    # blanks `str.strip` strips and digits `int` reads beyond ASCII, and their look-alikes
    st.text(alphabet="0123456789+-/. _eE\t\n\x1c\xa0\u2028\u3000٣١²½\x00", max_size=12),
    st.sampled_from(HOSTILE),
)


def _error(call, value):
    """The message of the ValueError that `call(value)` raises, or None."""
    try:
        call(value)
    except ValueError as exc:
        return str(exc)
    return None


def portable(text: str) -> str:
    """The text as every supported Python's `Fraction` reads it alike:
    underscores between two digits and blanks beside "/" dropped.  Text
    with neither comes back as it is."""
    return re.sub(r"\s*/\s*", "/", re.sub(r"(?<=\d)_(?=\d)", "", text))


def _fraction_or_none(text: str):
    """What `Fraction` reads from the text, with exponents refused as the
    interchange format refuses them."""
    if "e" in text or "E" in text:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def assert_reads_like_fraction(text: str):
    expected = _fraction_or_none(portable(text))
    if expected is None:
        # refused, as the reference refuses it: its message quotes the whole
        # text, and the library's at most its first 40 characters
        assert _error(parse_ratio, text) == refusal(text)
        assert _error(parse_rational, text) == f"not a rational: {text!r}"
    else:
        assert parse_ratio(text) == (expected.numerator, expected.denominator)


@settings(max_examples=600, deadline=None)
@given(texts)
def test_parse_ratio_matches_fraction(text):
    assert_reads_like_fraction(text)


@pytest.mark.parametrize("text", HOSTILE)
def test_parse_ratio_on_hostile_text(text):
    assert_reads_like_fraction(text)


@pytest.mark.parametrize("text, value", TABLE)
def test_parse_ratio_reads_the_pinned_table(text, value):
    if value is None:
        assert _error(parse_ratio, text) == refusal(text)
    else:
        assert parse_ratio(text) == value


def test_a_million_digit_decimal_is_refused_at_the_digit_limit():
    text = "0." + "1" * 10**6
    with pytest.raises(ValueError) as excinfo:
        parse_ratio(text)
    assert str(excinfo.value) == refusal(text)
    assert "Exceeds the limit" in str(excinfo.value.__cause__)


def test_refusal_quotes_a_bounded_prefix():
    text = "0." + "1" * 10**6
    assert _error(parse_ratio, text) == f"not a rational: {text[:40]!r}... (1000002 characters)"
    # anything but text is quoted with reprlib, itself bounded
    assert _error(parse_ratio, [["1"] * 10**6]) == "not a rational: [['1', '1', '1', '1', '1', '1', ...]]"


# decimals around the interpreter's digit limit (4300 by default): digits
# before and after the point, and trailing zeros a reduction drops
long_decimals = st.builds(
    lambda a, i, b, j, zeros: a * i + "." + b * j + "0" * zeros,
    st.sampled_from("0159"), st.integers(0, 4400),
    st.sampled_from("0159"), st.integers(0, 4400), st.integers(0, 4400),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(texts, long_decimals))
def test_every_value_read_is_written_back(text):
    """What `parse_ratio` reads, `format_ratio` writes, and the text it
    writes reads back to the same value."""
    try:
        value = parse_ratio(text)
    except ValueError as exc:
        assert str(exc) == refusal(text)
        return
    assert parse_ratio(format_ratio(*value)) == value


@given(st.integers(-(10**30), 10**30))
def test_parse_ratio_reads_json_integers(value):
    assert parse_ratio(value) == (value, 1)
    assert parse_ratio(str(value)) == (value, 1)


@pytest.mark.parametrize("value", [True, False, 2.5, 1.0, None, [1], {"p": 1}])
def test_parse_ratio_refuses_other_json_values(value):
    assert _error(parse_ratio, value) == _error(parse_rational, value) is not None


# each distinct coordinate string is parsed once; JSON true and 1.0 hash
# like 1 and a list not at all, so they must still be refused, and the
# first bad value in document order is the one reported
@pytest.mark.parametrize(
    "coords, bad",
    [
        ([["1", True]], True),
        ([[1, 1.0]], 1.0),
        ([["1/2", ["x"]]], ["x"]),
        ([["1", "1"], [True, "x"]], True),
        ([["1", "x"], [True, "1"]], "x"),
        ([["2/4", "0"], ["2/4", "x"], ["x", "0"]], "x"),
    ],
)
def test_coordinates_refuse_other_json_values_in_document_order(coords, bad):
    obj = {"dimension": 2, "side": "1", "coords": coords}
    assert _error(CubeRepresentation.from_json_obj, obj) == _error(parse_rational, bad) is not None


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(texts, min_size=2, max_size=2), min_size=1, max_size=6))
def test_repeated_coordinate_strings_read_as_each_alone(rows):
    obj = {"dimension": 2, "side": "1", "coords": rows}
    errors = [_error(parse_ratio, x) for row in rows for x in row]
    first = next((e for e in errors if e is not None), None)
    assert _error(CubeRepresentation.from_json_obj, obj) == first
    if first is None:
        rep = CubeRepresentation.from_json_obj(obj)
        assert [[Fraction(x, rep.unit) for x in col] for col in rep.coords] == [
            [Fraction(*parse_ratio(x)) for x in col] for col in zip(*rows)
        ]


@given(st.integers(-(10**40), 10**40), st.integers(1, 10**40))
def test_format_ratio_matches_fraction_text(numerator, denominator):
    assert format_ratio(numerator, denominator) == str(Fraction(numerator, denominator))
    assert parse_ratio(format_ratio(numerator, denominator)) == (
        Fraction(numerator, denominator).numerator,
        Fraction(numerator, denominator).denominator,
    )


def _built(model):
    ordering = model_to_clique_ordering(model)
    rep, trace = build_representation(ordering)
    built = [rep, build_alpha_representation(ordering), build_best(ordering)]
    return built + [normalize_unit(r) for r in built], trace


def assert_reads_back(rep):
    """The written document holds the record's own ints and unit, JSON
    ints all, reads back as the same record field for field, and the
    rational text earlier versions wrote for it reads as the reader this
    one replaced (`reader_reference`) read it: the same rationals."""
    text = rep.dumps()
    obj = json.loads(text)
    assert obj == representation_obj(rep)
    assert {type(x) for x in chain([obj["side"], obj["unit"]], *obj["coords"])} == {int}
    again = CubeRepresentation.loads(text)
    assert (again.n, again.side, again.coords, again.unit) == (
        rep.n, rep.side, rep.coords, rep.unit)
    old = reference.representation_from_json_obj(rational_obj(rep))
    assert CubeRepresentation.from_json_obj(rational_obj(rep)) == old
    assert values(old) == values(rep)


@settings(max_examples=100, deadline=None)
@given(interval_models())
def test_representation_text_matches_fraction_text_on_builds(model):
    reps, trace = _built(model)
    for rep in reps:
        assert_reads_back(rep)
    if trace is not None:
        assert trace.to_json_obj()["scale"] == [str(Fraction(x, trace.unit)) for x in trace.scale]


def test_representation_text_matches_fraction_text_on_generated_models():
    for dist in ("uniform", "unit-jitter", "nested-heavy"):
        reps, trace = _built(random_interval_model(GenConfig(n=300, seed=3, dist=dist)))
        for rep in reps:
            assert_reads_back(rep)
        assert trace.to_json_obj()["scale"] == [str(Fraction(x, trace.unit)) for x in trace.scale]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_repeated_coordinates_write_as_each_alone(data):
    """Each coordinate is written as its own int on the record's grid:
    the text is byte for byte the document of every row's ints and the
    unit, in the one-row-per-line layout."""
    d = data.draw(st.integers(1, 3))
    unit = data.draw(st.integers(1, 60))
    pool = data.draw(st.lists(st.integers(-(10**15), 10**15), min_size=1, max_size=4))
    row = st.lists(st.sampled_from(pool), min_size=d, max_size=d).map(tuple)
    coords = tuple(data.draw(st.lists(row, min_size=1, max_size=8)))
    side = data.draw(st.sampled_from([x for x in pool if x > 0] or [unit]))
    rep = from_rows(coords, side, unit)
    alone = {"dimension": d, "side": side, "unit": unit, "coords": [list(row) for row in coords]}
    assert rep.dumps() == representation_text(alone)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_representation_text_matches_fraction_text_on_random_grids(data):
    d = data.draw(st.integers(0, 3))
    unit = data.draw(st.integers(1, 10**12))
    coord = st.lists(st.integers(-(10**15), 10**15), min_size=d, max_size=d)
    rows = data.draw(st.lists(coord, max_size=6))
    if d and not rows:
        rows = [[0] * d]
    assert_reads_back(from_rows(rows, data.draw(st.integers(1, 10**15)), unit))


@settings(max_examples=100, deadline=None)
@given(interval_models(), st.data())
def test_a_mixed_document_reads_as_its_rational_text_did(model, data):
    """Ints with a few texts, as the benchmark's corrupted copy of a
    written document holds, read as the rationals the same copy of the
    rational-text document gave the reader this one replaced; texts too
    count units of 1/unit."""
    for rep in _built(model)[0]:
        if rep.dimension:
            moved = data.draw(st.sets(st.integers(0, rep.n - 1), max_size=3))
            mixed = CubeRepresentation.from_json_obj(shifted(representation_obj(rep), moved))
            old = reference.representation_from_json_obj(shifted(rational_obj(rep), moved))
            assert values(mixed) == values(old)
    obj = {"dimension": 2, "side": "3/2", "unit": 4, "coords": [[1, "1/3"], ["-2", 0]]}
    rep = CubeRepresentation.from_json_obj(obj)
    # the grid is the unit times the lcm of the texts' denominators, 4 * 6
    assert (rep.side, rep.coords, rep.unit) == (9, ((6, -12), (2, 0)), 24)
    F = Fraction
    assert values(rep) == (F(3, 8), [[F(1, 4), F(-1, 2)], [F(1, 12), 0]])
