"""The integer readers and writers of the interchange format against
`Fraction` and the pinned grammar: `parse_ratio` gives what the table
pins, and the value `Fraction` parses, or the error the `Fraction`-based
reference raises, wherever every supported Python's `Fraction` reads the
text alike; `format_ratio` gives the text `str` of the `Fraction` gives,
on generated and hostile input."""

import re
from fractions import Fraction

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

from conftest import from_rows, interval_models, representation_obj, representation_text
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


def fraction_json(rep) -> dict:
    """A representation's JSON as `str` of each value's `Fraction` writes it."""
    return {
        "dimension": rep.dimension,
        "side": str(Fraction(rep.side, rep.unit)),
        "coords": [[str(Fraction(col[v], rep.unit)) for col in rep.coords] for v in range(rep.n)],
    }


def _built(model):
    ordering = model_to_clique_ordering(model)
    rep, trace = build_representation(ordering)
    built = [rep, build_alpha_representation(ordering), build_best(ordering)]
    return built + [normalize_unit(r) for r in built], trace


@settings(max_examples=100, deadline=None)
@given(interval_models())
def test_representation_text_matches_fraction_text_on_builds(model):
    reps, trace = _built(model)
    for rep in reps:
        assert representation_obj(rep) == fraction_json(rep)
        assert CubeRepresentation.loads(rep.dumps()) == rep
    if trace is not None:
        assert trace.to_json_obj()["scale"] == [str(Fraction(x, trace.unit)) for x in trace.scale]


def test_representation_text_matches_fraction_text_on_generated_models():
    for dist in ("uniform", "unit-jitter", "nested-heavy"):
        reps, trace = _built(random_interval_model(GenConfig(n=300, seed=3, dist=dist)))
        for rep in reps:
            assert representation_obj(rep) == fraction_json(rep)
        assert trace.to_json_obj()["scale"] == [str(Fraction(x, trace.unit)) for x in trace.scale]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_repeated_coordinates_write_as_each_alone(data):
    """Each distinct value is formatted once per document; the text is
    byte for byte what formatting every coordinate on its own gives, in
    the one-row-per-line layout."""
    d = data.draw(st.integers(1, 3))
    unit = data.draw(st.integers(1, 60))
    pool = data.draw(st.lists(st.integers(-(10**15), 10**15), min_size=1, max_size=4))
    row = st.lists(st.sampled_from(pool), min_size=d, max_size=d).map(tuple)
    coords = tuple(data.draw(st.lists(row, min_size=1, max_size=8)))
    side = data.draw(st.sampled_from([x for x in pool if x > 0] or [unit]))
    rep = from_rows(coords, side, unit)
    alone = {
        "dimension": d,
        "side": format_ratio(side, unit),
        "coords": [[format_ratio(x, unit) for x in row] for row in coords],
    }
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
    rep = from_rows(rows, data.draw(st.integers(1, 10**15)), unit)
    obj = representation_obj(rep)
    assert obj == fraction_json(rep)
    # read back onto the coarsest grid: the same values
    again = CubeRepresentation.from_json_obj(obj)
    assert Fraction(again.side, again.unit) == Fraction(rep.side, rep.unit)
    assert again.n == rep.n
    assert [[Fraction(x, again.unit) for x in col] for col in again.coords] == [
        [Fraction(x, rep.unit) for x in col] for col in rep.coords
    ]
