"""The four readers that `parse_graph`, `parse_ratio`,
`IntervalModel.from_json_obj` and `CubeRepresentation.from_json_obj`
replaced, kept step for step as the tests' reference: the edge-list reader
that finds its header line with a regular expression, the rational reader
with its one regular expression for every text, the model reader that
parses each endpoint on its own and puts it on the model's grid through
its Fraction, and the representation reader that parses each row value
in a list comprehension, caching texts alone.  The readers' differential
requires the same value or the same refusal message from both.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

from intervalcubes.graphs import MAX_UNIT_BITS, MAX_VERTICES, Graph, GraphParseError, Record
from intervalcubes.intervals import IntervalModel
from intervalcubes.verify import CubeRepresentation

_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_RATIONAL = re.compile(r"\s*([-+]?)(?=\.?\d)([\d_]*)(?:\s*/\s*([\d_]+)|\.([\d_]*))?\s*").fullmatch


def parse_graph(text: str, refuse=None) -> Graph:
    # the header is the rest of the line holding the first non-space
    # character, up to the next of the line breaks `str.splitlines` knows,
    # and its number is that of the last line of the blanks before it
    blanks, head = re.match(r"(\s*)([^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*)", text).groups()
    if not head:
        raise GraphParseError("missing header line")
    head_no = len((blanks + "#").splitlines())
    parts = head.split()
    if len(parts) != 2:
        raise GraphParseError("header must be 'n m'", head_no)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphParseError("header must be two integers", head_no) from None
    if n < 0 or m < 0:
        raise GraphParseError("header counts must be non-negative", head_no)
    if n > MAX_VERTICES:
        raise GraphParseError(f"{n} vertices exceeds the limit of {MAX_VERTICES}", head_no)
    if refuse:
        refuse(n)
    lines = text.splitlines()
    found = sum(1 for ln in islice(lines, head_no, None) if ln and not ln.isspace())
    if found != m:
        raise GraphParseError(f"expected {m} edge lines, found {found}")

    def edges():
        for no, ln in islice(enumerate(lines, 1), head_no, None):
            parts = ln.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise GraphParseError("edge line must be 'u v'", no)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError("edge endpoints must be integers", no) from None
            if u == v:
                raise GraphParseError(f"self-loop at vertex {u}", no)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphParseError(f"endpoint out of range [0, {n})", no)
            yield u, v

    return Graph(n, edges())


def parse_ratio(value) -> tuple[int, int]:
    if type(value) is int:
        return value, 1
    match = _RATIONAL(value) if isinstance(value, str) else None
    if match:
        sign, num, den, decimals = match.groups()
        try:
            p, q, d = int(num or 0), int(den or 1), int(decimals or 0)
        except ValueError as exc:
            raise _refusal(value) from exc
        if decimals:
            q = 10 ** len(decimals.replace("_", ""))
            p = p * q + d
        if q:
            g = gcd(p, q)
            p, q = p // g, q // g
            if not decimals or _writable(p, q, len(num) + len(decimals)):
                return (-p if sign == "-" else p), q
    raise _refusal(value)


def _writable(p: int, q: int, digits: int) -> bool:
    limit = _max_str_digits()
    return not limit or digits < limit or max(p, q) < 10**limit


def _refusal(value) -> ValueError:
    if isinstance(value, str):
        shown = repr(value) if len(value) <= 40 else f"{value[:40]!r}... ({len(value)} characters)"
    else:
        from reprlib import repr as bounded

        shown = bounded(value)
    return ValueError(f"not a rational: {shown}")


def model_from_json_obj(obj) -> IntervalModel:
    records = obj["intervals"] if isinstance(obj, dict) else None
    if not isinstance(records, list) or not all(isinstance(rec, dict) for rec in records):
        raise ValueError("a model is an object with a list of interval records")
    ends: list[tuple[int, int] | None] = [None] * (2 * len(records))
    for rec in records:
        i = rec["id"]
        if type(i) is not int or not (0 <= i < len(records)) or ends[2 * i] is not None:
            raise ValueError(f"interval ids must be a permutation of 0..{len(records) - 1}")
        ends[2 * i : 2 * i + 2] = parse_ratio(rec["lo"]), parse_ratio(rec["hi"])
    return _on_grid(ends)


def _on_grid(ends: list) -> IntervalModel:
    values = [Fraction(p, q) for p, q in ends]
    unit = 1
    for q in {x.denominator for x in values}:
        unit = lcm(unit, q)
        if unit.bit_length() > MAX_UNIT_BITS:
            raise ValueError(f"the common grid needs a unit of more than {MAX_UNIT_BITS} bits")
    for i, (a, b) in enumerate(zip(values[0::2], values[1::2])):
        if a > b:
            raise ValueError(f"interval {i} has lo > hi: [{a}, {b}]")
    grid = [int(x * unit) for x in values]
    model = IntervalModel.__new__(IntervalModel)
    Record.__init__(model, unit, tuple(grid[0::2]), tuple(grid[1::2]))
    return model


def representation_from_json_obj(obj) -> CubeRepresentation:
    if not isinstance(obj, dict):
        raise ValueError("a representation is a JSON object")
    dimension, (side, side_q), rows = obj["dimension"], parse_ratio(obj["side"]), obj["coords"]
    if type(dimension) is not int or dimension < 0 or side <= 0:
        raise ValueError("dimension must be an integer >= 0 and side positive")
    if not isinstance(rows, list) or any(
        not isinstance(row, list) or len(row) != dimension for row in rows
    ):
        raise ValueError("coords must be a list of vectors of length dimension")
    seen: dict[str, tuple[int, int]] = {}
    rows = [[seen.get(x) or seen.setdefault(x, parse_ratio(x)) if type(x) is str
             else parse_ratio(x) for x in row] for row in rows]
    unit = side_q
    for q in {q for row in rows for _, q in row}:
        unit = lcm(unit, q)
        if unit.bit_length() > MAX_UNIT_BITS:
            raise ValueError(f"the common grid needs a unit of more than {MAX_UNIT_BITS} bits")
    coords = tuple(tuple(p * (unit // q) for p, q in col) for col in zip(*rows))
    if len(coords) != dimension:
        raise ValueError("dimension must be 0 when coords is empty")
    return CubeRepresentation(len(rows), side * (unit // side_q), coords, unit)
