"""The three document readers that `parse_ratio`, `IntervalModel.from_json_obj`
and `CubeRepresentation.from_json_obj` replaced, kept step for step as the
tests' reference: the rational reader with its one regular expression for
every text, the model reader that parses each endpoint on its own and ranks
them through a float-key dict, and the representation reader that parses
each row value in a list comprehension, caching texts alone.  The readers'
differential requires the same value or the same refusal message from both.
"""

from __future__ import annotations

import re
import sys
from functools import cmp_to_key
from math import gcd, lcm

from intervalcubes.graphs import Record
from intervalcubes.intervals import IntervalModel
from intervalcubes.rationals import format_ratio
from intervalcubes.verify import MAX_UNIT_BITS, CubeRepresentation

_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_RATIONAL = re.compile(r"\s*([-+]?)(?=\.?\d)([\d_]*)(?:\s*/\s*([\d_]+)|\.([\d_]*))?\s*").fullmatch


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
    return _ranked(ends)


def _ranked(ends: list) -> IntervalModel:
    keys = {e: (e[0] // e[1], e[0] % e[1] / e[1]) for e in set(ends)}
    values = sorted(keys, key=keys.__getitem__)
    if len(set(keys.values())) < len(values):
        values.sort(key=cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1]))
    rank = dict(zip(values, range(len(values))))
    ranks = [rank[e] for e in ends]
    lo, hi = tuple(ranks[0::2]), tuple(ranks[1::2])
    for i, (a, b) in enumerate(zip(lo, hi)):
        if a > b:
            a, b = format_ratio(*ends[2 * i]), format_ratio(*ends[2 * i + 1])
            raise ValueError(f"interval {i} has lo > hi: [{a}, {b}]")
    model = IntervalModel.__new__(IntervalModel)
    Record.__init__(model, tuple(values), lo, hi)
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
