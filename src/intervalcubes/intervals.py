"""Interval models and linear orderings of maximal cliques.

An interval graph's maximal cliques can be linearly ordered so that the
cliques containing any one vertex are consecutive.  The CliqueOrdering
type is that witness, kept as each vertex's leftmost and rightmost clique
index alone: clique C_j is every vertex whose range holds j, so no
clique list is stored or written.  Everything downstream (labelling,
coordinate construction) consumes orderings, not raw models.  A model is
ranked once, when it is made, so the sweep, `model_to_graph` and the
verifier compare small ints, and neither loading nor ranking builds a
Fraction.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from functools import cmp_to_key
from itertools import chain, compress, count, islice, repeat
from math import lcm
from operator import gt, itemgetter

from .graphs import Graph, Record
from .rationals import format_ratio, parse_ratio

# the shapes of the seeded random models `generate` makes; kept here so
# that the CLI's parser does not load `generate`
DISTRIBUTIONS = ("uniform", "unit-jitter", "nested-heavy")


class IntervalModel(Record):
    """Per-vertex closed intervals with exact rational endpoints, kept as
    ranks: `values` holds the distinct endpoints in increasing order as
    reduced (numerator, denominator) pairs, and interval v is
    [values[lo[v]], values[hi[v]]].  Built from (lo, hi) pairs of ints or
    Fractions, which `intervals` gives back, as ints where integral."""

    __slots__ = ("values", "lo", "hi")

    def __init__(self, intervals):
        _ranked(self, [(x.numerator, x.denominator) for iv in intervals for x in iv])

    @property
    def n(self) -> int:
        return len(self.lo)

    @property
    def intervals(self) -> tuple:
        from fractions import Fraction

        exact = [p if q == 1 else Fraction(p, q) for p, q in self.values]
        return tuple((exact[a], exact[b]) for a, b in zip(self.lo, self.hi))

    def to_json_obj(self) -> dict:
        text = [format_ratio(p, q) for p, q in self.values]
        ends = enumerate(zip(self.lo, self.hi))
        return {"intervals": [{"id": i, "lo": text[a], "hi": text[b]} for i, (a, b) in ends]}

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj) -> "IntervalModel":
        """The model a document holds, each distinct endpoint text parsed
        once.  Records that are not all well formed are read again one at
        a time, so the refusal is the one the first bad record gives."""
        records = obj["intervals"] if isinstance(obj, dict) else None
        if not isinstance(records, list) or not all(map(isinstance, records, repeat(dict))):
            raise ValueError("a model is an object with a list of interval records")
        try:
            by_id = sorted(records, key=itemgetter("id"))
            ids = list(map(itemgetter("id"), by_id))
            texts = list(chain.from_iterable(map(itemgetter("lo", "hi"), by_id)))
            # true and 1.0 equal 1: ids are ints, and only texts and ints share entries
            if ids != list(range(len(ids))) or {*map(type, ids), *map(type, texts)} - {str, int}:
                raise ValueError
            # each distinct text's pair, set in place: only the values change
            pairs = dict.fromkeys(texts)
            pairs.update(zip(pairs, map(parse_ratio, pairs)))
        except (KeyError, TypeError, ValueError):
            seen = set()
            for rec in records:
                i = rec["id"]
                if type(i) is not int or not (0 <= i < len(records)) or i in seen:
                    raise ValueError(f"interval ids must be a permutation of 0..{len(records) - 1}")
                seen.add(i)
                parse_ratio(rec["lo"]), parse_ratio(rec["hi"])
            raise
        return _ranked(cls.__new__(cls), list(map(pairs.__getitem__, texts)))

    @classmethod
    def loads(cls, text: str) -> "IntervalModel":
        return cls.from_json_obj(read_json(text))


def read_json(text: str):
    """`json.loads`, with a document nested too deep for its parser
    refused as malformed (ValueError), not with a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def write_json(obj, handle, inline: bool = False) -> None:
    """Write `obj`, of dicts with text keys, lists, tuples and scalars, and
    a newline as `json.dumps(obj, indent=2, sort_keys=True)` lays it out;
    with `inline`, each non-empty list of scalars on one line, as
    `json.dumps(list)` writes it.  An iterator's items, JSON texts
    already, are written one per line.  The text reaches `handle` 64 KiB
    or more a write, never whole."""
    text = ""
    for chunk in _chunks(obj, "\n", inline):
        text += chunk
        if len(text) >= 1 << 16:
            handle.write(text)
            text = ""
    handle.write(text + "\n")


_SCALARS = {str, int, float, bool, type(None)}


def _chunks(value, pad: str, inline: bool):
    """`value`'s text at the indentation `pad`, in chunks.  A list of
    scalars, or of rows (non-empty lists, or dicts, of scalars), goes
    through json's C encoder 1024 members a call, its item separator
    carrying the newline and the indentation."""
    kind, inner = type(value), pad + "  "
    opener, closer = "{}" if kind is dict else "[]"
    flat = kind in (list, tuple) and set(map(type, value)) <= _SCALARS
    if kind in _SCALARS or not value or inline and flat:
        yield json.dumps(value)
        return
    if kind not in (list, tuple, dict):  # an iterator of texts
        for i, lines in enumerate(iter(lambda: ("," + inner).join(islice(value, 4096)), "")):
            yield ("," if i else opener) + inner + lines
    elif flat or kind is not dict and (row := _rows(value, inline)):
        sep = inner if flat else inner + "  "
        encode = json.JSONEncoder(sort_keys=True, separators=("," + sep, ": ")).encode
        for i in range(0, len(value), 1024):
            text = encode(value[i : i + 1024])[1:-1]
            if not flat:  # newlines in strings are escaped, so rows meet only here
                ends = inner + row[1] + "," + inner + row[0] + sep
                text = row[0] + sep + text[1:-1].replace(row[1] + "," + sep + row[0], ends)
                text += inner + row[1]
            yield ("," if i else opener) + inner + text
    else:
        for i, key in enumerate(sorted(value) if kind is dict else range(len(value))):
            yield ("," if i else opener) + inner + (json.dumps(key) + ": " if kind is dict else "")
            yield from _chunks(value[key], inner, inline)
    yield pad + closer


def _rows(value: list, inline: bool) -> str:
    """The brackets of `value`'s rows, "[]" or "{}", when its members are
    all non-empty lists, or all non-empty dicts, of scalars; else ""."""
    kinds = set(map(type, value))
    row = "{}" if kinds == {dict} else "[]" if kinds <= {list, tuple} else ""
    members = chain.from_iterable(map(dict.values, value) if row == "{}" else value)
    return row if row and not inline and all(value) and set(map(type, members)) <= _SCALARS else ""


def _ranked(model: IntervalModel, ends: list) -> IntervalModel:
    """`model` with its fields set from `ends`, the (numerator, denominator)
    pairs lo_0, hi_0, lo_1, ...; ValueError if some lo > hi.  Under a
    common denominator of at most 64 bits, each value's key is its exact
    multiple of 1/lcm, an int.  Otherwise the key is the pair: the
    distinct pairs are sorted by integer part, then by fractional part as
    a float (division of ints rounds correctly, so monotonically), and
    only distinct values that tie on both send the sort to an exact
    comparison of cross products."""
    unit = 1
    for q in {q for _, q in ends}:
        unit = lcm(unit, q)
        if unit.bit_length() > 64:
            floats = {e: (e[0] // e[1], e[0] % e[1] / e[1]) for e in set(ends)}
            ordered = sorted(floats, key=floats.__getitem__)
            if len(set(floats.values())) < len(ordered):
                ordered.sort(key=cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1]))
            keys = ends
            break
    else:
        keys = [p * (unit // q) for p, q in ends]
        ordered = sorted(set(keys))
    values = tuple(map(dict(zip(keys, ends)).__getitem__, ordered))
    ranks = list(map(dict(zip(ordered, count())).__getitem__, keys))
    lo, hi = tuple(ranks[0::2]), tuple(ranks[1::2])
    i = next(compress(count(), map(gt, lo, hi)), None)
    if i is not None:
        a, b = format_ratio(*ends[2 * i]), format_ratio(*ends[2 * i + 1])
        raise ValueError(f"interval {i} has lo > hi: [{a}, {b}]")
    Record.__init__(model, values, lo, hi)
    return model


class CliqueOrdering(Record):
    """Maximal cliques C_0..C_{k-1} in consecutive order, kept as the
    number of cliques `k` and per-vertex leftmost/rightmost clique
    indices (`left`, `right`, tuples of ints): C_j holds the vertices
    whose range holds j.  Two vertices are adjacent exactly when their
    index ranges intersect."""

    __slots__ = ("k", "left", "right")

    @property
    def n(self) -> int:
        return len(self.left)

    def by_left(self) -> list[list[int]]:
        """Vertices grouped by leftmost clique index, each group ascending."""
        groups: list[list[int]] = [[] for _ in range(self.k)]
        for v, j in enumerate(self.left):
            groups[j].append(v)
        return groups

    def to_json_obj(self) -> dict:
        """The fields alone: C_j is every vertex v with left[v] <= j <= right[v]."""
        return {"k": self.k, "left": list(self.left), "right": list(self.right)}


def model_to_graph(model: IntervalModel) -> Graph:
    """Closed-interval overlap graph; a shared endpoint is an edge.

    Sorted by `lo`, the intervals meeting u from its right are exactly the
    later starts at or before `hi` of u, one bisection away: O(n log n + m).
    This reads the endpoint ranks directly, never the clique sweep, so the
    graph a representation is verified against stays independent of the
    ordering it was built from.
    """
    lo, hi = model.lo, model.hi
    order = sorted(range(model.n), key=lo.__getitem__)
    los = [lo[v] for v in order]
    edges = [(u, v) for p, u in enumerate(order) for v in order[p + 1 : bisect_right(los, hi[u])]]
    return Graph(model.n, edges)


def model_to_clique_ordering(model: IntervalModel) -> CliqueOrdering:
    """Left-to-right endpoint sweep producing the maximal cliques in order.

    At each coordinate every interval starting there is admitted first;
    then, if an interval ends there and some interval was admitted since
    the last snapshot, the open intervals form the next maximal clique.
    An interval's range runs from the first snapshot taken once it is
    open to the last one taken before it closes, so each vertex's indices
    are read off the snapshot count at its ends and no clique is listed.
    """
    lo, hi = model.lo, model.hi
    m = len(model.values)
    starting, ending = set(lo), set(hi)
    k, admitted = 0, False
    at_start, at_end = [0] * m, [0] * m
    for x in range(m):
        at_start[x] = k
        admitted = admitted or x in starting
        if x in ending and admitted:
            k, admitted = k + 1, False
        at_end[x] = k - 1
    return CliqueOrdering(k, tuple(at_start[r] for r in lo), tuple(at_end[r] for r in hi))

