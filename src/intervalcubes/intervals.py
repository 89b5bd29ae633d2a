"""Interval models: closed intervals with exact rational endpoints.

A model is ranked once, when it is made, so the sweep, `model_to_graph`
and the verifier compare small ints, and neither loading nor ranking
builds a Fraction.  `model_to_clique_ordering` gives a model's
`graphs.CliqueOrdering`, the form every stage after loading reads, and
`model_to_graph` its `Graph` from `graphs.by_right_end`.  The CLI loads
this module for model input alone, and `rationals` only where endpoint
text is read or written.
"""

from __future__ import annotations

from functools import cmp_to_key
from io import StringIO
from itertools import chain, compress, count, repeat
from math import lcm
from operator import gt, itemgetter

from .graphs import CliqueOrdering, Graph, Record, by_right_end, read_json, write_json


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
        from .rationals import format_ratio

        text = [format_ratio(p, q) for p, q in self.values]
        ends = enumerate(zip(self.lo, self.hi))
        return {"intervals": [{"id": i, "lo": text[a], "hi": text[b]} for i, (a, b) in ends]}

    def dumps(self) -> str:
        """The text `write_json` writes for the model, less its final newline."""
        write_json(self.to_json_obj(), buffer := StringIO())
        return buffer.getvalue()[:-1]

    @classmethod
    def from_json_obj(cls, obj, refuse=None) -> "IntervalModel":
        """The model a document holds, each distinct endpoint text parsed
        once.  `refuse`, if given, sees the number of records before any
        of them is read.  Records that are not all well formed are read
        again one at a time, so the refusal is the one the first bad
        record gives."""
        records = obj["intervals"] if isinstance(obj, dict) else None
        if not isinstance(records, list) or not all(map(isinstance, records, repeat(dict))):
            raise ValueError("a model is an object with a list of interval records")
        if refuse:
            refuse(len(records))
        from .rationals import parse_ratio

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
    def loads(cls, text: str, refuse=None) -> "IntervalModel":
        return cls.from_json_obj(read_json(text), refuse)


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
            keys, table = ends, {e: (e[0] // e[1], e[0] % e[1] / e[1]) for e in set(ends)}
            ordered = sorted(table, key=table.__getitem__)
            if len(set(table.values())) < len(ordered):
                ordered.sort(key=cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1]))
            values = tuple(ordered)
            break
    else:
        keys = [p * (unit // q) for p, q in ends]
        table = dict(zip(keys, ends))
        ordered = sorted(table)
        values = tuple(map(table.__getitem__, ordered))
    # one entry per distinct key, set in place to the key's rank; what the
    # ranks no longer need is freed before they, and then lo and hi, are built
    table.update(zip(ordered, count()))
    del ordered
    ranks = list(map(table.__getitem__, keys))
    del keys, table
    lo, hi = tuple(ranks[0::2]), tuple(ranks[1::2])
    i = next(compress(count(), map(gt, lo, hi)), None)
    if i is not None:
        from .rationals import format_ratio

        a, b = format_ratio(*ends[2 * i]), format_ratio(*ends[2 * i + 1])
        raise ValueError(f"interval {i} has lo > hi: [{a}, {b}]")
    Record.__init__(model, values, lo, hi)
    return model


def model_to_graph(model: IntervalModel) -> Graph:
    """Closed-interval overlap graph; a shared endpoint is an edge.  Each
    interval's earlier neighbours in `by_right_end`'s sweep go to `Graph`
    one edge at a time, with no list of them: O(n log n + m).  This reads
    the endpoint ranks, never the clique sweep, so the graph a
    representation is verified against stays independent of the ordering
    it was built from."""
    seq, closed = by_right_end(model.lo, model.hi)
    return Graph(model.n, ((seq[q], seq[p]) for p, c in enumerate(closed) for q in range(c, p)))


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

