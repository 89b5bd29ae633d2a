"""Interval models: closed intervals with exact rational endpoints.

A model is put on its grid once, when it is made: each endpoint is an
int counting units of 1/`unit`, as a `CubeRepresentation`'s coordinates
are, so the sweep, `model_to_graph` and the verifier compare ints, and
neither loading nor the sweep builds a Fraction.
`model_to_clique_ordering` gives a model's `graphs.CliqueOrdering`, the
form every stage after loading reads, and `model_to_graph` its `Graph`
from `graphs.by_right_end`.  The CLI loads this module for model input
alone, and `rationals` only where endpoint text is read or written.
"""

from __future__ import annotations

from itertools import chain, compress, count, repeat
from operator import gt, itemgetter

from .graphs import CliqueOrdering, Graph, Record, by_right_end, common_grid, read_json


class IntervalModel(Record):
    """Per-vertex closed intervals with exact rational endpoints, kept on
    one grid: interval v is [lo[v]/unit, hi[v]/unit], with `unit` the lcm
    of the endpoints' reduced denominators, at most MAX_UNIT_BITS bits.
    Built from (lo, hi) pairs of ints or Fractions, which `intervals`
    gives back, as ints where integral."""

    __slots__ = ("unit", "lo", "hi")

    def __init__(self, intervals):
        _on_grid(self, [(x.numerator, x.denominator) for iv in intervals for x in iv])

    @property
    def n(self) -> int:
        return len(self.lo)

    @property
    def intervals(self) -> tuple:
        from fractions import Fraction

        unit = self.unit
        exact = {x: x // unit if x % unit == 0 else Fraction(x, unit) for x in {*self.lo, *self.hi}}
        return tuple((exact[a], exact[b]) for a, b in zip(self.lo, self.hi))

    def to_json_obj(self) -> dict:
        from .rationals import format_ratio

        text = {x: format_ratio(x, self.unit) for x in {*self.lo, *self.hi}}
        ends = enumerate(zip(self.lo, self.hi))
        return {"intervals": [{"id": i, "lo": text[a], "hi": text[b]} for i, (a, b) in ends]}

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
        return _on_grid(cls.__new__(cls), list(map(pairs.__getitem__, texts)))

    @classmethod
    def loads(cls, text: str, refuse=None) -> "IntervalModel":
        return cls.from_json_obj(read_json(text), refuse)


def _on_grid(model: IntervalModel, ends: list) -> IntervalModel:
    """`model` with its fields set from `ends`, the reduced (numerator,
    denominator) pairs lo_0, hi_0, lo_1, ...: `unit` is the lcm of the
    denominators, refused past MAX_UNIT_BITS by `graphs.common_grid`, and
    each end p/q is p * (unit // q).  ValueError if some lo > hi."""
    unit = common_grid({q for _, q in ends})
    xs = [p * (unit // q) for p, q in ends]
    lo, hi = tuple(xs[0::2]), tuple(xs[1::2])
    i = next(compress(count(), map(gt, lo, hi)), None)
    if i is not None:
        from .rationals import format_ratio

        a, b = format_ratio(lo[i], unit), format_ratio(hi[i], unit)
        raise ValueError(f"interval {i} has lo > hi: [{a}, {b}]")
    Record.__init__(model, unit, lo, hi)
    return model


def model_to_graph(model: IntervalModel) -> Graph:
    """Closed-interval overlap graph; a shared endpoint is an edge.  Each
    interval's earlier neighbours in `by_right_end`'s sweep go to `Graph`
    one edge at a time, with no list of them: O(n log n + m).  This reads
    the endpoints on their grid, never the clique sweep, so the graph a
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
    starting, ending = set(lo), set(hi)
    k, admitted = 0, False
    at_start, at_end = {}, {}
    for x in sorted(starting | ending):
        if x in starting:
            at_start[x], admitted = k, True
        if x in ending:
            if admitted:
                k, admitted = k + 1, False
            at_end[x] = k - 1
    left, right = tuple(map(at_start.__getitem__, lo)), tuple(map(at_end.__getitem__, hi))
    return CliqueOrdering(k, left, right)

