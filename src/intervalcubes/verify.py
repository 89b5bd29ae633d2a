"""Cube representations, their JSON form, and their independent checking
against graphs.  The `verify` command loads only this module and the
graph, model and rational parsers.

The verifier trusts nothing from the construction: it reads adjacency
off the graph, or off an interval model's endpoints (closed intervals
that meet are adjacent), and compares it against max-norm geometry only.
It never reads a clique ordering, so a model is checked independently of
the sweep that built its representation.  A representation's side and
coordinates are integers on one grid, so every comparison is an exact
integer comparison.

Checking every pair would cost Θ(n²·d).  Whether two cubes meet is a
fixed-radius near-neighbour question in the max norm, so the check sorts
each dimension and slides a window of width `side` (Bentley, Stanat and
Williams 1977): it touches the pairs near in one dimension, not every
pair.  The edges too far apart come from a scan of a graph's edge list,
O(m·d).  A model's edges are never listed: a sweep by left end meets
each edge once, and heaps of the open intervals' extreme coordinates
flag the vertices that have a far edge at all, so the cost is
O(d·n log n + P) plus the open sets of those vertices, with P the
window's pairs.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm

from .graphs import Graph, Record, non_edges
from .intervals import IntervalModel, ranked_endpoints
from .rationals import parse_rational

# A document's values go onto the lcm of their denominators, which grows
# with the product of distinct ones: 1/p over the first 2000 primes, 25 kB
# of JSON, needs a unit of 24,856 bits.  Built outputs need a few dozen.
MAX_UNIT_BITS = 1024


class CubeRepresentation(Record):
    """Axis-parallel cubes of side `side`: vertices are adjacent exactly
    when every coordinate differs by at most `side`.  Side and coordinates
    (`coords`, a tuple of int tuples) are ints counting units of 1/`unit`;
    only the JSON methods turn them into rationals.  dimension == 0 means
    every pair is adjacent by convention."""

    __slots__ = ("dimension", "side", "coords", "unit")

    @property
    def n(self) -> int:
        return len(self.coords)

    def to_json_obj(self) -> dict:
        return {
            "dimension": self.dimension,
            "side": str(Fraction(self.side, self.unit)),
            "coords": [
                [str(Fraction(x, self.unit)) for x in row] for row in self.coords
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj) -> "CubeRepresentation":
        """Rationals onto the coarsest integer grid that holds them all: the
        unit is the lcm of their denominators, refused with ValueError once
        it passes MAX_UNIT_BITS, before any coordinate is built.  With no
        coordinates, a positive dimension is refused too."""
        if not isinstance(obj, dict):
            raise ValueError("a representation is a JSON object")
        dimension, side, rows = obj["dimension"], parse_rational(obj["side"]), obj["coords"]
        if type(dimension) is not int or dimension < 0 or side <= 0:
            raise ValueError("dimension must be an integer >= 0 and side positive")
        if not isinstance(rows, list) or any(
            not isinstance(row, list) or len(row) != dimension for row in rows
        ):
            raise ValueError("coords must be a list of vectors of length dimension")
        # no vector bounds the dimension then, and the verifier's cost grows with it
        if dimension and not rows:
            raise ValueError("dimension must be 0 when coords is empty")
        rows = [[parse_rational(x) for x in row] for row in rows]
        unit = side.denominator
        for denominator in {x.denominator for row in rows for x in row}:
            unit = lcm(unit, denominator)
            if unit.bit_length() > MAX_UNIT_BITS:
                raise ValueError(f"the common grid needs a unit of more than {MAX_UNIT_BITS} bits")
        coords = tuple(tuple(x.numerator * (unit // x.denominator) for x in row) for row in rows)
        return cls(dimension, side.numerator * (unit // side.denominator), coords, unit)

    @classmethod
    def loads(cls, text: str) -> "CubeRepresentation":
        return cls.from_json_obj(json.loads(text))


class VerificationReport(Record):
    """The unmatched pairs `missing_adjacency` and `missing_separation`
    (tuples of (u, v), u < v), and per dimension the non-edges it
    separates, `dimension_stats`; `ok` when no pair is unmatched."""

    __slots__ = ("missing_adjacency", "missing_separation", "dimension_stats")

    @property
    def ok(self) -> bool:
        return not self.missing_adjacency and not self.missing_separation

    def to_json_obj(self) -> dict:
        return {
            "ok": self.ok,
            "missing_adjacency": [list(p) for p in self.missing_adjacency],
            "missing_separation": [list(p) for p in self.missing_separation],
            "dimension_stats": list(self.dimension_stats),
        }


def verify_representation(graph: Graph | IntervalModel, rep) -> VerificationReport:
    """Check that adjacent pairs stay within the side in every dimension and
    non-adjacent pairs exceed it somewhere, without walking every pair.
    `graph` is a `Graph` or an `IntervalModel`.

    Each dimension is sorted once, and a two-pointer window gives the
    number of pairs within the side there.  `dimension_stats[i]` is the
    non-edges separated in dimension i: every pair beyond the side there,
    less the edges beyond it, which `_far_edges` or `_far_model_edges`
    finds along with `missing_adjacency`.  A non-edge within the side in
    every dimension is within it in the dimension with the fewest near
    pairs, so `missing_separation` comes from sliding the window over that
    one.  Cost O(d·n log n + m·d + P) for a graph, with P the near pairs
    of that dimension; for a model the m·d term becomes the open sets of
    the vertices that have a far edge.  With dimension 0 every pair counts
    as adjacent, so every non-edge is reported.  Lists are in
    lexicographic order.
    """
    n = graph.n
    if rep.n != n:
        raise ValueError(f"representation covers {rep.n} vertices, graph has {n}")
    rows, side, d = rep.coords, rep.side, rep.dimension
    model = isinstance(graph, IntervalModel)
    if model:
        lo, hi = ranked_endpoints(graph)

        def apart(v, us):
            lv, hv = lo[v], hi[v]
            return [u for u in us if lo[u] > hv or hi[u] < lv]

    else:
        adj = graph.adj

        def apart(v, us):
            av = adj[v]
            return [u for u in us if u not in av]

    if d == 0:
        return VerificationReport(
            missing_adjacency=(),
            missing_separation=tuple(_disjoint_pairs(lo, hi) if model else non_edges(graph)),
            dimension_stats=(),
        )
    cols = [[row[i] for row in rows] for i in range(d)]
    windows = [_window(col, side) for col in cols]
    near = [sum(j - s for j, s in enumerate(starts)) for _, starts in windows]

    far_edges = _far_model_edges(lo, hi, cols, side) if model else _far_edges(graph, cols, side)
    missing_adjacency = sorted(set().union(*far_edges))
    pairs = n * (n - 1) // 2
    stats = tuple(pairs - near[i] - len(far_edges[i]) for i in range(d))

    # the dimensions that separate the most pairs first
    dims = sorted(range(d), key=near.__getitem__)
    order, starts = windows[dims[0]]
    others = [cols[i] for i in dims[1:]]
    missing_separation = sorted(_unseparated(apart, others, side, order, starts))
    return VerificationReport(
        missing_adjacency=tuple(missing_adjacency),
        missing_separation=tuple(missing_separation),
        dimension_stats=stats,
    )


def _disjoint_pairs(lo: list[int], hi: list[int]) -> list[tuple[int, int]]:
    """The non-adjacent pairs of a model: for each u, the intervals
    starting after u ends, a suffix of the order by left end."""
    order = sorted(range(len(lo)), key=lo.__getitem__)
    los = [lo[v] for v in order]
    return sorted(
        (u, v) if u < v else (v, u)
        for u, h in enumerate(hi)
        for v in order[bisect_right(los, h) :]
    )


def _far_edges(graph: Graph, cols, side: int) -> list[list[tuple[int, int]]]:
    """Per dimension, the edges whose coordinates there differ by more
    than `side`, from one scan of the edge list per dimension."""
    edges = [(u, v) for u in range(graph.n) for v in graph.adj[u] if u < v]
    return [[e for e in edges if abs(col[e[0]] - col[e[1]]) > side] for col in cols]


def _far_model_edges(lo, hi, cols, side: int) -> list[list[tuple[int, int]]]:
    """Per dimension, the edges of the model whose coordinates there differ
    by more than `side`, without listing the edges.

    Sweeping by left end, the intervals still open when v opens are
    exactly v's earlier neighbours, so each edge is met once.  Per
    dimension, a max-heap and a min-heap of the open intervals'
    coordinates, whose entries for closed intervals are dropped as they
    surface, tell whether any of those edges is too long there; only then
    is the open set scanned for them."""
    n = len(lo)
    by_hi = sorted(range(n), key=hi.__getitem__)
    far: list[list[tuple[int, int]]] = [[] for _ in cols]
    highs: list[list[tuple[int, int]]] = [[] for _ in cols]  # (-x, u): largest on top
    lows: list[list[tuple[int, int]]] = [[] for _ in cols]
    open_: set[int] = set()
    p = 0
    for v in sorted(range(n), key=lo.__getitem__):
        lv = lo[v]
        while hi[by_hi[p]] < lv:  # closed before v opens; v itself stops this
            open_.remove(by_hi[p])
            p += 1
        for i, col in enumerate(cols):
            x, high, low = col[v], highs[i], lows[i]
            while high and high[0][1] not in open_:
                heappop(high)
            while low and low[0][1] not in open_:
                heappop(low)
            if high and -high[0][0] - x > side or low and x - low[0][0] > side:
                far[i].extend((u, v) if u < v else (v, u) for u in open_ if abs(col[u] - x) > side)
            heappush(high, (-x, v))
            heappush(low, (x, v))
        open_.add(v)
    return far


def _window(col: list[int], side: int) -> tuple[list[int], list[int]]:
    """Vertices sorted by `col`, and for each position j the first
    position whose value is within `side` of position j's."""
    order = sorted(range(len(col)), key=col.__getitem__)
    xs = [col[v] for v in order]
    starts = []
    lo = 0
    for x in xs:
        while x - xs[lo] > side:
            lo += 1
        starts.append(lo)
    return order, starts


def _unseparated(apart, cols, side: int, order, starts):
    """The non-edges among the window pairs that lie within `side` in
    every dimension of `cols` as well, each as (smaller, larger);
    `apart(v, us)` lists the vertices of `us` not adjacent to v.  Each
    column filters the survivors of the one before, so put first those
    that separate the most pairs."""
    for j, v in enumerate(order):
        us = apart(v, order[starts[j] : j])
        for col in cols:
            if not us:
                break
            low, high = col[v] - side, col[v] + side
            us = [u for u in us if low <= col[u] <= high]
        for u in us:
            yield (u, v) if u < v else (v, u)

