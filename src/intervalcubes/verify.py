"""Cube representations, their JSON form, and their independent checking
against graphs.  The `verify` command loads only this module and
`graphs`, plus `intervals` for a model and `rationals` for rational text
in either document.

The verifier trusts nothing from the construction: it reads adjacency
off the graph, or off ranges, and compares it against max-norm geometry
only.  Ranges are closed intervals of ints, adjacent when they meet: an
interval model's endpoint ranks, made from the endpoint values when the
model was, or a clique ordering's per-vertex ranges [left, right].  A
model is checked against its endpoints, never against the sweep that
built its representation.  An ordering stands for a graph once
recognition has certified it against the graph's edges (see
`verify_representation`).  Side and coordinates are integers on one
grid, so every comparison is exact.

Every pair is met once, from the later of its two vertices in a sweep
order: by index for a graph, and for ranges `graphs.by_right_end`'s,
with their columns permuted into it: p meets every earlier position from
closed[p] on and none before, so m = n(n-1)/2 - sum(closed).  Each
vertex's earlier non-neighbours are one int bitmask: for ranges the
prefix (1 << closed[p]) - 1, shared by the positions with the same
count; for a graph, the complement of its adjacency.  Each column is
sorted once, and a window of width `side` slides along it (Bentley,
Stanat and Williams 1977), counting the pairs near there; P is that
count in the dimension with the fewest.  Then one of two paths checks
the pairs.

- Masks.  Per dimension, one window bitmask slides along the sorted
  order, each vertex entering and leaving it once.  At each vertex it is
  ANDed into the vertex's mask of the earlier vertices near in every
  dimension so far, and the popcount of its AND with the vertex's
  non-neighbours counts the non-edges near there.  That is about 4·d·n
  operations on ints of up to n bits, Θ(d·n²/64) machine words whatever
  the input, and 2·n masks of n²/8 bytes in all: 12.5 MB at n = 10^4,
  but 125 GB at `MAX_VERTICES`.
- Window.  Each dimension keeps only its far edges, those too long
  there, read straight off each vertex's earlier neighbours (closed[p]
  up to p, or a graph's adjacency row), with no list of every edge.  The
  window over the sparsest dimension walks its P pairs for the non-edges
  near in every dimension.  That is one Python step per pair, and per
  edge and dimension: O(d·n log n + P + d·m).  Every edge is near in the
  sparsest dimension or misses adjacency, so m <= P + |missing_adjacency|.

The masks run when P + d·m >= d·n·(n + 4096)/1024: measured on CPython
3.11 from n = 100 to 10^4, on built and synthetic representations, a
Python step costs about as much as 1024 bits of mask work, and the masks
take about four steps per vertex and dimension besides.  So dense inputs
take the masks and sparse ones the window, at any n: the path P_10^6
has about 2.2 million window pairs.
"""

from __future__ import annotations

from io import StringIO
from itertools import chain, repeat
from math import lcm
from re import finditer

from .graphs import CliqueOrdering, Graph, Record, by_right_end, read_json, write_json

# A document's rational texts go onto its unit times the lcm of their
# denominators, which grows with the product of distinct ones: 1/p over the
# first 2000 primes, 25 kB of JSON, needs a unit of 24,856 bits.  Built
# outputs need a few dozen.
MAX_UNIT_BITS = 1024


class CubeRepresentation(Record):
    """Axis-parallel cubes of side `side` around `n` vertices, adjacent
    exactly when every coordinate differs by at most `side`.  The side and
    `coords[i][v]`, vertex v's coordinate in dimension i (one tuple per
    dimension), are ints counting units of 1/`unit`, and the JSON document
    holds the same ints and `unit`, one row per vertex.  dimension == 0
    means every pair is adjacent.  `dump` writes `construct`'s document
    through `write_json`."""

    __slots__ = ("n", "side", "coords", "unit")

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def dump(self, handle, extra=None) -> None:
        """Write the representation, `extra`'s keys beside "coords",
        "dimension", "side" and "unit", by `write_json` with `inline`: the
        record's own ints, each vertex's row of coordinates on one line."""
        cols = [map(str, col) for col in self.coords]
        rows = map("[{}]".format, map(", ".join, zip(*cols) if cols else repeat((), self.n)))
        rows = rows if self.n else []
        write_json({"coords": rows, "dimension": self.dimension, "side": self.side,
                    "unit": self.unit, **(extra or {})}, handle, inline=True)

    def dumps(self) -> str:
        """The text `dump` writes, less its final newline."""
        self.dump(buffer := StringIO())
        return buffer.getvalue()[:-1]

    @classmethod
    def from_json_obj(cls, obj) -> "CubeRepresentation":
        """The record a document holds.  Each value, JSON int or rational
        text, counts units of 1/`unit` (1 when the key is absent, as in
        documents that predate it).  A document of ints keeps its own grid;
        otherwise the grid is `unit` times the lcm of the denominators,
        refused with ValueError once it passes MAX_UNIT_BITS, before any
        coordinate is built.  With no coordinates, a positive dimension is
        refused too."""
        if not isinstance(obj, dict):
            raise ValueError("a representation is a JSON object")
        dimension, side = obj["dimension"], obj["side"]
        side_q = 1
        if type(side) is not int:
            from .rationals import parse_ratio

            side, side_q = parse_ratio(side)
        rows = obj["coords"]
        if type(dimension) is not int or dimension < 0 or side <= 0:
            raise ValueError("dimension must be an integer >= 0 and side positive")
        if not isinstance(rows, list) or not all(map(isinstance, rows, repeat(list))) or (
            set(map(len, rows)) - {dimension}
        ):
            raise ValueError("coords must be a list of vectors of length dimension")
        unit = obj.get("unit", 1)
        if type(unit) is not int or unit < 1 or unit.bit_length() > MAX_UNIT_BITS:
            raise ValueError(f"unit must be a positive integer of at most {MAX_UNIT_BITS} bits")
        kinds = set(map(type, chain.from_iterable(rows)))
        # a document of ints keeps its own grid, and reads no rational text;
        # any other has each distinct value parsed once, in document order
        texts, pairs = {}, []
        if kinds - {int} or side_q != 1:
            from .rationals import parse_ratio

            # true and 1.0 equal 1, and lists are unhashable: read one value at
            # a time, so the first bad one is refused, unless all are texts or ints
            if kinds - {str, int}:
                for x in chain.from_iterable(rows):
                    parse_ratio(x)
            texts = dict.fromkeys(chain.from_iterable(rows))
            pairs = list(map(parse_ratio, texts))
        grid = 1
        for q in {side_q, *(q for _, q in pairs)}:
            grid = lcm(grid, q)
            if (unit * grid).bit_length() > MAX_UNIT_BITS:
                raise ValueError(f"the common grid needs a unit of more than {MAX_UNIT_BITS} bits")
        texts.update(zip(texts, [p * (grid // q) for p, q in pairs]))
        cols = zip(*rows)
        coords = tuple(tuple(map(texts.__getitem__, col)) for col in cols) if texts else tuple(cols)
        # with no vector no column bounds the dimension, and the verifier's cost grows with it
        if len(coords) != dimension:
            raise ValueError("dimension must be 0 when coords is empty")
        return cls(len(rows), side * (grid // side_q), coords, unit * grid)

    @classmethod
    def loads(cls, text: str) -> "CubeRepresentation":
        return cls.from_json_obj(read_json(text))


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


def verify_representation(graph: Graph | IntervalModel | CliqueOrdering, rep) -> VerificationReport:
    """Check that adjacent pairs stay within the side in every dimension and
    non-adjacent pairs exceed it somewhere, by the path the module
    docstring describes; ValueError unless `rep` has one coordinate per
    vertex of `graph` in every column.  `graph` is a `Graph`, or ranges:
    an `IntervalModel`'s (lo, hi) or a `CliqueOrdering`'s (left, right),
    read alike.  `dimension_stats[i]` is the non-edges separated in
    dimension i.  With dimension 0 every pair counts as adjacent, so every
    non-edge is reported.  Lists are in lexicographic order.

    Checking against an ordering from `recognize_and_order` is checking
    against its input graph, exactly: recognition's certificate check
    (`_check_ordering_sanity`) found that every edge's ranges meet and
    that exactly m pairs of ranges meet, so the pairs that meet are the
    edges, and the reports are equal."""
    n = graph.n
    if rep.n != n:
        raise ValueError(f"representation covers {rep.n} vertices, graph has {n}")
    if any(len(col) != n for col in rep.coords):
        raise ValueError(f"every column must hold {n} coordinates")
    side, cols, d = rep.side, rep.coords, rep.dimension
    pairs = n * (n - 1) // 2
    ranged = not isinstance(graph, Graph)
    if ranged:
        ordering = isinstance(graph, CliqueOrdering)
        ends = (graph.left, graph.right) if ordering else (graph.lo, graph.hi)
        seq, closed = by_right_end(*ends)  # p meets positions closed[p]..p-1
        m = pairs - sum(closed)
        cols = [[col[v] for v in seq] for col in cols]
    else:
        seq, adj = range(n), graph.adj
        m = graph.edge_count
    windows = [_window(col, side) for col in cols]
    near = [sum(j - s for j, s in enumerate(starts)) for _, starts in windows]

    if not d or _masks_pay(min(near), m, d, n):
        if ranged:
            prefix = {c: (1 << c) - 1 for c in set(closed)}
            non = list(map(prefix.__getitem__, closed))
        else:
            non = [((1 << v) - 1) ^ sum(1 << u for u in adj[v] if u < v) for v in range(n)]
        adjacency, separation, stats = _by_masks(non, cols, windows, side)
    else:
        if ranged:
            far = [[(q, p) for p, (c, x) in enumerate(zip(closed, col)) for q in range(c, p)
                    if abs(col[q] - x) > side] for col in cols]

            def apart(v, us):
                cv = closed[v]
                return [u for u in us if u < cv or v < closed[u]]

        else:
            far = [[(u, v) for v, (row, x) in enumerate(zip(adj, col)) for u in row
                    if u < v and abs(col[u] - x) > side] for col in cols]

            def apart(v, us):
                av = adj[v]
                return [u for u in us if u not in av]

        adjacency = set().union(*far)
        stats = [pairs - near[i] - len(far[i]) for i in range(d)]
        # the dimensions that separate the most pairs first
        dims = sorted(range(d), key=near.__getitem__)
        order, starts = windows[dims[0]]
        separation = _unseparated(apart, [cols[i] for i in dims[1:]], side, order, starts)
    return VerificationReport(
        missing_adjacency=_labelled(seq, adjacency),
        missing_separation=_labelled(seq, separation),
        dimension_stats=tuple(stats),
    )


def _masks_pay(pairs: int, edges: int, d: int, n: int) -> bool:
    """The path rule (see the module docstring): the window walks `pairs`
    and filters `edges` once per dimension; the masks cost about 4 steps
    per vertex and dimension plus one per 1024 bits."""
    return pairs + d * edges >= d * n * (n + 4096) // 1024


def _labelled(seq, pairs) -> tuple[tuple[int, int], ...]:
    """Pairs of sweep positions as sorted (smaller, larger) vertex pairs."""
    labelled = ((seq[p], seq[q]) for p, q in pairs)
    return tuple(sorted((a, b) if a < b else (b, a) for a, b in labelled))


def _by_masks(non: list[int], cols, windows, side: int):
    """Missing adjacencies and separations, as iterators of (earlier,
    later) position pairs, and the non-edges separated per dimension, from
    `non[p]`, the bitmask of the positions before p not adjacent to it.

    Per dimension, one window mask slides along the sorted order: each
    vertex enters it once and leaves it once.  At p it is ANDed into
    near[p], the earlier positions near p in every dimension so far, and
    its AND with non[p] counts the non-edges near p there."""
    n = len(non)
    if not cols:  # nothing is separated: every non-edge lacks its separation
        return (), ((q, p) for p in range(n) for q in _members(non[p])), []
    near = [(1 << p) - 1 for p in range(n)]
    stats = []
    non_edges = sum(mask.bit_count() for mask in non)
    for col, (order, starts) in zip(cols, windows):
        xs = [col[p] for p in order]
        window = count = a = b = 0
        for j, p in enumerate(order):
            reach = xs[j] + side
            while b < n and xs[b] <= reach:
                window |= 1 << order[b]
                b += 1
            while a < starts[j]:
                window ^= 1 << order[a]
                a += 1
            near[p] &= window
            count += (non[p] & window).bit_count()
        stats.append(non_edges - count)
    # read out lazily, so that only the caller's sorted copy of the pairs is held
    adjacency = ((q, p) for p in range(n) for q in _members(((1 << p) - 1) ^ (non[p] | near[p])))
    separation = ((q, p) for p in range(n) for q in _members(non[p] & near[p]))
    return adjacency, separation, stats


def _members(mask: int) -> list[int]:
    """The positions of the set bits, from one scan of the binary text."""
    return [bit.start() for bit in finditer("1", bin(mask)[:1:-1])] if mask else []


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
    every dimension of `cols` as well; `apart(v, us)` lists the vertices
    of `us` not adjacent to v.  Each column filters the survivors of the
    one before, so put first those that separate the most pairs."""
    for j, v in enumerate(order):
        us = apart(v, order[starts[j] : j])
        for col in cols:
            if not us:
                break
            low, high = col[v] - side, col[v] + side
            us = [u for u in us if low <= col[u] <= high]
        for u in us:
            yield u, v
