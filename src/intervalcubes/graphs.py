"""Simple undirected graphs on dense integer vertices, plus edge-list I/O.

The edge-list text format is the interchange format for abstract graphs:
a header line "n m" followed by m lines "u v".  Parsing is whitespace
tolerant, collapses duplicate edges, and rejects self-loops and
out-of-range endpoints with the offending line number.

Every command loads this module, so it also holds what they all share,
whatever the input's format: the size limits (with `common_grid`, the one
rule that puts a document's rationals on a grid of ints), the errors the
CLI maps to exit codes, the clique ordering every stage after loading reads
(`CliqueOrdering`, and `by_right_end`, the one sweep that decides which
ranges meet), and the JSON reader and writer.  `Record` is the base of
the package's immutable value types, `Graph` among them.  `Report`, the
base of those a command writes field for field, holds the one JSON
rule: a report's object is its fields plus the derived properties it
names.  Interval models, and the rational text their endpoints are
written in, are loaded only for model input (`intervals`, `rationals`).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from itertools import chain, islice
from math import lcm

# parse_graph allocates per vertex from the header's count, which no edge
# line bounds, so that count is checked against this limit first
MAX_VERTICES = 10**6
# the oracle's cost grows with n!, so it refuses larger graphs; kept here
# so that the CLI's parser does not load `oracle`
MAX_ORACLE_VERTICES = 8
# the shapes of the seeded random models `generate` makes; kept here so
# that the CLI's parser does not load `generate`
DISTRIBUTIONS = ("uniform", "unit-jitter", "nested-heavy")
# A document's rational values go onto one grid of ints, whose unit is the
# lcm of their denominators (times a representation's own `unit`).  It
# grows with the product of distinct ones: 1/p over the first 2000 primes,
# 25 kB of JSON, needs a unit of 24,856 bits.  Built outputs and generated
# models need a few dozen.  Models and representations share this limit
MAX_UNIT_BITS = 1024


def common_grid(denominators, unit: int = 1) -> int:
    """The lcm of `denominators`, positive ints; ValueError as soon as
    `unit` times it passes MAX_UNIT_BITS bits."""
    grid = 1
    for q in denominators:
        grid = lcm(grid, q)
        if (unit * grid).bit_length() > MAX_UNIT_BITS:
            raise ValueError(f"the common grid needs a unit of more than {MAX_UNIT_BITS} bits")
    return grid


class Record:
    """An immutable value whose fields are its class's `__slots__`, given
    by position or keyword.  Records of one class are equal when their
    fields are; assigning or deleting a field raises AttributeError.  A
    plain class rather than a dataclass, so that no process pays for
    importing `dataclasses` and decorating each class."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Report(Record):
    """A record a command writes field for field: its JSON object is its
    fields plus the derived properties its class's `_derived` names, with
    each tuple a list and each nested report its own object.  They are
    `VerificationReport.ok`, `Labelling.alpha`, `ParamReport.lower_bound`,
    `ExactResult.cubicity`, `Exceeded.exceeded` (a class constant),
    `Counterexample.lower_bound`, and `SearchReport.graphs_tried` and
    `degenerate_skipped`."""

    __slots__ = ()
    _derived = ()

    def to_json_obj(self) -> dict:
        return {name: _json_value(getattr(self, name)) for name in self.__slots__ + self._derived}


def _json_value(value):
    """`value` with each tuple a list and each report its own object.  A
    tuple of scalars, or of tuples of scalars (a report's pairs), is
    converted whole, with no Python call per member."""
    if type(value) is not tuple:
        return value.to_json_obj() if isinstance(value, Report) else value
    kinds = set(map(type, value))
    if kinds <= _SCALARS:
        return list(value)
    if kinds == {tuple} and _SCALARS.issuperset(map(type, chain.from_iterable(value))):
        return list(map(list, value))
    return list(map(_json_value, value))


class NotIntervalError(Exception):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"graph is not an interval graph ({reason})")


class SizeRefusalError(ValueError):
    """The instance exceeds the oracle's hard safety bounds."""


class ConstructionError(AssertionError):
    """An internal pipeline invariant failed; always a bug, never an input error."""


class GraphParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Graph(Record):
    """Immutable simple graph: vertex count `n` plus `adj`, a tuple of
    per-vertex neighbour frozensets, built from an edge list."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            adj[u].add(v)
            adj[v].add(u)
        # each set is freed as soon as its frozen copy exists, so the
        # adjacency is never held twice over
        for v, s in enumerate(adj):
            adj[v] = frozenset(s)
        super().__init__(n, tuple(adj))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def parse_graph(text: str, refuse=None) -> Graph:
    """Parse the edge-list format; blank lines are ignored.  `refuse`, if
    given, sees the header's vertex count before the text is split into
    lines.  Edge lines are checked as `Graph` consumes them, so no second
    copy of the edges is held.
    """
    head_no, head = _header(text)
    if not head:
        raise GraphParseError("missing header line")
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


def _header(text: str) -> tuple[int, str]:
    """The header's line number and text: the rest of the line holding
    the first non-space character, up to the next of the line breaks
    `str.splitlines` knows, and the number of the last line of the blanks
    before it; "" for a text of blanks.  Only a prefix as long as the
    blanks and the header line is split, so a refusal on the header's
    count holds no copy of the edge lines."""
    size = 256
    while True:
        prefix = text[:size]
        rest = prefix.lstrip()
        head = rest.splitlines()[0] if rest else ""
        # the header ends inside the prefix, or the prefix is the whole text
        if len(head) < len(rest) or size >= len(text):
            break
        size *= 16
    return len((prefix[: len(prefix) - len(rest)] + "#").splitlines()), head


def serialize_graph(graph: Graph) -> str:
    """Canonical form: sorted unique edges, one per line."""
    edges = graph.edges()
    out = [f"{graph.n} {len(edges)}"]
    out.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(out) + "\n"


def non_edges(graph: Graph) -> list[tuple[int, int]]:
    """All unordered non-adjacent pairs, lexicographically sorted."""
    return [
        (u, v)
        for u in range(graph.n)
        for v in range(u + 1, graph.n)
        if v not in graph.adj[u]
    ]


class CliqueOrdering(Report):
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


def by_right_end(left, right) -> tuple[list[int], list[int]]:
    """Closed int ranges [left[v], right[v]], each left <= right, in the
    sweep order `seq`: by right end, ties by index; closed[p] counts the
    right ends before position p's left end.  So the positions below
    closed[p] end before p starts, and those from closed[p] up to p end
    at or after p starts and no later than p ends: they meet p, and
    closed[p] <= p.  Each pair that meets is met once, from its later
    position, and n(n-1)/2 - sum(closed) pairs meet."""
    seq = sorted(range(len(right)), key=right.__getitem__)
    ends = [right[v] for v in seq]
    return seq, [bisect_left(ends, left[v]) for v in seq]


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
