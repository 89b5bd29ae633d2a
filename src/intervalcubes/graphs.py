"""Simple undirected graphs on dense integer vertices, plus edge-list I/O.

The edge-list text format is the interchange format for abstract graphs:
a header line "n m" followed by m lines "u v".  Parsing is whitespace
tolerant, collapses duplicate edges, and rejects self-loops and
out-of-range endpoints with the offending line number.

Every command loads this module, so it also holds what they all share:
the size limits, the errors the CLI maps to exit codes, and `Record`, the
base of the package's immutable value types, `Graph` among them.
"""

from __future__ import annotations

import re
from itertools import islice

# parse_graph allocates per vertex from the header's count, which no edge
# line bounds, so that count is checked against this limit first
MAX_VERTICES = 10**6
# the oracle's cost grows with n!, so it refuses larger graphs; kept here
# so that the CLI's parser does not load `oracle`
MAX_ORACLE_VERTICES = 8


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
