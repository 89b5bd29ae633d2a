"""Simple undirected graphs on dense integer vertices, plus edge-list I/O.

The edge-list text format is the interchange format for abstract graphs:
a header line "n m" followed by m lines "u v".  Parsing is whitespace
tolerant, collapses duplicate edges, and rejects self-loops and
out-of-range endpoints with the offending line number.
"""

from __future__ import annotations

# parse_graph allocates per vertex from the header's count, which no edge
# line bounds, so that count is checked against this limit first
MAX_VERTICES = 10**6


class GraphParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Graph:
    """Immutable simple graph: vertex count plus per-vertex neighbor sets."""

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
        self.n = n
        self.adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format; blank lines are ignored."""
    numbered = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in numbered if ln]
    if not lines:
        raise GraphParseError("missing header line")
    head_no, head = lines[0]
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
    body = lines[1:]
    if len(body) != m:
        raise GraphParseError(f"expected {m} edge lines, found {len(body)}")
    edges = []
    for no, ln in body:
        parts = ln.split()
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
        edges.append((u, v))
    return Graph(n, edges)


def serialize_graph(graph: Graph) -> str:
    """Canonical form: sorted unique edges, one per line."""
    edges = graph.edges()
    out = [f"{graph.n} {len(edges)}"]
    out.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(out) + "\n"


def induced_subgraph(graph: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the given vertices, relabelled 0..|S|-1.

    Returns (subgraph, keep) where keep[i] is the original index of the
    new vertex i.
    """
    keep = tuple(sorted(set(vertices)))
    for v in keep:
        if not (0 <= v < graph.n):
            raise ValueError(f"vertex {v} out of range for n={graph.n}")
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v])
        for u, v in graph.edges()
        if u in index and v in index
    ]
    return Graph(len(keep), edges), keep


def non_edges(graph: Graph) -> list[tuple[int, int]]:
    """All unordered non-adjacent pairs, lexicographically sorted."""
    return [
        (u, v)
        for u in range(graph.n)
        for v in range(u + 1, graph.n)
        if v not in graph.adj[u]
    ]
