"""Interval-graph recognition from abstract graphs.

Habib, McConnell, Paul & Viennot, "Lex-BFS and partition refinement, with
applications to transitive orientation, interval graph recognition and
consecutive ones testing", Theoret. Comput. Sci. 234 (2000):

1. One lexicographic breadth-first search (LexBFS) orders the vertices
   and notes each vertex's earlier neighbours and parent.  Its reverse is
   a perfect elimination ordering exactly when the graph is chordal
   (Rose, Tarjan & Lueker 1976); otherwise the reason tag is
   `not-chordal`.  The same loop over the parents that tests this reads
   off the maximal cliques.
2. A refinement of the cliques orders them so that every vertex's
   cliques are consecutive, or fails with the reason tag
   `no-consecutive-ordering`.

A failing stage raises `NotIntervalError`, whose `reason` is its tag.
Step 1 costs O(n + m), plus sorting each moved part for the LexBFS
tie-break; step 2 costs O(n + Σ|C|) plus, for every clique a refinement
moves, a scan of that clique's vertices.  No step recurses.

Both steps refine one ordered partition, `_Partition`, of vertex or
clique ids: a linked list of classes in int lists (`prev`, `nxt`, -1 for
none), each class's live `size` and each id's class, `where`.  A split
moves part of a class into a new class right before or after it.  Each
class stacks its ids in the order they are to be taken; an id that moved
on or was visited leaves a stale entry, which `pop` skips.  Parents,
earlier neighbours, cliques and pending pivots are int lists too.  One
pass over the arranged cliques reads each vertex's first and last clique
index and checks that its cliques are consecutive; the returned
`CliqueOrdering` holds those ranges alone.

Before it is returned, the ordering is checked against the input graph
in O(n log n + m) (`_check_ordering_sanity`): its ranges, read as closed
intervals, meet on exactly the graph's edges.  That makes the ordering a
certificate, in the sense of McConnell, Mehlhorn, Näher & Schweitzer
("Certifying algorithms", Computer Science Review 5, 2011): past
recognition the ranges stand for the graph, and `construct` verifies its
representation of an edge list against them.
"""

from __future__ import annotations

from .graphs import CliqueOrdering, ConstructionError, Graph, NotIntervalError, by_right_end


class _Partition:
    """The ids 0..len(stack)-1 in one class, stacked as `stack`."""

    def __init__(self, stack: list[int]):
        self.where = [0] * len(stack)
        self.size, self.prev, self.nxt = [len(stack)], [-1], [-1]
        self.stacks = [stack]

    def group(self, ids: list[int]) -> dict[int, list[int]]:
        where, by = self.where, {}
        for x in ids:
            by.setdefault(where[x], []).append(x)
        return by

    def pop(self, q: int) -> int:
        """The top live id of class q's stack; it stays in class q."""
        stack, where = self.stacks[q], self.where
        x = stack.pop()
        while where[x] != q:
            x = stack.pop()
        return x

    def split(self, old: int, moved: list[int], after: bool) -> int:
        """Move `moved`, a strict subset of class `old` in stack order, into
        a new class right after or before it; returns the new class."""
        new, prev, nxt = len(self.size), self.prev, self.nxt
        left, right = (old, nxt[old]) if after else (prev[old], old)
        prev.append(left)
        nxt.append(right)
        if left >= 0:
            nxt[left] = new
        if right >= 0:
            prev[right] = new
        for x in moved:
            self.where[x] = new
        self.size.append(len(moved))
        self.size[old] -= len(moved)
        self.stacks.append(moved)
        return new


def _lexbfs(graph: Graph) -> tuple[list[int], list[list[int]], list[int]]:
    """LexBFS, lowest id on ties: the visit order, each vertex's earlier
    neighbours, and its parent, the latest of them (-1 for a vertex with
    no earlier neighbour).  Visiting v moves its neighbours in each class
    it reaches only in part into a new class just before that one."""
    adj = graph.adj
    part = _Partition(list(range(graph.n - 1, -1, -1)))
    where, size, nxt = part.where, part.size, part.nxt
    head, order, earlier, parent = 0, [], [[]] * graph.n, [-1] * graph.n
    for _ in range(graph.n):
        while not size[head]:
            head = nxt[head]
        v = part.pop(head)
        where[v] = -1  # visited
        size[head] -= 1
        order.append(v)
        earlier[v] = [u for u in adj[v] if where[u] < 0]
        reached = [u for u in adj[v] if where[u] >= 0]
        for u in reached:
            parent[u] = v
        for old, moved in part.group(reached).items():
            if len(moved) < size[old]:  # a class reached whole stays as it is
                new = part.split(old, sorted(moved, reverse=True), after=False)
                if old == head:
                    head = new
    return order, earlier, parent


def maximal_cliques_chordal(graph: Graph) -> list[list[int]] | None:
    """All maximal cliques of a chordal graph in LexBFS discovery order,
    each listed as its vertex's earlier neighbours and then the vertex, or
    None if the graph is not chordal.

    In LexBFS order, with C(v) = v plus its earlier neighbours: the graph
    is chordal exactly when each vertex's earlier neighbours other than
    its parent are all adjacent to the parent (Tarjan & Yannakakis 1984),
    and then C(p) is not maximal exactly when some u whose parent is p has
    |C(u)| = |C(p)| + 1.
    """
    order, earlier, parent = _lexbfs(graph)
    adj, maximal = graph.adj, [True] * graph.n
    for u, p in enumerate(parent):
        # p < 0 only where earlier[u] is empty, and then neither test holds
        if any(w != p and w not in adj[p] for w in earlier[u]):
            return None
        if len(earlier[u]) == len(earlier[p]) + 1:
            maximal[p] = False
    for v in order:
        earlier[v].append(v)
    return [earlier[v] for v in order if maximal[v]]


def _arrange_cliques(cliques: list[list[int]], n: int) -> list[int] | None:
    """The clique ids in an order where every vertex's cliques may be
    consecutive, or None; `cliques` must be in discovery order.

    The cliques start as one class, stacked in ascending id (so the
    last-discovered pops first), refined until every class is a singleton:
    - a pending pivot x, not yet done, whose cliques meet two or more
      classes needs those classes contiguous and the middle ones wholly
      its own; it moves its cliques in the two end classes of that run to
      the run's inner side, and is then done;
    - with no pivot pending, the top clique of a non-singleton class is
      split off after the rest;
    - every clique moved queues its vertices as pivots.
    A done pivot's cliques stay a run of whole classes, so with no pivot
    pending each class can be ordered on its own.  Only a run's last class
    gets one before it, so class 0 stays the head.  The order in which
    pending pivots are taken does not change the result.  The caller
    checks the final order for every vertex.
    """
    cliques_of: list[list[int]] = [[] for _ in range(n)]
    for c, clique in enumerate(cliques):
        for v in clique:
            cliques_of[v].append(c)
    part = _Partition(list(range(len(cliques))))
    size, prev, nxt = part.size, part.prev, part.nxt
    splittable = [0]  # every class of two or more cliques is on this stack
    state = bytearray(n)  # per vertex: 1 while a pending pivot, 2 once done
    pending: list[int] = []

    def split_off(old: int, moved: list[int], after: bool):
        new = part.split(old, moved, after)
        for c in moved:
            for v in cliques[c]:
                if not state[v]:
                    state[v] = 1
                    pending.append(v)
        if len(moved) > 1:
            splittable.append(new)

    while True:
        if pending:
            x = pending.pop()
            state[x] = 0
            mine = part.group(cliques_of[x])  # x's cliques by class, ascending
            if len(mine) < 2:
                continue
            starts = [q for q in mine if prev[q] not in mine]
            if len(starts) != 1:
                return None
            run = starts
            for _ in range(len(mine) - 1):
                run.append(nxt[run[-1]])
            if any(len(mine.get(q, ())) != size[q] for q in run[1:-1]):
                return None
            state[x] = 2
            for end, after in ((run[0], True), (run[-1], False)):
                if len(mine[end]) < size[end]:
                    split_off(end, mine[end], after)
            continue
        while splittable and size[splittable[-1]] < 2:
            splittable.pop()
        if not splittable:
            break
        old = splittable[-1]
        split_off(old, [part.pop(old)], after=True)

    arrangement, q = [], 0
    while q >= 0:
        arrangement.append(part.pop(q))  # each class holds one clique now
        q = nxt[q]
    return arrangement


def recognize_and_order(graph: Graph) -> CliqueOrdering:
    """Recognize an interval graph and return a valid clique ordering;
    raises NotIntervalError, whose `reason` names the failing stage, for
    any other graph."""
    if graph.n == 0:
        return CliqueOrdering(0, (), ())
    cliques = maximal_cliques_chordal(graph)
    if cliques is None:
        raise NotIntervalError("not-chordal")
    arrangement = _arrange_cliques(cliques, graph.n)
    if arrangement is None:
        raise NotIntervalError("no-consecutive-ordering")
    left, right = [-1] * graph.n, [-1] * graph.n
    for i, c in enumerate(arrangement):
        for v in cliques[c]:
            if left[v] < 0:
                left[v] = i
            right[v] = i
    # a vertex's range spans at least the cliques it is in, and exactly
    # them when they are consecutive; a vertex in none spans one
    if sum(right) - sum(left) + graph.n != sum(map(len, cliques)):
        raise NotIntervalError("no-consecutive-ordering")
    ordering = CliqueOrdering(len(cliques), tuple(left), tuple(right))
    _check_ordering_sanity(graph, ordering)
    return ordering


def _check_ordering_sanity(graph: Graph, ordering: CliqueOrdering):
    """ConstructionError unless the ranges meet on exactly the graph's
    edges, found in O(n log n + m): every edge's ranges meet, and exactly
    m pairs of ranges meet (`by_right_end`), so the pairs that meet are
    the edges.  Both halves read the input graph, not recognition's own
    data, so the ranges are then a certified interval model of the graph,
    and a representation verified against them is verified against it.
    The full validator, `validate_ordering`, is a test oracle in
    tests/validators.py; that every vertex's cliques are consecutive is
    checked where the ranges are made, in `recognize_and_order`.
    """
    n, left, right = graph.n, ordering.left, ordering.right
    # u's own ends are read once per adjacency row, not once per edge
    for u, row in enumerate(graph.adj):
        lu, ru = left[u], right[u]
        for v in row:
            if u < v and not (left[v] <= ru and lu <= right[v]):
                raise ConstructionError(f"ordering disagrees with adjacency on ({u}, {v})")
    meeting = n * (n - 1) // 2 - sum(by_right_end(left, right)[1])
    if meeting != graph.edge_count:
        raise ConstructionError(
            f"{meeting} pairs of clique ranges meet, the graph has {graph.edge_count} edges"
        )
