"""The two hand-rolled partition refinements that `recognition._Partition`
replaced, kept word for word as the tests' reference: LexBFS with a set
per class, a sorted stack per class and a `where` dict, and the clique
arrangement with per-class member lists, a `size` list and a `where`
list, both linked through `_link`.

`maximal_cliques_chordal` and `recognize_and_order` below run on these
two as the library did when it kept a frozenset of earlier neighbours
per vertex, a frozenset per clique and its pending pivots in a set,
which it pops in hash order.  The identity differential requires the
same clique member sets in the same order and the same outcome.
"""

from __future__ import annotations

from intervalcubes.graphs import Graph, NotIntervalError
from intervalcubes.graphs import CliqueOrdering
from intervalcubes.recognition import _check_ordering_sanity

from validators import ordering_from_cliques


def _lexbfs(graph: Graph) -> tuple[dict[int, frozenset[int]], dict[int, int]]:
    """LexBFS by partition refinement, lowest id on ties: each vertex's
    earlier neighbours, keyed in visit order, and its parent, the latest
    of them (vertices with no earlier neighbour have none).

    The unvisited vertices sit in a linked list of classes.  Visiting v
    moves its neighbours in each class it reaches only in part into a new
    class just before that one, by set operations.  Each class also stacks
    its members in descending id, so the lowest pops off the end; a vertex
    that moved on leaves a stale entry behind, which the pop skips.
    """
    n = graph.n
    classes = [set(range(n))]
    stacks = [list(range(n - 1, -1, -1))]
    prev, nxt = [-1], [-1]
    where = dict.fromkeys(range(n), 0)  # class of each unvisited vertex
    head = 0
    earlier: dict[int, frozenset[int]] = {}
    parent: dict[int, int] = {}
    for _ in range(n):
        while not classes[head]:
            head = nxt[head]
        stack = stacks[head]
        v = stack.pop()
        while where.get(v) != head:
            v = stack.pop()
        classes[head].discard(v)
        del where[v]
        reached = graph.adj[v] & where.keys()
        earlier[v] = graph.adj[v] - reached
        parent.update(dict.fromkeys(reached, v))
        for old in dict.fromkeys(map(where.__getitem__, reached)):
            moved = classes[old] & reached
            if len(moved) == len(classes[old]):
                continue  # the whole class is reached: nothing to split
            classes[old] -= moved
            new = _link(prev, nxt, prev[old], old)
            classes.append(moved)
            stacks.append(sorted(moved, reverse=True))
            where.update(dict.fromkeys(moved, new))
            if old == head:
                head = new
    return earlier, parent


def _link(prev: list[int], nxt: list[int], left: int, right: int) -> int:
    """Add a class between neighbours `left` and `right` (-1 for none) of
    a linked list kept as two arrays; returns its index."""
    new = len(prev)
    prev.append(left)
    nxt.append(right)
    if left >= 0:
        nxt[left] = new
    if right >= 0:
        prev[right] = new
    return new


def maximal_cliques_chordal(graph: Graph) -> list[frozenset[int]] | None:
    """All maximal cliques of a chordal graph in LexBFS discovery order,
    or None if the graph is not chordal."""
    earlier, parent = _lexbfs(graph)
    maximal = [True] * graph.n
    for u, p in parent.items():
        # p is not its own neighbour, so the difference holds p and no more
        if len(earlier[u] - graph.adj[p]) > 1:
            return None
        if len(earlier[u]) == len(earlier[p]) + 1:
            maximal[p] = False
    return [clique | {v} for v, clique in earlier.items() if maximal[v]]


def _arrange_cliques(cliques: list[frozenset[int]], n: int) -> list[int] | None:
    """Order the clique ids so that every vertex's cliques may be
    consecutive, or None if they cannot; `cliques` must be in discovery
    order.

    An ordered partition of the clique ids, a linked list of classes,
    starts as one class and is refined until every class is a singleton:
    - a pending pivot x, not yet done, whose cliques meet two or more
      classes needs those classes contiguous and the middle ones wholly
      its own; it moves its cliques in the two end classes of that run to
      the run's inner side, and is then done;
    - with no pivot pending, the last-discovered clique of a non-singleton
      class is split off after the rest;
    - every clique moved queues its vertices as pivots.
    A done pivot's cliques stay a run of whole classes, so with no pivot
    pending each class can be ordered on its own.  The caller checks the
    final order for every vertex.
    """
    k = len(cliques)
    cliques_of: list[list[int]] = [[] for _ in range(n)]
    for c, clique in enumerate(cliques):
        for v in clique:
            cliques_of[v].append(c)
    where = [0] * k  # class of each clique
    members = [list(range(k))]  # ascending clique ids per class; stale entries allowed
    size, prev, nxt = [k], [-1], [-1]
    splittable = [0]  # every class of two or more cliques is on this stack
    done: set[int] = set()
    pending: set[int] = set()

    def split_off(old: int, moved: list[int], after: bool):
        """Move `moved`, an ascending strict subset of class `old`, into a
        new class right after or right before it.  Only the last class of a
        run gets one before it, so class 0 stays the head."""
        new = _link(prev, nxt, old, nxt[old]) if after else _link(prev, nxt, prev[old], old)
        for c in moved:
            where[c] = new
            pending.update(cliques[c].difference(done))
        members.append(moved)
        size.append(len(moved))
        size[old] -= len(moved)
        if len(moved) > 1:
            splittable.append(new)

    while True:
        if pending:
            x = pending.pop()
            mine: dict[int, list[int]] = {}  # x's cliques by class, ascending
            for c in cliques_of[x]:
                mine.setdefault(where[c], []).append(c)
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
            done.add(x)
            for end, after in ((run[0], True), (run[-1], False)):
                if len(mine[end]) < size[end]:
                    split_off(end, mine[end], after)
            continue
        while splittable and size[splittable[-1]] < 2:
            splittable.pop()
        if not splittable:
            break
        old = splittable[-1]
        stack = members[old]
        c = stack.pop()
        while where[c] != old:
            c = stack.pop()
        split_off(old, [c], after=True)

    at = dict(zip(where, range(k)))  # the clique of each singleton class
    arrangement, q = [], 0
    while q >= 0:
        arrangement.append(at[q])
        q = nxt[q]
    return arrangement


def recognize_and_order(graph: Graph) -> CliqueOrdering:
    """The library's recognizer on the two refinements above."""
    if graph.n == 0:
        return CliqueOrdering(0, (), ())
    cliques = maximal_cliques_chordal(graph)
    if cliques is None:
        raise NotIntervalError("not-chordal")
    arrangement = _arrange_cliques(cliques, graph.n)
    if arrangement is None:
        raise NotIntervalError("no-consecutive-ordering")
    try:
        ordering = ordering_from_cliques([cliques[i] for i in arrangement], graph.n)
    except ValueError:
        raise NotIntervalError("no-consecutive-ordering") from None
    _check_ordering_sanity(graph, ordering)
    return ordering
