"""Slow and superseded recognition code, kept as references for the tests.

The exhaustive consecutive-ones search tries column orders by
backtracking, closing a row once the order has left it, so its cost grows
factorially with the number of columns.

The PQ-tree encodes a family of permutations of 0..size-1.  P-node
children may be permuted freely; Q-node children keep their order up to
reversal.  `reduce(S)` restricts the family to permutations placing S
consecutively, rebuilding the pertinent subtree, and fails exactly when no
permutation in the current family keeps S together.  Reduction follows the
classical template scheme, expressed recursively: descendants of the
pertinent root classify as empty, full, or partial, where a partial
subtree flattens to a Q-run with its empty block on one side and its full
block on the other.

`recognize_and_order` below is the recognizer the library used before
LexBFS: an O(n^2) maximum cardinality search for the elimination order, a
pairwise filter for the maximal cliques, and the PQ-tree for their
consecutive arrangement.
"""

from __future__ import annotations

from itertools import product

from intervalcubes import Graph, NotIntervalError
from intervalcubes.graphs import CliqueOrdering
from intervalcubes.recognition import _check_ordering_sanity

from validators import ordering_from_cliques


def consecutive_arrangement_exhaustive(rows, size: int) -> list[int] | None:
    """Backtracking search over all column orders; the independent oracle
    for the PQ-tree (practical for size <= 8)."""
    wanted = [set(r) for r in {frozenset(r) for r in rows} if len(r) >= 2]
    if size == 0:
        return []
    order: list[int] = []
    used = [False] * size
    seen = [0] * len(wanted)
    closed = [False] * len(wanted)

    def place(depth: int) -> bool:
        if depth == size:
            return True
        for col in range(size):
            if used[col]:
                continue
            touched = []
            ok = True
            for ri, row in enumerate(wanted):
                if col in row:
                    if closed[ri]:
                        ok = False
                        break
                    seen[ri] += 1
                    touched.append(ri)
            if ok:
                newly_closed = [
                    ri
                    for ri, row in enumerate(wanted)
                    if not closed[ri] and 0 < seen[ri] < len(row) and col not in row
                ]
                for ri in newly_closed:
                    closed[ri] = True
                used[col] = True
                order.append(col)
                if place(depth + 1):
                    return True
                order.pop()
                used[col] = False
                for ri in newly_closed:
                    closed[ri] = False
            for ri in touched:
                seen[ri] -= 1
        return False

    return list(order) if place(0) else None


class _Leaf:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class _PNode:
    __slots__ = ("children",)

    def __init__(self, children: list):
        self.children = children


class _QNode:
    __slots__ = ("children",)

    def __init__(self, children: list):
        self.children = children


def _group(nodes: list):
    return nodes[0] if len(nodes) == 1 else _PNode(list(nodes))


def _make_q(children: list):
    if len(children) == 1:
        return children[0]
    if len(children) == 2:
        # a two-child Q imposes nothing beyond a two-child P
        return _PNode(children)
    return _QNode(children)


_EMPTY, _FULL, _PARTIAL = 0, 1, 2


class PQTree:
    def __init__(self, size: int):
        self.size = size
        if size == 0:
            self.root = None
        elif size == 1:
            self.root = _Leaf(0)
        else:
            self.root = _PNode([_Leaf(i) for i in range(size)])

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def reduce(self, columns) -> bool:
        """Require the given columns to be consecutive.  Returns False and
        leaves the tree untouched if that is impossible."""
        wanted = frozenset(columns)
        if len(wanted) <= 1:
            return True
        if any(not (0 <= c < self.size) for c in wanted):
            raise ValueError("column out of range")
        full_counts: dict[int, int] = {}
        leaf_counts: dict[int, int] = {}
        self._count(self.root, wanted, full_counts, leaf_counts)
        new_root = self._descend(self.root, wanted, len(wanted), full_counts, leaf_counts)
        if new_root is None:
            return False
        self.root = new_root
        return True

    def frontier(self) -> list[int]:
        out: list[int] = []
        self._collect(self.root, out)
        return out

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _collect(self, node, out: list[int]):
        if node is None:
            return
        if isinstance(node, _Leaf):
            out.append(node.value)
        else:
            for child in node.children:
                self._collect(child, out)

    def _count(self, node, wanted, full_counts, leaf_counts) -> tuple[int, int]:
        if isinstance(node, _Leaf):
            fc, lc = (1 if node.value in wanted else 0), 1
        else:
            fc = lc = 0
            for child in node.children:
                cf, cl = self._count(child, wanted, full_counts, leaf_counts)
                fc += cf
                lc += cl
        full_counts[id(node)] = fc
        leaf_counts[id(node)] = lc
        return fc, lc

    def _descend(self, node, wanted, total, full_counts, leaf_counts):
        """Walk down to the deepest node containing all of S, then reduce
        there; rebuild the spine on the way back up."""
        if not isinstance(node, _Leaf):
            for idx, child in enumerate(node.children):
                if full_counts[id(child)] == total:
                    rebuilt = self._descend(child, wanted, total, full_counts, leaf_counts)
                    if rebuilt is None:
                        return None
                    children = list(node.children)
                    children[idx] = rebuilt
                    return type(node)(children)
        return self._reduce_root(node, wanted, full_counts, leaf_counts)

    def _reduce_root(self, node, wanted, full_counts, leaf_counts):
        if isinstance(node, _Leaf):
            return node
        states = []
        for child in node.children:
            st = self._reduce_inner(child, full_counts, leaf_counts)
            if st is None:
                return None
            states.append(st)

        if isinstance(node, _PNode):
            empty = [s[1] for s in states if s[0] == _EMPTY]
            full = [s[1] for s in states if s[0] == _FULL]
            partials = [s for s in states if s[0] == _PARTIAL]
            if len(partials) > 2:
                return None
            if not partials:
                if not empty:
                    return node  # subtree is exactly S; already a block
                return _PNode(empty + [_group(full)])
            if len(partials) == 1:
                _, pe, pf = partials[0]
                run = list(pe) + list(pf) + ([_group(full)] if full else [])
                q = _make_q(run)
                return _PNode(empty + [q]) if empty else q
            _, pe1, pf1 = partials[0]
            _, pe2, pf2 = partials[1]
            run = (
                list(pe1)
                + list(pf1)
                + ([_group(full)] if full else [])
                + list(reversed(pf2))
                + list(reversed(pe2))
            )
            q = _make_q(run)
            return _PNode(empty + [q]) if empty else q

        # Q-node root: spliced child states must read E* F* E*, with at most
        # two partial children sitting at the block boundaries.
        partial_slots = [i for i, s in enumerate(states) if s[0] == _PARTIAL]
        if len(partial_slots) > 2:
            return None
        for flips in product((False, True), repeat=len(partial_slots)):
            flip_at = dict(zip(partial_slots, flips))
            seq: list[tuple[int, object]] = []
            for i, st in enumerate(states):
                if st[0] == _PARTIAL:
                    _, pe, pf = st
                    if flip_at[i]:
                        seq.extend((_FULL, n) for n in reversed(pf))
                        seq.extend((_EMPTY, n) for n in reversed(pe))
                    else:
                        seq.extend((_EMPTY, n) for n in pe)
                        seq.extend((_FULL, n) for n in pf)
                else:
                    seq.append((st[0], st[1]))
            tags = [t for t, _ in seq]
            full_runs = sum(
                1 for j, t in enumerate(tags) if t == _FULL and (j == 0 or tags[j - 1] != _FULL)
            )
            if full_runs <= 1:
                return _make_q([n for _, n in seq])
        return None

    def _reduce_inner(self, node, full_counts, leaf_counts):
        """Classify a non-root pertinent node, restructuring as needed.

        Returns (_EMPTY, node), (_FULL, node), or (_PARTIAL, empty_run,
        full_run) where the runs are node lists whose concatenation (or its
        mirror) must appear as one consecutive stretch; None if irreducible.
        """
        cnt = full_counts[id(node)]
        if cnt == 0:
            return (_EMPTY, node)
        if cnt == leaf_counts[id(node)]:
            return (_FULL, node)

        states = []
        for child in node.children:
            st = self._reduce_inner(child, full_counts, leaf_counts)
            if st is None:
                return None
            states.append(st)

        if isinstance(node, _PNode):
            empty = [s[1] for s in states if s[0] == _EMPTY]
            full = [s[1] for s in states if s[0] == _FULL]
            partials = [s for s in states if s[0] == _PARTIAL]
            if len(partials) > 1:
                return None
            if partials:
                _, pe, pf = partials[0]
                erun = ([_group(empty)] if empty else []) + list(pe)
                frun = list(pf) + ([_group(full)] if full else [])
                return (_PARTIAL, erun, frun)
            return (_PARTIAL, [_group(empty)], [_group(full)])

        # Q-node: after an optional reversal the children must read E* P? F*
        if sum(1 for s in states if s[0] == _PARTIAL) > 1:
            return None
        for ordered in (states, list(reversed(states))):
            seq: list[tuple[int, object]] = []
            for st in ordered:
                if st[0] == _PARTIAL:
                    _, pe, pf = st
                    seq.extend((_EMPTY, n) for n in pe)
                    seq.extend((_FULL, n) for n in pf)
                else:
                    seq.append((st[0], st[1]))
            tags = [t for t, _ in seq]
            try:
                first_full = tags.index(_FULL)
            except ValueError:
                continue
            if all(t == _FULL for t in tags[first_full:]) and all(
                t == _EMPTY for t in tags[:first_full]
            ):
                erun = [n for t, n in seq if t == _EMPTY]
                frun = [n for t, n in seq if t == _FULL]
                return (_PARTIAL, erun, frun)
        return None


def consecutive_arrangement(rows, size: int) -> list[int] | None:
    """Order 0..size-1 so every row (a set of column indices) is
    consecutive; None if no such order exists."""
    if size == 0:
        return []
    tree = PQTree(size)
    for row in sorted({frozenset(r) for r in rows}, key=lambda r: (len(r), sorted(r))):
        if len(row) <= 1:
            continue
        if not tree.reduce(row):
            return None
    return tree.frontier()


def mcs_order(graph: Graph) -> list[int]:
    """Maximum cardinality search visit order, lowest index on ties."""
    n = graph.n
    weight = [0] * n
    visited = [False] * n
    order = []
    for _ in range(n):
        best = max(
            (v for v in range(n) if not visited[v]),
            key=lambda v: (weight[v], -v),
        )
        visited[best] = True
        order.append(best)
        for w in graph.adj[best]:
            if not visited[w]:
                weight[w] += 1
    return order


def perfect_elimination_ordering(graph: Graph) -> list[int] | None:
    """A perfect elimination ordering, or None if the graph is not chordal."""
    peo = list(reversed(mcs_order(graph)))
    pos = {v: i for i, v in enumerate(peo)}
    for v in peo:
        later = [w for w in graph.adj[v] if pos[w] > pos[v]]
        if not later:
            continue
        anchor = min(later, key=lambda w: pos[w])
        rest = set(later) - {anchor}
        if not rest <= graph.adj[anchor]:
            return None
    return peo


def maximal_cliques_chordal(graph: Graph, peo: list[int]) -> list[frozenset[int]]:
    """All maximal cliques of a chordal graph, from its elimination ordering."""
    pos = {v: i for i, v in enumerate(peo)}
    candidates = {
        frozenset({v} | {w for w in graph.adj[v] if pos[w] > pos[v]}) for v in peo
    }
    cliques = [
        c for c in candidates if not any(c < d for d in candidates)
    ]
    cliques.sort(key=lambda c: sorted(c))
    return cliques


def recognize_and_order(graph: Graph) -> CliqueOrdering:
    """Recognize an interval graph and return a valid clique ordering;
    raises NotIntervalError, whose `reason` names the failing stage, for
    any other graph."""
    if graph.n == 0:
        return CliqueOrdering(0, (), ())
    peo = perfect_elimination_ordering(graph)
    if peo is None:
        raise NotIntervalError("not-chordal")
    cliques = maximal_cliques_chordal(graph, peo)
    rows = [
        [i for i, c in enumerate(cliques) if v in c] for v in range(graph.n)
    ]
    arrangement = consecutive_arrangement(rows, len(cliques))
    if arrangement is None:
        raise NotIntervalError("no-consecutive-ordering")
    ordering = ordering_from_cliques([cliques[i] for i in arrangement], graph.n)
    _check_ordering_sanity(graph, ordering)
    return ordering
