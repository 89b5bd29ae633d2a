"""Brute-force ground truth at desk scale.

Exact claw and independence numbers by exhaustive search, and exact
cubicity via the intersection characterization: the minimum number of
indifference supergraphs whose shared non-edges cover every non-edge of
the input.

A graph is an indifference graph exactly when some vertex order is
umbrella-free: whenever u < v < w and u ~ w, also u ~ v and v ~ w.  For a
fixed order the smallest umbrella-free supergraph, its closure, is
unique, and every indifference supergraph contains the closure under one
of its own orders.  So the inclusion-maximal missing-non-edge sets are the
complements of the minimal closures.  A depth-first search over order
prefixes builds each closure as it places vertices, and cuts a prefix as
soon as its added edges contain a closure already found.  Its cost follows
the n! orders rather than the 2^e subsets of the e non-edges.  The minimal
closures then feed a branch-and-bound set cover that finds the minimum
family size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, non_edges

MAX_ORACLE_VERTICES = 8
MAX_ORACLE_NON_EDGES = 24


class SizeRefusalError(ValueError):
    """The instance exceeds the oracle's hard safety bounds."""


# ----------------------------------------------------------------------
# exact independent sets
# ----------------------------------------------------------------------

def _adj_masks(graph: Graph) -> list[int]:
    return [
        sum(1 << w for w in graph.adj[v]) for v in range(graph.n)
    ]


def _mis_size(pool: int, adj: list[int]) -> int:
    """Maximum independent set size within the pool bitmask."""
    if pool == 0:
        return 0
    # isolated vertices always join the set
    v = None
    best_deg = -1
    m = pool
    while m:
        low = m & -m
        u = low.bit_length() - 1
        m ^= low
        deg = (adj[u] & pool).bit_count()
        if deg == 0:
            return 1 + _mis_size(pool ^ low, adj)
        if deg > best_deg:
            best_deg, v = deg, u
    take = 1 + _mis_size(pool & ~(adj[v] | (1 << v)), adj)
    skip = _mis_size(pool ^ (1 << v), adj)
    return max(take, skip)


def brute_alpha(graph: Graph) -> int:
    return _mis_size((1 << graph.n) - 1, _adj_masks(graph))


def brute_claw(graph: Graph) -> int:
    adj = _adj_masks(graph)
    return max((_mis_size(adj[v], adj) for v in range(graph.n)), default=0)


# ----------------------------------------------------------------------
# vertex-order closures
# ----------------------------------------------------------------------

def _order_closures(graph: Graph, pair_bit, prune, leaf) -> int:
    """Depth-first search over vertex orders, placing one vertex at a time.

    Placing x at position t joins x to every earlier vertex from position f
    on, where f is the first earlier position whose vertex still has a
    neighbor among the unplaced vertices, x included; f never decreases
    along a branch.  Each prefix carries the edges this forces beyond the
    graph, as the union of `pair_bit[x][u]` over the forced pairs.  A
    prefix with prune(added) true is cut, and every full order that
    survives goes to leaf(order, added), which returns True to stop.
    Returns the number of prefixes visited.
    """
    n = graph.n
    adj = _adj_masks(graph)
    everyone = (1 << n) - 1
    order: list[int] = []
    prefix_masks = [0]
    visited = 0

    def extend(f: int, added: int) -> bool:
        nonlocal visited
        visited += 1
        if prune(added):
            return False
        t = len(order)
        if t == n:
            return leaf(tuple(order), added)
        placed = prefix_masks[t]
        unplaced = everyone ^ placed
        while f < t and not adj[order[f]] & unplaced:
            f += 1
        window = placed ^ prefix_masks[f]
        for x in range(n):
            if (placed >> x) & 1:
                continue
            gained = added
            forced = window & ~adj[x]
            while forced:
                low = forced & -forced
                gained |= pair_bit[x][low.bit_length() - 1]
                forced ^= low
            order.append(x)
            prefix_masks.append(placed | (1 << x))
            if extend(f, gained):
                return True
            order.pop()
            prefix_masks.pop()
        return False

    extend(0, 0)
    return visited


def indifference_ordering(graph: Graph) -> tuple[int, ...] | None:
    """A vertex order in which every vertex's earlier neighbors form a
    clique suffix of the prefix; exists exactly for indifference graphs.

    This is the order search cut at the first forced edge, so the first
    full order it reaches is umbrella-free for the graph itself.  Its cost
    can grow with n!, so graphs above MAX_ORACLE_VERTICES are refused.
    """
    _refuse_if_many_vertices(graph)
    found: list[tuple[int, ...]] = []

    def stop(order: tuple[int, ...], _) -> bool:
        found.append(order)
        return True

    # every pair gets a nonzero bit, so prune=bool cuts any forced edge
    _order_closures(graph, [[1] * graph.n] * graph.n, bool, stop)
    return found[0] if found else None


def unit_realization(graph: Graph, order) -> tuple[Fraction, ...] | None:
    """Explicit positions realizing the graph with threshold 1 along the
    given order, or None if none exists.

    Difference constraints with a symbolic infinitesimal for strictness
    are solved by longest paths; the infinitesimal is then replaced by a
    concrete rational small enough to keep every comparison's outcome.
    """
    n = graph.n
    if n == 0:
        return ()
    order = list(order)
    pos = {v: i for i, v in enumerate(order)}
    if sorted(pos) != list(range(n)) or len(pos) != n:
        raise ValueError("order must be a permutation of the vertices")

    # weights are (rational, epsilon-coefficient) pairs; lex order matches
    # evaluation at an infinitesimal positive epsilon
    edges: list[tuple[int, int, tuple[Fraction, int]]] = []
    for i in range(n - 1):
        edges.append((order[i], order[i + 1], (Fraction(0), 0)))
    for a in range(n):
        for b in range(a + 1, n):
            u, v = order[a], order[b]
            if graph.has_edge(u, v):
                edges.append((v, u, (Fraction(-1), 0)))
            else:
                edges.append((u, v, (Fraction(1), 1)))

    dist: list[tuple[Fraction, int] | None] = [None] * n
    dist[order[0]] = (Fraction(0), 0)
    for _ in range(n):
        changed = False
        for u, v, (wa, wb) in edges:
            du = dist[u]
            if du is None:
                continue
            cand = (du[0] + wa, du[1] + wb)
            if dist[v] is None or cand > dist[v]:
                dist[v] = cand
                changed = True
        if not changed:
            break
    for u, v, (wa, wb) in edges:
        du = dist[u]
        if du is not None:
            cand = (du[0] + wa, du[1] + wb)
            if dist[v] is None or cand > dist[v]:
                return None  # still improvable: positive cycle, infeasible
    if any(d is None for d in dist):
        return None

    # any epsilon below every comparison's flip threshold works
    eps = Fraction(1, 2)
    for a in range(n):
        for b in range(a + 1, n):
            da = dist[a][0] - dist[b][0]
            db = dist[a][1] - dist[b][1]
            if db == 0:
                continue
            for target in (Fraction(-1), Fraction(0), Fraction(1)):
                if da != target:
                    eps = min(eps, abs(da - target) / (2 * abs(db)))
    values = tuple(d[0] + d[1] * eps for d in dist)

    for u in range(n):
        for v in range(u + 1, n):
            if graph.has_edge(u, v) != (abs(values[u] - values[v]) <= 1):
                return None
    return values


# ----------------------------------------------------------------------
# supergraph enumeration and exact cubicity
# ----------------------------------------------------------------------

def _refuse_if_many_vertices(graph: Graph):
    if graph.n > MAX_ORACLE_VERTICES:
        raise SizeRefusalError(
            f"{graph.n} vertices exceeds the oracle bound of {MAX_ORACLE_VERTICES}"
        )


def _refuse_if_large(graph: Graph) -> list[tuple[int, int]]:
    _refuse_if_many_vertices(graph)
    missing = non_edges(graph)
    if len(missing) > MAX_ORACLE_NON_EDGES:
        raise SizeRefusalError(
            f"{len(missing)} non-edges exceeds the oracle bound of {MAX_ORACLE_NON_EDGES}"
        )
    return missing


def _enumerate_candidates(graph: Graph) -> tuple[list[int], list[tuple[int, int]], int]:
    """Missing-non-edge sets (as bitmasks over the non-edge list) of the
    inclusion-maximal indifference supergraphs, plus the prefixes visited.

    Every indifference supergraph of G contains the closure of G under one
    of its umbrella-free orders, so the minimal added sets are the minimal
    closures over all orders.  A prefix's added set only grows along its
    branch, so prefixes containing a closure already found are cut; a new
    closure evicts the found ones that contain it.
    """
    missing = _refuse_if_large(graph)
    pair_bit = [[0] * graph.n for _ in range(graph.n)]
    for i, (u, v) in enumerate(missing):
        pair_bit[u][v] = pair_bit[v][u] = 1 << i
    minimal_added: list[int] = []

    def contains_found(added: int) -> bool:
        for found in minimal_added:
            if found & added == found:
                return True
        return False

    def keep(_, added: int) -> bool:
        minimal_added[:] = [found for found in minimal_added if found & added != added]
        minimal_added.append(added)
        return False

    visited = _order_closures(graph, pair_bit, contains_found, keep)
    universe = (1 << len(missing)) - 1
    candidates = [universe ^ added for added in minimal_added]
    candidates.sort(key=lambda m: (-m.bit_count(), m))
    return candidates, missing, visited


def indifference_supergraphs(graph: Graph) -> list[list[tuple[int, int]]]:
    """The inclusion-maximal sets of input non-edges that one indifference
    supergraph can leave uncovered, as sorted pair lists."""
    candidates, missing, _ = _enumerate_candidates(graph)
    out = []
    for mask in candidates:
        pairs = [missing[i] for i in range(len(missing)) if (mask >> i) & 1]
        out.append(pairs)
    return out


@dataclass(frozen=True)
class ExactResult:
    cubicity: int
    witness: tuple[tuple[tuple[int, int], ...], ...]
    candidates_enumerated: int
    cover_nodes: int

    def to_json_obj(self) -> dict:
        return {
            "cubicity": self.cubicity,
            "witness": [[list(p) for p in member] for member in self.witness],
            "candidates_enumerated": self.candidates_enumerated,
            "cover_nodes": self.cover_nodes,
        }


@dataclass(frozen=True)
class Exceeded:
    b_max: int
    candidates_enumerated: int
    cover_nodes: int

    def to_json_obj(self) -> dict:
        return {
            "exceeded": True,
            "b_max": self.b_max,
            "candidates_enumerated": self.candidates_enumerated,
            "cover_nodes": self.cover_nodes,
        }


def exact_cubicity(graph: Graph, b_max: int = 4) -> ExactResult | Exceeded:
    """Minimum family size by iterative-deepening branch and bound over the
    candidate missing sets; complete graphs need zero."""
    missing = _refuse_if_large(graph)
    if not missing:
        return ExactResult(0, (), 0, 0)
    candidates, missing, visited = _enumerate_candidates(graph)
    universe = (1 << len(missing)) - 1
    nodes = 0

    def cover(uncovered: int, depth: int, chosen: list[int]) -> bool:
        nonlocal nodes
        nodes += 1
        if uncovered == 0:
            return True
        if depth == 0:
            return False
        pivot = (uncovered & -uncovered).bit_length() - 1
        for mask in candidates:
            if (mask >> pivot) & 1:
                chosen.append(mask)
                if cover(uncovered & ~mask, depth - 1, chosen):
                    return True
                chosen.pop()
        return False

    for b in range(1, b_max + 1):
        chosen: list[int] = []
        if cover(universe, b, chosen):
            witness = tuple(
                tuple(missing[i] for i in range(len(missing)) if (mask >> i) & 1)
                for mask in chosen
            )
            return ExactResult(b, witness, visited, nodes)
    return Exceeded(b_max, visited, nodes)
