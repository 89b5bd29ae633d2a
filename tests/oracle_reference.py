"""The subset-enumeration oracle, kept as a slow reference.

Candidate indifference supergraphs are enumerated over subsets of the
non-edges, smallest first, and each is tested by a backtracking search
for a vertex order in which every earlier neighbour run is a clique
suffix of the prefix.  Its cost follows 2^(non-edges), so it is only fit
for small inputs; the library enumerates vertex orders instead.

Also here: the order search over every vertex order, which the library
now runs over twin-canonical orders seeded by greedy descents; exact
claw and independence numbers by exhaustive search; and explicit
unit-interval positions for a graph along a given vertex order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from intervalcubes import Graph, non_edges


def _adj_masks(graph: Graph) -> list[int]:
    return [sum(1 << w for w in graph.adj[v]) for v in range(graph.n)]


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
            if v in graph.adj[u]:
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
            if (v in graph.adj[u]) != (abs(values[u] - values[v]) <= 1):
                return None
    return values


def _has_claw(n: int, adj) -> bool:
    """Induced star on three leaves anywhere; indifference graphs have none,
    so this is a cheap rejection before the ordering search."""
    for v in range(n):
        nb = adj[v]
        m = nb
        while m:
            low_u = m & -m
            u = low_u.bit_length() - 1
            m ^= low_u
            m2 = m
            while m2:
                low_w = m2 & -m2
                w = low_w.bit_length() - 1
                m2 ^= low_w
                if (adj[u] >> w) & 1:
                    continue
                if nb & ~adj[u] & ~adj[w] & ~low_u & ~low_w:
                    return True
    return False


def _ordering_masks(n: int, adj) -> tuple[int, ...] | None:
    """A vertex order in which every vertex's earlier neighbours form a
    clique suffix of the prefix, or None; adjacency given as bitmasks."""
    if _has_claw(n, adj):
        return None

    order: list[int] = []
    # clique_start[t]: least s such that order[s:t] is a clique
    clique_start = [0]
    prefix_mask = 0

    def place() -> bool:
        nonlocal prefix_mask
        t = len(order)
        if t == n:
            return True
        for x in range(n):
            if (prefix_mask >> x) & 1:
                continue
            ax = adj[x]
            i = t
            suffix_mask = 0
            while i > 0 and (ax >> order[i - 1]) & 1:
                i -= 1
                suffix_mask |= 1 << order[i]
            # earlier neighbours must be exactly a suffix, and that suffix a clique
            if (ax & prefix_mask) != suffix_mask or i < clique_start[t]:
                continue
            order.append(x)
            prefix_mask |= 1 << x
            clique_start.append(max(clique_start[t], i))
            if place():
                return True
            order.pop()
            prefix_mask ^= 1 << x
            clique_start.pop()
        return False

    return tuple(order) if place() else None


def reference_ordering(graph: Graph) -> tuple[int, ...] | None:
    return _ordering_masks(graph.n, _adj_masks(graph))


def reference_candidates(graph: Graph) -> tuple[list[int], list[tuple[int, int]]]:
    """Missing-non-edge sets (bitmasks over the non-edge list) of the
    inclusion-maximal indifference supergraphs, sorted by (-size, mask).

    Enumerates added-edge subsets smallest first, skipping supersets of
    successes, so the successes are exactly the minimal added sets.
    """
    missing = non_edges(graph)
    e = len(missing)
    base = _adj_masks(graph)
    minimal_added: list[int] = []
    for size in range(e + 1):
        for combo in combinations(range(e), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if any(found & mask == found for found in minimal_added):
                continue
            adj = list(base)
            for i in combo:
                u, v = missing[i]
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            if _ordering_masks(graph.n, adj) is not None:
                minimal_added.append(mask)
    universe = (1 << e) - 1
    candidates = [universe ^ added for added in minimal_added]
    candidates.sort(key=lambda m: (-m.bit_count(), m))
    return candidates, missing


def order_closures(graph: Graph, pair_bit, prune, leaf) -> int:
    """Depth-first search over all vertex orders, placing one vertex at a time.

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


def order_candidates(graph: Graph) -> tuple[list[int], list[tuple[int, int]], int]:
    """The candidate masks, sorted by (-size, mask), the non-edge list and
    the prefixes visited, from the search over every vertex order.

    Every indifference supergraph of G contains the closure of G under one
    of its umbrella-free orders, so the minimal added sets are the minimal
    closures over all orders.  A prefix's added set only grows along its
    branch, so prefixes containing a closure already found are cut; a new
    closure evicts the found ones that contain it.
    """
    missing = non_edges(graph)
    pair_bit = [[0] * graph.n for _ in range(graph.n)]
    for i, (u, v) in enumerate(missing):
        pair_bit[u][v] = pair_bit[v][u] = 1 << i
    minimal_added: list[int] = []

    def contains_found(added: int) -> bool:
        return any(found & added == found for found in minimal_added)

    def keep(_, added: int) -> bool:
        minimal_added[:] = [found for found in minimal_added if found & added != added]
        minimal_added.append(added)
        return False

    visited = order_closures(graph, pair_bit, contains_found, keep)
    universe = (1 << len(missing)) - 1
    candidates = [universe ^ added for added in minimal_added]
    candidates.sort(key=lambda m: (-m.bit_count(), m))
    return candidates, missing, visited


def reference_supergraphs(candidates, missing) -> list[list[tuple[int, int]]]:
    """reference_candidates' masks as sorted pair lists."""
    return [
        [missing[i] for i in range(len(missing)) if (mask >> i) & 1]
        for mask in candidates
    ]
