"""Brute-force ground truth at desk scale.

Exact cubicity via the intersection characterization: the minimum number
of indifference supergraphs whose shared non-edges cover every non-edge
of the input.

A graph is an indifference graph exactly when some vertex order is
umbrella-free: whenever u < v < w and u ~ w, also u ~ v and v ~ w.  For a
fixed order the smallest umbrella-free supergraph, its closure, is
unique, and every indifference supergraph contains the closure under one
of its own orders.  So the inclusion-maximal missing-non-edge sets are the
complements of the minimal closures.  A depth-first search over order
prefixes builds each closure as it places vertices, and cuts a prefix as
soon as its added edges contain a closure already found.  Its cost follows
the n! orders rather than the 2^e subsets of the e non-edges.

Twins, vertices with equal open or equal closed neighbourhoods, cut the
orders down.  Swapping two twins is an automorphism tau, and the closure
under the order tau(s) is tau of the closure under s, so the search places
each twin class in index order and adds each closure it finds with its
orbit under the twin swaps.  Greedy descents run first, one from each
allowed first vertex, each step placing the vertex that forces the fewest
pairs.  What they reach are closures, so cutting on them is sound.  On a
path the descent from an end vertex reaches the empty closure, which cuts
everything after; ties can lead a descent astray on other indifference
graphs.  The minimal closures then feed a branch-and-bound set cover that
finds the minimum family size.
"""

from __future__ import annotations

from .graphs import MAX_ORACLE_VERTICES, Graph, Record, SizeRefusalError, non_edges


# ----------------------------------------------------------------------
# vertex-order closures
# ----------------------------------------------------------------------

def _adj_masks(graph: Graph) -> list[int]:
    return [sum(1 << w for w in graph.adj[v]) for v in range(graph.n)]


def _consecutive_twins(adj: list[int]) -> list[tuple[int, int]]:
    """Each two consecutive members a < b of a class of vertices with equal
    open or equal closed neighbourhoods.  One table holds both kinds: a
    closed neighbourhood holds its vertex and an open one does not, and
    N(u) = N[v] is impossible, since v in N(u) would put u in N(u)."""
    groups: dict[int, list[int]] = {}
    for v, a in enumerate(adj):
        groups.setdefault(a, []).append(v)
        groups.setdefault(a | 1 << v, []).append(v)
    return [(a, b) for members in groups.values() for a, b in zip(members, members[1:])]


def _order_closures(graph: Graph, pair_bit, prune, leaf) -> int:
    """Depth-first search over the vertex orders that place each twin class
    in index order, placing one vertex at a time.

    Placing x at position t joins x to every earlier vertex from position f
    on, where f is the first earlier position whose vertex still has a
    neighbor among the unplaced vertices, x included; f never decreases
    along a branch.  Each prefix carries the edges this forces beyond the
    graph, as the union of `pair_bit[x][u]` over the forced pairs.  A
    prefix with prune(added) true is cut, and every full order that
    survives goes to leaf(order, added), which returns True to stop.  The
    greedy descents run first, taking the lower index on ties.  Returns the
    number of prefixes visited, theirs included.
    """
    n = graph.n
    adj = _adj_masks(graph)
    # a twin is placed only after the class member just below it
    needs = [0] * n
    for a, b in _consecutive_twins(adj):
        needs[b] = 1 << a
    everyone = (1 << n) - 1
    order: list[int] = []
    prefix_masks = [0]
    visited = 0

    def extend(f: int, added: int, greedy: bool) -> bool:
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
        children = []
        for x in range(n):
            if (placed >> x) & 1 or needs[x] & unplaced:
                continue
            gained = added
            forced = window & ~adj[x]
            while forced:
                low = forced & -forced
                gained |= pair_bit[x][low.bit_length() - 1]
                forced ^= low
            children.append((x, gained))
        if greedy and t:
            children = [min(children, key=lambda child: (child[1].bit_count(), child[0]))]
        for x, gained in children:
            order.append(x)
            prefix_masks.append(placed | (1 << x))
            if extend(f, gained, greedy):
                return True
            order.pop()
            prefix_masks.pop()
        return False

    if not extend(0, 0, True):
        extend(0, 0, False)
    return visited


# ----------------------------------------------------------------------
# supergraph enumeration and exact cubicity
# ----------------------------------------------------------------------

def refuse_if_large(n: int):
    """SizeRefusalError past the vertex bound, for a graph of n vertices."""
    if n > MAX_ORACLE_VERTICES:
        raise SizeRefusalError(f"{n} vertices exceeds the oracle bound of {MAX_ORACLE_VERTICES}")


def _enumerate_candidates(graph: Graph, missing: list[tuple[int, int]]) -> tuple[list[int], int]:
    """Missing-non-edge sets (as bitmasks over `missing`, the graph's
    non-edges) of the inclusion-maximal indifference supergraphs, plus the
    prefixes visited.  A new closure joins with its orbit under the twin
    swaps, and each member evicts the found closures that contain it.
    """
    pair_bit = [[0] * graph.n for _ in range(graph.n)]
    for i, (u, v) in enumerate(missing):
        pair_bit[u][v] = pair_bit[v][u] = 1 << i
    # each swap of consecutive twins, as the image bit of each non-edge bit
    swaps = []
    for a, b in _consecutive_twins(_adj_masks(graph)):
        swap = {a: b, b: a}
        swaps.append([pair_bit[swap.get(u, u)][swap.get(v, v)] for u, v in missing])
    minimal_added: list[int] = []

    def contains_found(added: int) -> bool:
        for found in minimal_added:
            if found & added == found:
                return True
        return False

    def keep(_, added: int) -> bool:
        orbit, frontier = {added}, [added]
        while frontier:
            mask = frontier.pop()
            for images in swaps:
                image = sum(bit for i, bit in enumerate(images) if mask >> i & 1)
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        # twin images have one size, so no member contains another
        for image in orbit:
            if not contains_found(image):
                minimal_added[:] = [found for found in minimal_added if found & image != image]
                minimal_added.append(image)
        return False

    visited = _order_closures(graph, pair_bit, contains_found, keep)
    universe = (1 << len(missing)) - 1
    candidates = [universe ^ added for added in minimal_added]
    candidates.sort(key=lambda m: (-m.bit_count(), m))
    return candidates, visited


class ExactResult(Record):
    """As `witness`, the non-edges each member of a smallest family leaves
    missing, so the cubicity is its size; and the work counts."""

    __slots__ = ("witness", "candidates_enumerated", "cover_nodes")

    @property
    def cubicity(self) -> int:
        return len(self.witness)

    def to_json_obj(self) -> dict:
        return {
            "cubicity": self.cubicity,
            "witness": [[list(p) for p in member] for member in self.witness],
            "candidates_enumerated": self.candidates_enumerated,
            "cover_nodes": self.cover_nodes,
        }


class Exceeded(Record):
    """No family of at most `b_max` members exists; with the work counts."""

    __slots__ = ("b_max", "candidates_enumerated", "cover_nodes")

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
    refuse_if_large(graph.n)
    missing = non_edges(graph)
    if not missing:
        return ExactResult((), 0, 0)
    candidates, visited = _enumerate_candidates(graph, missing)
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
            return ExactResult(witness, visited, nodes)
    return Exceeded(b_max, visited, nodes)
