"""Full structural validators, kept as test oracles.

Each check walks every pair or every (vertex, level) combination, so it
is only fit for test-sized inputs; the library keeps cheap canaries
instead (`recognition._check_ordering_sanity`).  A validator returns a
`ValidationReport`: an empty report means valid, and each `Violation`
names the failed check and a witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from intervalcubes import CliqueOrdering, Graph, Labelling


def greedy_independent(ordering: CliqueOrdering, vertices) -> list[int]:
    """Earliest-finish greedy over clique ranges, sorted afresh: a maximum
    independent set of the subgraph the ordering describes induced on
    `vertices`.  The reference for the library's suffix-best walk."""
    chosen: list[int] = []
    last_right = -1
    for v in sorted(vertices, key=lambda v: (ordering.right[v], v)):
        if ordering.left[v] > last_right:
            chosen.append(v)
            last_right = ordering.right[v]
    return chosen


def clique_sets(ordering: CliqueOrdering) -> tuple[frozenset[int], ...]:
    """C_0..C_{k-1} read off the ranges, which must lie in 0..k-1: C_j
    holds every vertex whose range holds j."""
    members: list[list[int]] = [[] for _ in range(ordering.k)]
    for v, (lv, rv) in enumerate(zip(ordering.left, ordering.right)):
        for j in range(lv, rv + 1):
            members[j].append(v)
    return tuple(map(frozenset, members))


def ordering_from_cliques(cliques, n: int) -> CliqueOrdering:
    """Left/right indices from an ordered clique list; ValueError unless
    every vertex is in some clique and its cliques are consecutive.  The
    references and tests write orderings this way; the library reads the
    ranges off its own arranged cliques, in `recognize_and_order`."""
    left = [-1] * n
    right = [-1] * n
    for i, clique in enumerate(cliques):
        for v in clique:
            if left[v] < 0:
                left[v] = i
            right[v] = i
    if any(l < 0 for l in left):
        missing = [v for v in range(n) if left[v] < 0]
        raise ValueError(f"vertices not covered by any clique: {missing}")
    # a vertex's range spans at least the cliques it is in, and exactly
    # them when they are consecutive
    if sum(right) - sum(left) + n != sum(map(len, cliques)):
        raise ValueError("some vertex's cliques are not consecutive")
    return CliqueOrdering(len(cliques), tuple(left), tuple(right))


def ranges_intersect(ordering: CliqueOrdering, u: int, v: int) -> bool:
    """Whether the clique ranges of u and v share a clique index."""
    return ordering.left[u] <= ordering.right[v] and ordering.left[v] <= ordering.right[u]


@dataclass(frozen=True)
class Violation:
    """One failed check: a kind tag plus the witness that breaks it."""

    kind: str
    witness: tuple
    message: str = ""


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def has(self, kind: str) -> bool:
        return any(v.kind == kind for v in self.violations)

    def to_json_obj(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"kind": v.kind, "witness": list(v.witness), "message": v.message}
                for v in self.violations
            ],
        }


def validate_ordering(graph: Graph, ordering: CliqueOrdering) -> ValidationReport:
    """Check every CliqueOrdering invariant against the graph; empty report
    means valid.  Kinds: coverage, not-a-clique, not-maximal, clique-subset,
    adjacency-mismatch, empty.  The cliques are read off the ranges, so
    each vertex's cliques are consecutive by construction; a range must
    lie in 0..k-1."""
    violations: list[Violation] = []
    n, k = graph.n, ordering.k
    if ordering.n != n:
        return ValidationReport(
            (Violation("coverage", (ordering.n, n), "vertex count mismatch"),)
        )
    if n >= 1 and k == 0:
        return ValidationReport((Violation("empty", (n,), "no cliques for non-empty graph"),))
    outside = [
        v for v in range(n)
        if not 0 <= ordering.left[v] <= ordering.right[v] < k
    ]
    if outside:
        return ValidationReport(
            tuple(Violation("coverage", (v,), "range outside the cliques") for v in outside)
        )

    cliques = clique_sets(ordering)
    for i, clique in enumerate(cliques):
        members = sorted(clique)
        for a_idx, u in enumerate(members):
            for v in members[a_idx + 1:]:
                if v not in graph.adj[u]:
                    violations.append(
                        Violation("not-a-clique", (i, u, v), "non-adjacent pair inside clique")
                    )
        for w in range(n):
            if w not in clique and clique <= graph.adj[w]:
                violations.append(
                    Violation("not-maximal", (i, w), "vertex adjacent to entire clique")
                )

    for i in range(k):
        for j in range(k):
            if i != j and cliques[i] <= cliques[j]:
                violations.append(
                    Violation("clique-subset", (i, j), "clique contained in another")
                )

    for u in range(n):
        for v in range(u + 1, n):
            if (v in graph.adj[u]) != ranges_intersect(ordering, u, v):
                violations.append(
                    Violation("adjacency-mismatch", (u, v), "range overlap disagrees with edge")
                )
    return ValidationReport(tuple(violations))


def validate_labelling(
    ordering: CliqueOrdering, labelling: Labelling, graph: Graph
) -> ValidationReport:
    """Check the four structural facts the construction leans on.

    Kinds:
      level-threshold       level(v) <= i iff left(v) <= right(anchor_i),
                            quantified over every (v, i) pair
      same-level-nonadjacent equal levels force adjacency
      anchors-dependent      anchors must be pairwise non-adjacent
      anchors-not-maximum    anchor count must equal the maximum
                            independent set size (earliest-finish greedy)
      anchor-chain          anchor right indices strictly increase from 0
                            to k-1
      level-range           levels must cover 0..alpha-1 with
                            level(anchor_i) = i
    """
    violations: list[Violation] = []
    n, k = ordering.n, ordering.k
    levels, anchors = labelling.levels, labelling.anchors
    alpha = len(anchors)

    for v in range(n):
        for i in range(alpha):
            if (levels[v] <= i) != (ordering.left[v] <= ordering.right[anchors[i]]):
                violations.append(
                    Violation("level-threshold", (v, i), "threshold equivalence fails")
                )

    by_level: dict[int, list[int]] = {}
    for v in range(n):
        by_level.setdefault(levels[v], []).append(v)
    for lvl, members in by_level.items():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                u, v = members[a], members[b]
                if v not in graph.adj[u]:
                    violations.append(
                        Violation("same-level-nonadjacent", (u, v), f"both at level {lvl}")
                    )

    for a in range(alpha):
        for b in range(a + 1, alpha):
            if anchors[b] in graph.adj[anchors[a]]:
                violations.append(
                    Violation("anchors-dependent", (anchors[a], anchors[b]), "")
                )
    maximum = len(greedy_independent(ordering, range(ordering.n)))
    if alpha != maximum:
        violations.append(
            Violation("anchors-not-maximum", (alpha, maximum), "independent set not maximum")
        )

    chain = [ordering.right[u] for u in anchors]
    chain_ok = (
        alpha >= 1
        and chain[0] == 0
        and chain[-1] == k - 1
        and all(chain[i] < chain[i + 1] for i in range(alpha - 1))
    )
    if not chain_ok:
        violations.append(Violation("anchor-chain", tuple(chain), "not 0 < ... < k-1"))

    if sorted(set(levels)) != list(range(alpha)) or any(
        levels[anchors[i]] != i for i in range(alpha)
    ):
        violations.append(Violation("level-range", (alpha,), "levels not 0..alpha-1"))

    return ValidationReport(tuple(violations))


def check_trace(trace, ordering, coords) -> ValidationReport:
    """Audit a construction trace against the ordering it was built on and
    the built coordinates, one column per dimension of the build and every
    vertex in each.

    Kinds:
      scale-not-increasing  consecutive scale values out of order
      scale-anchor          scale misses value i at anchor i's right clique
      span-bound            a vertex's clique span reaches the cube side
      scale-outside-cube    some clique position of a vertex falls outside
                            its cube in some dimension
    """
    violations: list[Violation] = []
    scale, labelling = trace.scale, trace.labelling
    reach = trace.claw * trace.unit - trace.unit // 2

    for j in range(len(scale) - 1):
        if not scale[j] < scale[j + 1]:
            violations.append(
                Violation("scale-not-increasing", (j,), f"{scale[j]} !< {scale[j + 1]}")
            )
    for i, u in enumerate(labelling.anchors):
        r = ordering.right[u]
        if r >= len(scale) or scale[r] != i * trace.unit:
            violations.append(Violation("scale-anchor", (i, u), ""))

    for v in range(ordering.n):
        lo, hi = ordering.left[v], ordering.right[v]
        if not scale[hi] - scale[lo] < reach:
            violations.append(
                Violation("span-bound", (v,), f"{scale[hi] - scale[lo]} >= {reach}")
            )
        for j in range(lo, hi + 1):
            for i, col in enumerate(coords):
                base = col[v]
                if not (base <= scale[j] <= base + reach):
                    violations.append(
                        Violation(
                            "scale-outside-cube",
                            (v, j, i),
                            f"{scale[j]} outside [{base}, {base + reach}]",
                        )
                    )
    return ValidationReport(tuple(violations))


def complete_dimensions(rep) -> list[int]:
    """Dimensions whose coordinate span stays within the side: every pair
    is adjacent there, so the dimension constrains nothing."""
    out = []
    for i, values in enumerate(rep.coords):
        if not values or max(values) - min(values) <= rep.side:
            out.append(i)
    return out
