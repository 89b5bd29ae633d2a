"""Assembly of unit-cube representations for interval graphs.

Every stage works on the clique ordering alone; no graph is read.  The
build lays the cliques out on a line with a scale that hits integer
positions at the anchor cliques, gives every vertex a branch code whose
low bits copy its level, and then emits one column of coordinates per
code bit: bit set places the vertex's cube at its left end, bit clear at
its right end.  It runs on the input ordering as it is, with
claw = 2**power for any power whose claw is at least every psi(v); the
cube side is claw - 1/2.  Positions are ints on one grid per build (see
`clique_scale`), and the document `CubeRepresentation.dump` (defined in
`verify`, so that checking a representation loads none of this module)
writes holds those same ints, a row per vertex, and the unit.

Why it is exact.  Let pos(c) be clique c's position, scale[c] / unit,
and m(c) the number of anchors ending before clique c.  Then pos(c) lies
in (m(c) - 1/2, m(c)], and the level of v is l_v = m(left v).  Some
range starts at every clique index, because the cliques are maximal.

- Adjacent u, v.  With left u <= left v, the anchors ending in
  [left u, left v), together with v, are independent in N(u), so
  l_v - l_u <= psi(u) - 1.  With right u < right v, the anchors ending in
  [right u, right v), together with the vertex starting at clique
  right v, are independent in N(v).  So same-end offsets are below
  claw - 1/2 = side, and a left-end/right-end offset is below
  2*claw - 3/2 < 2*side: the cubes meet in every dimension.
- Non-adjacent u, v with right u < left v.  Then l_u < l_v, and some
  code bit is 0 for u and 1 for v, which puts them more than the side
  apart there.  The one exception is two levels in blocks of equal
  parity at least two blocks apart; then the set parity bit is 1 for
  both, and their left ends lie more than claw + 1/2 > side apart.

The claw variant takes power = ceil(log2 psi) and has power + 2
dimensions.  The alpha variant takes power = p = ceil(log2 alpha), since
no psi(v) exceeds alpha, and keeps the first p columns: every level is
below alpha <= 2**p, so code bit p is 1 for every vertex (its cube at its
left end) and bit p + 1 is 0 (at its right end), and both of those spans
are at most alpha - 1 < side.  A claw build makes psi and the labelling
once, by `params.parameters`; the alpha variant needs only the
labelling.  `build_best` builds only the variant with fewer dimensions.
"""

from __future__ import annotations

from .graphs import CliqueOrdering, ConstructionError, Record
from .labelling import Labelling, label_vertices
from .params import best_dimension, ceil_log2, parameters
from .verify import CubeRepresentation


def bit(a: int, i: int) -> int:
    """The i-th binary digit of a non-negative integer."""
    if a < 0 or i < 0:
        raise ValueError("bit() expects non-negative arguments")
    return (a >> i) & 1


class ConstructionTrace(Record):
    """What the build made and the audit checks read: the `labelling`,
    the `power` with claw = 2**power, and the clique `scale`, integers in
    units of 1/`unit` as in the representation.  The codes and the branch
    taken per (dimension, vertex) follow from the labelling and the
    claw."""

    __slots__ = ("labelling", "power", "scale", "unit")

    @property
    def claw(self) -> int:
        return 1 << self.power

    def to_json_obj(self) -> dict:
        from .rationals import format_ratio

        codes = branch_codes(self.labelling, self.claw)
        return {
            "power": self.power,
            "claw": self.claw,
            "bits": list(range(self.power + 2)),
            "scale": [format_ratio(x, self.unit) for x in self.scale],
            "codes": list(codes),
            "levels": list(self.labelling.levels),
            "branch": [[bit(c, i) for c in codes] for i in range(self.power + 2)],
        }


def clique_scale(ordering: CliqueOrdering, labelling: Labelling) -> tuple[tuple[int, ...], int]:
    """Strictly increasing integer clique positions and the unit 2G they
    count in, where G is the widest gap b - a between the right cliques of
    consecutive anchors i and i + 1.  Anchor i's right clique sits at 2G*i
    (the value i), and a clique j with a < j < b at 2G*i + G + (j - a),
    strictly between the values i + 1/2 and i + 1."""
    rights = [ordering.right[u] for u in labelling.anchors]
    gaps = [b - a for a, b in zip(rights, rights[1:])]
    if rights[0] != 0 or rights[-1] != ordering.k - 1 or min(gaps, default=1) < 1:
        raise ConstructionError("anchor rightmost cliques must increase from 0 to k-1")
    g = max(gaps, default=1)
    scale = [0] * ordering.k
    for i, (a, b) in enumerate(zip(rights, rights[1:])):
        for j in range(a + 1, b):
            scale[j] = 2 * g * i + g + (j - a)
        scale[b] = 2 * g * (i + 1)
    return tuple(scale), 2 * g


def branch_codes(labelling: Labelling, claw: int) -> tuple[int, ...]:
    """Per-vertex code in [claw, 3*claw): low bits copy the level, the two
    extra bits alternate with the level's block parity."""
    if claw < 2 or claw & (claw - 1):
        raise ValueError("claw must be a power of two, at least 2")
    return tuple(level % claw + claw * (1 + level // claw % 2) for level in labelling.levels)


def build_representation(
    ordering: CliqueOrdering,
) -> tuple[CubeRepresentation, ConstructionTrace | None]:
    """The claw-number construction: exactly ceil(log2 claw) + 2 dimensions.

    Graphs whose claw number is below 2 (disjoint unions of cliques) take
    the degenerate one-dimensional route and carry no trace.
    """
    psi, labelling = parameters(ordering)
    if psi < 2:
        return build_degenerate(ordering), None
    return _build(ordering, labelling, ceil_log2(psi))


def _build(
    ordering: CliqueOrdering, labelling: Labelling, power: int
) -> tuple[CubeRepresentation, ConstructionTrace]:
    """The construction in power + 2 dimensions, from the ordering's
    labelling; the caller makes sure that no psi(v) exceeds 2**power."""
    claw = 1 << power
    scale, unit = clique_scale(ordering, labelling)
    codes = branch_codes(labelling, claw)
    side = claw * unit - unit // 2
    at_left = [scale[lv] for lv in ordering.left]
    at_right = [scale[rv] - side for rv in ordering.right]
    # code bit i set: the cube starts at the left end in dimension i
    coords = tuple(
        tuple([a if code >> i & 1 else b for code, a, b in zip(codes, at_left, at_right)])
        for i in range(power + 2)
    )
    rep = CubeRepresentation(ordering.n, side, coords, unit)
    return rep, ConstructionTrace(labelling, power, scale, unit)


def build_degenerate(ordering: CliqueOrdering) -> CubeRepresentation:
    """Disjoint unions of cliques, where every range is a single clique:
    one dimension with the clique of rank j by smallest member at position
    2j; zero dimensions when there is at most one clique."""
    if ordering.left != ordering.right:
        raise ValueError("graph is not a disjoint union of cliques")
    if ordering.k <= 1:
        return CubeRepresentation(ordering.n, 1, (), 1)
    # walking the vertices upwards meets each clique first at its smallest
    rank: dict[int, int] = {}
    col = tuple([2 * rank.setdefault(j, len(rank)) for j in ordering.left])
    return CubeRepresentation(ordering.n, 1, (col,), 1)


def build_alpha_representation(ordering: CliqueOrdering) -> CubeRepresentation:
    """Exactly ceil(log2 alpha) dimensions: the first p = ceil(log2 alpha)
    of the build with claw 2**p (see the module docstring)."""
    return _build_alpha(ordering, label_vertices(ordering))


def _build_alpha(ordering: CliqueOrdering, labelling: Labelling) -> CubeRepresentation:
    if labelling.alpha <= 1:
        return CubeRepresentation(ordering.n, 1, (), 1)
    p = ceil_log2(labelling.alpha)
    rep, _ = _build(ordering, labelling, p)
    return CubeRepresentation(rep.n, rep.side, rep.coords[:p], rep.unit)


def build_best(ordering: CliqueOrdering) -> CubeRepresentation:
    """The smaller of the two variants; ties go to the alpha variant.
    Both dimensions follow from psi and alpha, so only one is built, from
    the one `parameters` pass that gave them."""
    psi, labelling = parameters(ordering)
    alpha = labelling.alpha
    if alpha <= 1 or best_dimension(psi, alpha) == ceil_log2(alpha):
        return _build_alpha(ordering, labelling)
    if psi < 2:
        return build_degenerate(ordering)
    return _build(ordering, labelling, ceil_log2(psi))[0]


def normalize_unit(rep: CubeRepresentation) -> CubeRepresentation:
    """Take the cube side as the unit, so the side reads 1; adjacency and
    the integer coordinates are unchanged."""
    if rep.unit == rep.side:
        return rep
    return CubeRepresentation(rep.n, rep.side, rep.coords, rep.side)
