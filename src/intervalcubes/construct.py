"""Assembly of unit-cube representations for interval graphs.

Every stage works on the clique ordering alone; no graph is read.  The
pipeline pads the claw number to a power of two by appending pendant
cliques hung off one vertex of the last clique, lays the cliques out on a
line with a scale that hits integer positions at the anchor cliques,
gives every vertex a branch code whose low bits copy its level, and then
emits one coordinate per code bit: bit 0 places the vertex by its right
end, bit 1 by its left end.  Dropping the pendants' coordinates keeps the
represented graph intact because induced subgraphs only lose constraints.
Positions are ints on one grid per build (see `clique_scale`); only the
JSON methods of `CubeRepresentation` (defined in `verify`, so that
checking a representation loads none of this module) turn them into
rationals.

Dimension count is exactly ceil(log2 claw) + 2.  A second variant appends
a universal vertex to the ordering to get ceil(log2 alpha) dimensions,
dropping the two coordinates that the augmented build leaves complete.
`build_best` builds only the variant with fewer dimensions, from one
suffix-best table and one psi pass over the ordering.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import ConstructionError, Record
from .intervals import CliqueOrdering
from .labelling import Labelling, label_vertices, suffix_best
from .params import best_dimension, ceil_log2, vertex_claws
from .rationals import format_rational
from .verify import CubeRepresentation, complete_dimensions


def bit(a: int, i: int) -> int:
    """The i-th binary digit of a non-negative integer."""
    if a < 0 or i < 0:
        raise ValueError("bit() expects non-negative arguments")
    return (a >> i) & 1


class PaddedGraph(Record):
    """The clique ordering with pendant vertices appended so that the claw
    number equals 2**power; original vertices keep their indices.  The
    `added` pendants hang off `center`, which is None when nothing was
    added."""

    __slots__ = ("ordering", "power", "added", "center")

    @property
    def claw(self) -> int:
        return 1 << self.power


class ConstructionTrace(Record):
    """Everything the audit checks need: the clique scale, the codes and
    levels on the padded graph, the branch taken per (dimension, vertex),
    and the unrestricted padded coordinates, the `padded` graph and its
    `labelling`.  Scale and coordinates are integers in units of 1/`unit`,
    as in the representation."""

    __slots__ = ("power", "claw", "unit", "scale", "codes", "levels", "branch", "coords",
                 "padded", "labelling")

    def to_json_obj(self) -> dict:
        return {
            "power": self.power,
            "claw": self.claw,
            "bits": list(range(self.power + 2)),
            "scale": [format_rational(Fraction(x, self.unit)) for x in self.scale],
            "codes": list(self.codes),
            "levels": list(self.levels),
            "branch": [list(row) for row in self.branch],
            "added": self.padded.added,
            "original_n": self.padded.ordering.n - self.padded.added,
            "padded_coords": [
                [format_rational(Fraction(x, self.unit)) for x in row] for row in self.coords
            ],
        }


def pad_graph(ordering: CliqueOrdering, psi: int, claws: list[int] | None = None) -> PaddedGraph:
    """Append pendants to the last-clique vertex whose neighbourhood holds
    the most independent vertices (lowest index on ties) until the claw
    number psi is the next power of two.  Pendants touch only that center,
    so the padded claw number is known without another pass.

    Each last-clique vertex's count comes from `claws`, the ordering's
    `vertex_claws` pass, O(n + k + sum of psi(v)), which is made here when
    not given; not from a greedy per vertex.
    Its chain may end on a different vertex than the greedy on N(v) would,
    but always with the same count, so the center is the same.  The last
    clique is the vertices whose range ends at k - 1, and the pendants
    are appended ranges, so the rest costs O(n + k)."""
    if psi < 2:
        raise ValueError("padding needs claw number at least 2")
    power = ceil_log2(psi)
    target = 1 << power
    if target == psi:
        return PaddedGraph(ordering, power, 0, None)

    k = ordering.k
    if claws is None:
        claws = vertex_claws(ordering)
    last = [v for v, r in enumerate(ordering.right) if r == k - 1]
    center = min(last, key=lambda v: (-claws[v], v))
    added = target - claws[center]

    # a center alone in the last clique is isolated: the first pendant
    # clique takes that clique's place, which {center} alone would not
    # survive as a maximal clique
    first = k - 1 if len(last) == 1 else k
    left = list(ordering.left) + [first + i for i in range(added)]
    right = list(ordering.right) + [first + i for i in range(added)]
    right[center] = first + added - 1
    padded_ordering = CliqueOrdering(first + added, tuple(left), tuple(right))
    return PaddedGraph(padded_ordering, power, added, center)


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
    codes = []
    for level in labelling.levels:
        if (level // claw) % 2 == 0:
            codes.append(level % claw + claw)
        else:
            codes.append(level % claw + 2 * claw)
    return tuple(codes)


def build_representation(
    ordering: CliqueOrdering,
) -> tuple[CubeRepresentation, ConstructionTrace | None]:
    """The claw-number construction: exactly ceil(log2 claw) + 2 dimensions.

    Graphs whose claw number is below 2 (disjoint unions of cliques) take
    the degenerate one-dimensional route and carry no trace.
    """
    claws = vertex_claws(ordering)
    psi = max(claws, default=0)
    if psi < 2:
        return build_degenerate(ordering), None
    return _build(ordering, psi, claws)


def _build(
    ordering: CliqueOrdering, psi: int, claws: list[int] | None = None,
    labelling: Labelling | None = None,
) -> tuple[CubeRepresentation, ConstructionTrace]:
    """The construction on an ordering with claw number psi >= 2; the
    representation covers the ordering's own vertices, not the pendants.
    `claws` and `labelling`, the ordering's psi pass and labelling, are
    made here when not given."""
    padded = pad_graph(ordering, psi, claws)
    # padding that adds nothing keeps the ordering, and so its labelling
    lab = labelling
    if lab is None or padded.added:
        lab = label_vertices(padded.ordering)
    scale, unit = clique_scale(padded.ordering, lab)
    claw = padded.claw
    codes = branch_codes(lab, claw)
    side = claw * unit - unit // 2
    dims = padded.power + 2

    left, right = padded.ordering.left, padded.ordering.right
    coords = []
    branch = [[0] * padded.ordering.n for _ in range(dims)]
    for v in range(padded.ordering.n):
        row = []
        for i in range(dims):
            b = bit(codes[v], i)
            branch[i][v] = b
            if b == 0:
                row.append(scale[right[v]] - side)
            else:
                row.append(scale[left[v]])
        coords.append(tuple(row))

    rep = CubeRepresentation(dims, side, tuple(coords[: ordering.n]), unit)
    trace = ConstructionTrace(
        power=padded.power,
        claw=claw,
        unit=unit,
        scale=scale,
        codes=codes,
        levels=lab.levels,
        branch=tuple(tuple(row) for row in branch),
        coords=tuple(coords),
        padded=padded,
        labelling=lab,
    )
    return rep, trace


def build_degenerate(ordering: CliqueOrdering) -> CubeRepresentation:
    """Disjoint unions of cliques, where every range is a single clique:
    one dimension with the clique of rank j by smallest member at position
    2j; zero dimensions when there is at most one clique."""
    if ordering.left != ordering.right:
        raise ValueError("graph is not a disjoint union of cliques")
    if ordering.k <= 1:
        return CubeRepresentation(0, 1, ((),) * ordering.n, 1)
    # walking the vertices upwards meets each clique first at its smallest
    rank: dict[int, int] = {}
    coords = tuple((2 * rank.setdefault(j, len(rank)),) for j in ordering.left)
    return CubeRepresentation(1, 1, coords, 1)


def _augment_with_universal(ordering: CliqueOrdering) -> CliqueOrdering:
    k = ordering.k
    return CliqueOrdering(k, ordering.left + (0,), ordering.right + (k - 1,))


def build_alpha_representation(ordering: CliqueOrdering) -> CubeRepresentation:
    """Exactly ceil(log2 alpha) dimensions via a universal vertex.

    Adding a universal vertex forces claw number == independence number,
    which makes the two extra dimensions of the claw build complete; both
    are detected by direct span checks, then dropped together with the
    universal vertex.
    """
    if ordering.n == 0:
        return CubeRepresentation(0, 1, (), 1)
    return _build_alpha(ordering, label_vertices(ordering).alpha)


def _build_alpha(
    ordering: CliqueOrdering, alpha: int, claws: list[int] | None = None
) -> CubeRepresentation:
    n = ordering.n
    if alpha == 1:
        return CubeRepresentation(0, 1, ((),) * n, 1)
    # with a universal vertex the claw number is the independence number;
    # that vertex's psi is alpha, and it lifts no other psi(v) but a 0 to 1
    aug_claws = None if claws is None else [max(c, 1) for c in claws] + [alpha]
    rep_aug, trace = _build(_augment_with_universal(ordering), alpha, aug_claws)
    p = trace.power
    complete = complete_dimensions(rep_aug)
    if complete != [p, p + 1]:
        raise ConstructionError(
            f"expected dimensions {p} and {p + 1} to be complete, found {complete}"
        )
    coords = tuple(tuple(rep_aug.coords[v][i] for i in range(p)) for v in range(n))
    return CubeRepresentation(p, rep_aug.side, coords, rep_aug.unit)


def build_best(ordering: CliqueOrdering) -> CubeRepresentation:
    """The smaller of the two variants; ties go to the alpha variant.
    Both dimensions follow from psi and alpha, so only one is built.  One
    suffix-best table serves the psi pass and the labelling, and that one
    psi pass serves the claw number and the padding."""
    if ordering.n == 0:
        return build_degenerate(ordering)
    best = suffix_best(ordering)
    claws = vertex_claws(ordering, best)
    psi = max(claws)
    labelling = label_vertices(ordering, best)
    alpha = labelling.alpha
    if best_dimension(psi, alpha) == ceil_log2(alpha):
        return _build_alpha(ordering, alpha, claws)
    if psi < 2:
        return build_degenerate(ordering)
    return _build(ordering, psi, claws, labelling)[0]


def normalize_unit(rep: CubeRepresentation) -> CubeRepresentation:
    """Take the cube side as the unit, so the side reads 1; adjacency and
    the integer coordinates are unchanged."""
    if rep.unit == rep.side:
        return rep
    return CubeRepresentation(rep.dimension, rep.side, rep.coords, rep.side)
