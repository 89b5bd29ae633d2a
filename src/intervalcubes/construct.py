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
Each builder makes psi(v) and the labelling once, by `params.parameters`,
and hands both down: the padding picks its centre by psi(v), and the alpha
variant derives the augmented ordering's psi(v) and labelling from them.
`build_best` builds only the variant with fewer dimensions.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import ConstructionError, Record
from .intervals import CliqueOrdering
from .labelling import Labelling, label_vertices
from .params import best_dimension, ceil_log2, parameters
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
    """What the build made and the audit checks read: the `padded` graph
    and its `labelling`, the clique `scale` and the unrestricted padded
    coordinates.  Scale and coordinates are integers in units of
    1/`unit`, as in the representation.  The codes and the branch taken
    per (dimension, vertex) follow from the labelling and the claw."""

    __slots__ = ("padded", "labelling", "scale", "unit", "coords")

    @property
    def power(self) -> int:
        return self.padded.power

    @property
    def claw(self) -> int:
        return self.padded.claw

    def to_json_obj(self) -> dict:
        codes = branch_codes(self.labelling, self.claw)
        return {
            "power": self.power,
            "claw": self.claw,
            "bits": list(range(self.power + 2)),
            "scale": [format_rational(Fraction(x, self.unit)) for x in self.scale],
            "codes": list(codes),
            "levels": list(self.labelling.levels),
            "branch": [[bit(c, i) for c in codes] for i in range(self.power + 2)],
            "added": self.padded.added,
            "original_n": self.padded.ordering.n - self.padded.added,
            "padded_coords": [
                [format_rational(Fraction(x, self.unit)) for x in row] for row in self.coords
            ],
        }


def pad_graph(ordering: CliqueOrdering, claws: list[int]) -> PaddedGraph:
    """Append pendants to the last-clique vertex whose neighbourhood holds
    the most independent vertices (lowest index on ties) until the claw
    number psi, the largest of `claws`, is the next power of two.  Pendants
    touch only that center, so the padded claw number is known without
    another pass.

    Each last-clique vertex's count comes from `claws`, the ordering's
    psi(v) from `parameters`; not from a greedy per vertex.
    Its chain may end on a different vertex than the greedy on N(v) would,
    but always with the same count, so the center is the same.  The last
    clique is the vertices whose range ends at k - 1, and the pendants
    are appended ranges, so the rest costs O(n + k)."""
    psi = max(claws, default=0)
    if psi < 2:
        raise ValueError("padding needs claw number at least 2")
    power = ceil_log2(psi)
    target = 1 << power
    if target == psi:
        return PaddedGraph(ordering, power, 0, None)

    k = ordering.k
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
    claws, labelling = parameters(ordering)
    if max(claws, default=0) < 2:
        return build_degenerate(ordering), None
    return _build(ordering, claws, labelling)


def _build(
    ordering: CliqueOrdering, claws: list[int], labelling: Labelling
) -> tuple[CubeRepresentation, ConstructionTrace]:
    """The construction on an ordering with claw number max(claws) >= 2,
    from its psi(v) and labelling; the representation covers the
    ordering's own vertices, not the pendants."""
    padded = pad_graph(ordering, claws)
    # padding that adds nothing keeps the ordering, and so its labelling
    lab = label_vertices(padded.ordering) if padded.added else labelling
    scale, unit = clique_scale(padded.ordering, lab)
    codes = branch_codes(lab, padded.claw)
    side = padded.claw * unit - unit // 2
    dims = padded.power + 2

    # code bit i set: the cube starts at the left end in dimension i
    left, right = padded.ordering.left, padded.ordering.right
    coords = []
    for v, code in enumerate(codes):
        at_left, at_right = scale[left[v]], scale[right[v]] - side
        coords.append(tuple([at_left if code >> i & 1 else at_right for i in range(dims)]))
    rep = CubeRepresentation(dims, side, tuple(coords[: ordering.n]), unit)
    return rep, ConstructionTrace(padded, lab, scale, unit, tuple(coords))


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
    return _build_alpha(ordering, *parameters(ordering))


def _build_alpha(
    ordering: CliqueOrdering, claws: list[int], labelling: Labelling
) -> CubeRepresentation:
    n, alpha = ordering.n, labelling.alpha
    if alpha == 1:
        return CubeRepresentation(0, 1, ((),) * n, 1)
    # with a universal vertex the claw number is the independence number;
    # that vertex's psi is alpha, and it lifts no other psi(v) but a 0 to 1.
    # It sits at level 0 and is no anchor: a vertex starting at clique 0
    # ends no later and has a lower index
    aug_claws = [max(c, 1) for c in claws] + [alpha]
    aug_labelling = Labelling(labelling.levels + (0,), labelling.anchors)
    rep_aug, trace = _build(_augment_with_universal(ordering), aug_claws, aug_labelling)
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
    Both dimensions follow from psi and alpha, so only one is built, from
    the one `parameters` pass that gave them."""
    if ordering.n == 0:
        return build_degenerate(ordering)
    claws, labelling = parameters(ordering)
    psi, alpha = max(claws), labelling.alpha
    if best_dimension(psi, alpha) == ceil_log2(alpha):
        return _build_alpha(ordering, claws, labelling)
    if psi < 2:
        return build_degenerate(ordering)
    return _build(ordering, claws, labelling)[0]


def normalize_unit(rep: CubeRepresentation) -> CubeRepresentation:
    """Take the cube side as the unit, so the side reads 1; adjacency and
    the integer coordinates are unchanged."""
    if rep.unit == rep.side:
        return rep
    return CubeRepresentation(rep.dimension, rep.side, rep.coords, rep.side)
