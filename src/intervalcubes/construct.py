"""Assembly of unit-cube representations for interval graphs.

Every stage works on the clique ordering alone; no graph is read.  The
pipeline pads the claw number to a power of two by appending pendant
cliques hung off one vertex of the last clique, lays the cliques out on a
line with a scale that hits integer positions at the anchor cliques,
gives every vertex a branch code whose low bits copy its level, and then
emits one coordinate per code bit: bit 0 places the vertex by its right
end, bit 1 by its left end.  Dropping the pendants' coordinates keeps the
represented graph intact because induced subgraphs only lose constraints.

Dimension count is exactly ceil(log2 claw) + 2.  A second variant appends
a universal vertex to the ordering to get ceil(log2 alpha) dimensions,
dropping the two coordinates that the augmented build leaves complete.
`build_best` builds only the variant with fewer dimensions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .intervals import CliqueOrdering
from .labelling import Labelling, label_vertices
from .params import ceil_log2, claw_number, neighborhood_mis
from .rationals import format_rational, parse_rational
from .recognition import ConstructionError
from .verify import complete_dimensions


def bit(a: int, i: int) -> int:
    """The i-th binary digit of a non-negative integer."""
    if a < 0 or i < 0:
        raise ValueError("bit() expects non-negative arguments")
    return (a >> i) & 1


@dataclass(frozen=True)
class PaddedGraph:
    """The clique ordering with pendant vertices appended so that the claw
    number equals 2**power; original vertices keep their indices.  The
    pendants hang off `center`, which is None when nothing was added."""

    ordering: CliqueOrdering
    power: int
    added: int
    center: int | None

    @property
    def claw(self) -> int:
        return 1 << self.power


@dataclass(frozen=True)
class CubeRepresentation:
    """Axis-parallel cubes of side `side`: vertices are adjacent exactly
    when every coordinate differs by at most `side`.  dimension == 0 means
    every pair is adjacent by convention."""

    dimension: int
    side: Fraction
    coords: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.coords)

    def to_json_obj(self) -> dict:
        return {
            "dimension": self.dimension,
            "side": format_rational(self.side),
            "coords": [[format_rational(x) for x in row] for row in self.coords],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj) -> "CubeRepresentation":
        dimension = int(obj["dimension"])
        side = parse_rational(obj["side"])
        coords = tuple(
            tuple(parse_rational(x) for x in row) for row in obj["coords"]
        )
        for row in coords:
            if len(row) != dimension:
                raise ValueError("coordinate vector length disagrees with dimension")
        return cls(dimension, side, coords)

    @classmethod
    def loads(cls, text: str) -> "CubeRepresentation":
        return cls.from_json_obj(json.loads(text))


@dataclass(frozen=True)
class ConstructionTrace:
    """Everything the audit checks need: the clique scale, the codes and
    levels on the padded graph, the branch taken per (dimension, vertex),
    and the unrestricted padded coordinates."""

    power: int
    claw: int
    scale: tuple[Fraction, ...]
    codes: tuple[int, ...]
    levels: tuple[int, ...]
    branch: tuple[tuple[int, ...], ...]
    coords: tuple[tuple[Fraction, ...], ...]
    padded: PaddedGraph
    labelling: Labelling

    def to_json_obj(self) -> dict:
        return {
            "power": self.power,
            "claw": self.claw,
            "bits": list(range(self.power + 2)),
            "scale": [format_rational(x) for x in self.scale],
            "codes": list(self.codes),
            "levels": list(self.levels),
            "branch": [list(row) for row in self.branch],
            "added": self.padded.added,
            "original_n": self.padded.ordering.n - self.padded.added,
            "padded_coords": [
                [format_rational(x) for x in row] for row in self.coords
            ],
        }


def pad_graph(ordering: CliqueOrdering, psi: int) -> PaddedGraph:
    """Append pendants to the last-clique vertex whose neighbourhood holds
    the most independent vertices (lowest index on ties) until the claw
    number psi is the next power of two.  Pendants touch only that center,
    so the padded claw number is known without another pass."""
    if psi < 2:
        raise ValueError("padding needs claw number at least 2")
    power = ceil_log2(psi)
    target = 1 << power
    if target == psi:
        return PaddedGraph(ordering, power, 0, None)

    n, k = ordering.n, ordering.k
    by_left = ordering.by_left()
    mis = {v: neighborhood_mis(ordering, v, by_left)[0] for v in ordering.cliques[-1]}
    center = max(sorted(mis), key=mis.__getitem__)
    added = target - mis[center]

    cliques = list(ordering.cliques) + [
        frozenset({center, n + i}) for i in range(added)
    ]
    left = list(ordering.left) + [k + i for i in range(added)]
    right = list(ordering.right) + [k + i for i in range(added)]
    right[center] = k + added - 1
    padded_ordering = CliqueOrdering(tuple(cliques), tuple(left), tuple(right))
    return PaddedGraph(padded_ordering, power, added, center)


def clique_scale(ordering: CliqueOrdering, labelling: Labelling) -> tuple[Fraction, ...]:
    """Strictly increasing positions for the cliques, hitting value i at
    the rightmost clique of anchor i and interpolating linearly between
    consecutive anchors with a half-unit offset."""
    k = ordering.k
    anchors = labelling.anchors
    rights = [ordering.right[u] for u in anchors]
    if rights[0] != 0 or rights[-1] != k - 1:
        raise ConstructionError("anchor rightmost cliques must span 0..k-1")
    scale: list[Fraction | None] = [None] * k
    scale[0] = Fraction(0)
    for i in range(len(anchors) - 1):
        a, b = rights[i], rights[i + 1]
        for j in range(a + 1, b + 1):
            scale[j] = i + Fraction(1, 2) + Fraction(j - a, 2 * (b - a))
    if any(x is None for x in scale):
        raise ConstructionError("scale left a clique index unassigned")
    out = tuple(scale)  # type: ignore[arg-type]
    for j in range(k - 1):
        if not out[j] < out[j + 1]:
            raise ConstructionError("scale is not strictly increasing")
    for i, r in enumerate(rights):
        if out[r] != i:
            raise ConstructionError("scale misses an anchor value")
    return out


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
    psi, _ = claw_number(ordering)
    if psi < 2:
        return build_degenerate(ordering), None
    return _build(ordering, psi)


def _build(
    ordering: CliqueOrdering, psi: int
) -> tuple[CubeRepresentation, ConstructionTrace]:
    """The construction on an ordering with claw number psi >= 2; the
    representation covers the ordering's own vertices, not the pendants."""
    padded = pad_graph(ordering, psi)
    lab = label_vertices(padded.ordering)
    scale = clique_scale(padded.ordering, lab)
    claw = padded.claw
    codes = branch_codes(lab, claw)
    side = claw - Fraction(1, 2)
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
                row.append(scale[right[v]] - claw + Fraction(1, 2))
            else:
                row.append(scale[left[v]])
        coords.append(tuple(row))

    rep = CubeRepresentation(dims, side, tuple(coords[: ordering.n]))
    trace = ConstructionTrace(
        power=padded.power,
        claw=claw,
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
    n = ordering.n
    if ordering.k <= 1:
        return CubeRepresentation(0, Fraction(1), ((),) * n)
    coord = [Fraction(0)] * n
    for rank, clique in enumerate(sorted(ordering.cliques, key=min)):
        for v in clique:
            coord[v] = Fraction(2 * rank)
    return CubeRepresentation(1, Fraction(1), tuple((x,) for x in coord))


def _augment_with_universal(ordering: CliqueOrdering) -> CliqueOrdering:
    n, k = ordering.n, ordering.k
    cliques = tuple(c | {n} for c in ordering.cliques)
    return CliqueOrdering(cliques, ordering.left + (0,), ordering.right + (k - 1,))


def build_alpha_representation(ordering: CliqueOrdering) -> CubeRepresentation:
    """Exactly ceil(log2 alpha) dimensions via a universal vertex.

    Adding a universal vertex forces claw number == independence number,
    which makes the two extra dimensions of the claw build complete; both
    are detected by direct span checks, then dropped together with the
    universal vertex.
    """
    if ordering.n == 0:
        return CubeRepresentation(0, Fraction(1), ())
    return _build_alpha(ordering, label_vertices(ordering).alpha)


def _build_alpha(ordering: CliqueOrdering, alpha: int) -> CubeRepresentation:
    n = ordering.n
    if alpha == 1:
        return CubeRepresentation(0, Fraction(1), ((),) * n)
    # with a universal vertex the claw number is the independence number
    rep_aug, trace = _build(_augment_with_universal(ordering), alpha)
    p = trace.power
    complete = complete_dimensions(rep_aug)
    if complete != [p, p + 1]:
        raise ConstructionError(
            f"expected dimensions {p} and {p + 1} to be complete, found {complete}"
        )
    coords = tuple(tuple(rep_aug.coords[v][i] for i in range(p)) for v in range(n))
    return CubeRepresentation(p, rep_aug.side, coords)


def best_dimension(psi: int, alpha: int) -> int:
    """The dimension `build_best` reaches for claw number psi and
    independence number alpha >= 1.  Below claw number 2 build_degenerate
    needs one dimension, or none when alpha == 1, where the alpha
    variant's zero dimensions win anyway."""
    claw_dims = ceil_log2(psi) + 2 if psi >= 2 else 1
    return min(claw_dims, ceil_log2(alpha))


def build_best(ordering: CliqueOrdering) -> CubeRepresentation:
    """The smaller of the two variants; ties go to the alpha variant.
    Both dimensions follow from psi and alpha, so only one is built."""
    if ordering.n == 0:
        return build_degenerate(ordering)
    psi, _ = claw_number(ordering)
    alpha = label_vertices(ordering).alpha
    if best_dimension(psi, alpha) == ceil_log2(alpha):
        return _build_alpha(ordering, alpha)
    if psi < 2:
        return build_degenerate(ordering)
    return _build(ordering, psi)[0]


def normalize_unit(rep: CubeRepresentation) -> CubeRepresentation:
    """Rescale so the cube side is 1; adjacency is unchanged."""
    if rep.dimension == 0 or rep.side == 1:
        return rep
    if rep.side <= 0:
        raise ValueError("cube side must be positive")
    return CubeRepresentation(
        rep.dimension,
        Fraction(1),
        tuple(tuple(x / rep.side for x in row) for row in rep.coords),
    )
