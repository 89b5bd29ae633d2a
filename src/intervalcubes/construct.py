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
JSON methods of `CubeRepresentation` turn them into rationals.

Dimension count is exactly ceil(log2 claw) + 2.  A second variant appends
a universal vertex to the ordering to get ceil(log2 alpha) dimensions,
dropping the two coordinates that the augmented build leaves complete.
`build_best` builds only the variant with fewer dimensions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from .intervals import CliqueOrdering
from .labelling import Labelling, label_vertices
from .params import ceil_log2, claw_number, vertex_claws
from .rationals import format_rational, parse_rational
from .recognition import ConstructionError
from .verify import complete_dimensions


# A document's values go onto the lcm of their denominators, which grows
# with the product of distinct ones: 1/p over the first 2000 primes, 25 kB
# of JSON, needs a unit of 24,856 bits.  Built outputs need a few dozen.
MAX_UNIT_BITS = 1024


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
    when every coordinate differs by at most `side`.  Side and coordinates
    are ints counting units of 1/`unit`.  dimension == 0 means every pair
    is adjacent by convention."""

    dimension: int
    side: int
    coords: tuple[tuple[int, ...], ...]
    unit: int

    @property
    def n(self) -> int:
        return len(self.coords)

    def to_json_obj(self) -> dict:
        return {
            "dimension": self.dimension,
            "side": format_rational(Fraction(self.side, self.unit)),
            "coords": [
                [format_rational(Fraction(x, self.unit)) for x in row] for row in self.coords
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj) -> "CubeRepresentation":
        """Rationals onto the coarsest integer grid that holds them all: the
        unit is the lcm of their denominators, refused with ValueError once
        it passes MAX_UNIT_BITS, before any coordinate is built."""
        if not isinstance(obj, dict):
            raise ValueError("a representation is a JSON object")
        dimension, side, rows = obj["dimension"], parse_rational(obj["side"]), obj["coords"]
        if type(dimension) is not int or dimension < 0 or side <= 0:
            raise ValueError("dimension must be an integer >= 0 and side positive")
        if not isinstance(rows, list) or any(
            not isinstance(row, list) or len(row) != dimension for row in rows
        ):
            raise ValueError("coords must be a list of vectors of length dimension")
        rows = [[parse_rational(x) for x in row] for row in rows]
        unit = side.denominator
        for denominator in {x.denominator for row in rows for x in row}:
            unit = lcm(unit, denominator)
            if unit.bit_length() > MAX_UNIT_BITS:
                raise ValueError(f"the common grid needs a unit of more than {MAX_UNIT_BITS} bits")
        coords = tuple(tuple(x.numerator * (unit // x.denominator) for x in row) for row in rows)
        return cls(dimension, side.numerator * (unit // side.denominator), coords, unit)

    @classmethod
    def loads(cls, text: str) -> "CubeRepresentation":
        return cls.from_json_obj(json.loads(text))


@dataclass(frozen=True)
class ConstructionTrace:
    """Everything the audit checks need: the clique scale, the codes and
    levels on the padded graph, the branch taken per (dimension, vertex),
    and the unrestricted padded coordinates.  Scale and coordinates are
    integers in units of 1/`unit`, as in the representation."""

    power: int
    claw: int
    unit: int
    scale: tuple[int, ...]
    codes: tuple[int, ...]
    levels: tuple[int, ...]
    branch: tuple[tuple[int, ...], ...]
    coords: tuple[tuple[int, ...], ...]
    padded: PaddedGraph
    labelling: Labelling

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


def pad_graph(ordering: CliqueOrdering, psi: int) -> PaddedGraph:
    """Append pendants to the last-clique vertex whose neighbourhood holds
    the most independent vertices (lowest index on ties) until the claw
    number psi is the next power of two.  Pendants touch only that center,
    so the padded claw number is known without another pass.

    Each last-clique vertex's count comes from one `vertex_claws` pass over
    the ordering, O(n + k + sum of psi(v)), not from a greedy per vertex.
    Its chain may end on a different vertex than the greedy on N(v) would,
    but always with the same count, so the center is the same."""
    if psi < 2:
        raise ValueError("padding needs claw number at least 2")
    power = ceil_log2(psi)
    target = 1 << power
    if target == psi:
        return PaddedGraph(ordering, power, 0, None)

    n, k = ordering.n, ordering.k
    claws = vertex_claws(ordering)
    center = min(ordering.cliques[-1], key=lambda v: (-claws[v], v))
    added = target - claws[center]

    # a center alone in the last clique is isolated: the first pendant
    # clique takes that clique's place, which {center} alone would not
    # survive as a maximal clique
    first = k - 1 if len(ordering.cliques[-1]) == 1 else k
    cliques = list(ordering.cliques[:first]) + [
        frozenset({center, n + i}) for i in range(added)
    ]
    left = list(ordering.left) + [first + i for i in range(added)]
    right = list(ordering.right) + [first + i for i in range(added)]
    right[center] = first + added - 1
    padded_ordering = CliqueOrdering(tuple(cliques), tuple(left), tuple(right))
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
    n = ordering.n
    if ordering.k <= 1:
        return CubeRepresentation(0, 1, ((),) * n, 1)
    coord = [0] * n
    for rank, clique in enumerate(sorted(ordering.cliques, key=min)):
        for v in clique:
            coord[v] = 2 * rank
    return CubeRepresentation(1, 1, tuple((x,) for x in coord), 1)


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
        return CubeRepresentation(0, 1, (), 1)
    return _build_alpha(ordering, label_vertices(ordering).alpha)


def _build_alpha(ordering: CliqueOrdering, alpha: int) -> CubeRepresentation:
    n = ordering.n
    if alpha == 1:
        return CubeRepresentation(0, 1, ((),) * n, 1)
    # with a universal vertex the claw number is the independence number
    rep_aug, trace = _build(_augment_with_universal(ordering), alpha)
    p = trace.power
    complete = complete_dimensions(rep_aug)
    if complete != [p, p + 1]:
        raise ConstructionError(
            f"expected dimensions {p} and {p + 1} to be complete, found {complete}"
        )
    coords = tuple(tuple(rep_aug.coords[v][i] for i in range(p)) for v in range(n))
    return CubeRepresentation(p, rep_aug.side, coords, rep_aug.unit)


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
    """Take the cube side as the unit, so the side reads 1; adjacency and
    the integer coordinates are unchanged."""
    if rep.unit == rep.side:
        return rep
    return replace(rep, unit=rep.side)
