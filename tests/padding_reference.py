"""The construction by the paper's route, kept as the reference for the
builders in `construct`.

The claw variant pads the claw number up to a power of two by appending
pendant cliques hung off one vertex of the last clique, builds on the
padded ordering, and drops the pendants' coordinates; dropping them
keeps the represented graph intact, because induced subgraphs only lose
constraints.  The alpha variant builds on the ordering plus a universal
vertex, whose claw number is the independence number, and drops the two
dimensions that build leaves complete, checked by their spans.

The library builds on the input ordering as it is, with claw = 2**power
at least every psi(v), so neither detour is needed.  Both routes give the
same dimension and the same levels on the input's vertices, and the same
coordinates whenever the padding adds no pendant: psi (claw variant) or
alpha (alpha variant) a power of two.
"""

from __future__ import annotations

from typing import NamedTuple

from intervalcubes import (
    CliqueOrdering,
    ConstructionError,
    CubeRepresentation,
    Labelling,
    build_degenerate,
    ceil_log2,
    label_vertices,
)
from intervalcubes.construct import branch_codes, clique_scale
from intervalcubes.labelling import suffix_best
from intervalcubes.params import vertex_claws

from validators import complete_dimensions


class PaddedGraph(NamedTuple):
    """The clique ordering with pendant vertices appended so that the claw
    number equals 2**power; original vertices keep their indices.  The
    `added` pendants hang off `center`, which is None when nothing was
    added."""

    ordering: CliqueOrdering
    power: int
    added: int
    center: int | None

    @property
    def claw(self) -> int:
        return 1 << self.power


class PaddedTrace(NamedTuple):
    """The `padded` graph and its `labelling`, the clique `scale` in units
    of 1/`unit`, and the unrestricted padded coordinates."""

    padded: PaddedGraph
    labelling: Labelling
    scale: tuple[int, ...]
    unit: int
    coords: tuple[tuple[int, ...], ...]

    @property
    def power(self) -> int:
        return self.padded.power

    @property
    def claw(self) -> int:
        return self.padded.claw


def psi_values(ordering: CliqueOrdering) -> list[int]:
    """psi(v) for every vertex, by the library's chain pass."""
    return vertex_claws(ordering, suffix_best(ordering))


def pad_graph(ordering: CliqueOrdering, claws: list[int]) -> PaddedGraph:
    """Append pendants to the last-clique vertex whose neighbourhood holds
    the most independent vertices (lowest index on ties) until the claw
    number psi, the largest of `claws`, is the next power of two.  Pendants
    touch only that center, so the padded claw number is known without
    another pass."""
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


def padded_build(
    ordering: CliqueOrdering, claws: list[int], labelling: Labelling
) -> tuple[CubeRepresentation, PaddedTrace]:
    """The construction on the padded ordering of an ordering with claw
    number max(claws) >= 2, from its psi(v) and labelling; the
    representation covers the ordering's own vertices, not the pendants."""
    padded = pad_graph(ordering, claws)
    lab = label_vertices(padded.ordering) if padded.added else labelling
    scale, unit = clique_scale(padded.ordering, lab)
    codes = branch_codes(lab, padded.claw)
    side = padded.claw * unit - unit // 2
    dims = padded.power + 2

    left, right = padded.ordering.left, padded.ordering.right
    coords = []
    for v, code in enumerate(codes):
        at_left, at_right = scale[left[v]], scale[right[v]] - side
        coords.append(tuple([at_left if code >> i & 1 else at_right for i in range(dims)]))
    rep = CubeRepresentation(dims, side, tuple(coords[: ordering.n]), unit)
    return rep, PaddedTrace(padded, lab, scale, unit, tuple(coords))


def padded_claw_build(ordering: CliqueOrdering) -> tuple[CubeRepresentation, PaddedTrace | None]:
    """ceil(log2 claw) + 2 dimensions by padding; claw number below 2 takes
    the degenerate route and carries no trace."""
    claws = psi_values(ordering)
    if max(claws, default=0) < 2:
        return build_degenerate(ordering), None
    return padded_build(ordering, claws, label_vertices(ordering))


def augment_with_universal(ordering: CliqueOrdering) -> CliqueOrdering:
    """The ordering plus a universal vertex, numbered n, whose range is
    every clique."""
    k = ordering.k
    return CliqueOrdering(k, ordering.left + (0,), ordering.right + (k - 1,))


def universal_alpha_build(
    ordering: CliqueOrdering,
) -> tuple[CubeRepresentation, PaddedTrace | None]:
    """ceil(log2 alpha) dimensions via a universal vertex: the padded build
    on the augmented ordering leaves dimensions p and p + 1 complete, and
    both are dropped together with the universal vertex.  The augmented
    psi(v) and labelling are read off the ordering's own: the universal
    vertex's psi is alpha, and it lifts no other psi(v) but a 0 to 1; it
    sits at level 0 and is no anchor."""
    n = ordering.n
    labelling = label_vertices(ordering)
    alpha = labelling.alpha
    if alpha <= 1:
        return CubeRepresentation(0, 1, ((),) * n, 1), None
    aug_claws = [max(c, 1) for c in psi_values(ordering)] + [alpha]
    aug_labelling = Labelling(labelling.levels + (0,), labelling.anchors)
    rep_aug, trace = padded_build(augment_with_universal(ordering), aug_claws, aug_labelling)
    p = trace.power
    complete = complete_dimensions(rep_aug)
    if complete != [p, p + 1]:
        raise ConstructionError(
            f"expected dimensions {p} and {p + 1} to be complete, found {complete}"
        )
    coords = tuple(row[:p] for row in rep_aug.coords[:n])
    return CubeRepresentation(p, rep_aug.side, coords, rep_aug.unit), trace
