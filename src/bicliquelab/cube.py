"""Points and axis-aligned subcubes of the Boolean cube.

Points of the d-cube are 0/1 tuples of length d.  A subcube fixes a subset
of coordinates (1-based positions, matching the external file formats) and
frees the rest.  This module builds the specific 120-point subset of the
7-cube that drives the grid-graph construction, and decomposes it into 30
pairwise-disjoint 2-dimensional subcubes, which is the fact the whole
biclique partition rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping

from .graphs import Certificate

CubePoint = tuple[int, ...]


@dataclass(frozen=True)
class Subcube:
    """An axis-aligned subcube of the d-cube.

    ``fixed`` maps 1-based coordinate positions to their pinned bit; the
    remaining coordinates are free.  Stored as a sorted tuple of pairs so
    instances are hashable and enumeration order is deterministic.
    """

    dim: int
    fixed: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        items = tuple(sorted((int(p), int(b)) for p, b in dict(self.fixed).items()))
        for pos, bit in items:
            if not 1 <= pos <= self.dim:
                raise ValueError(f"fixed position {pos} outside [1, {self.dim}]")
            if bit not in (0, 1):
                raise ValueError(f"fixed value at position {pos} must be 0 or 1")
        object.__setattr__(self, "fixed", items)

    @classmethod
    def of(cls, dim: int, fixed: Mapping[int, int]) -> "Subcube":
        return cls(dim, tuple(fixed.items()))

    @property
    def free_dim(self) -> int:
        return self.dim - len(self.fixed)

    @property
    def free_positions(self) -> tuple[int, ...]:
        pinned = {p for p, _ in self.fixed}
        return tuple(p for p in range(1, self.dim + 1) if p not in pinned)

    def points(self) -> Iterator[CubePoint]:
        """Member points, free coordinates counting up in binary (0 before 1)."""
        template = [0] * self.dim
        for p, b in self.fixed:
            template[p - 1] = b
        free = self.free_positions
        for bits in product((0, 1), repeat=len(free)):
            for p, b in zip(free, bits):
                template[p - 1] = b
            yield tuple(template)


@dataclass(frozen=True)
class CubeSet:
    """A set of points sharing one cube dimension."""

    dim: int
    members: frozenset[CubePoint]

    def __post_init__(self):
        members = frozenset(tuple(p) for p in self.members)
        for p in members:
            if len(p) != self.dim or any(b not in (0, 1) for b in p):
                raise ValueError(f"point {p} is not a {self.dim}-cube point")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, point: CubePoint) -> bool:
        return tuple(point) in self.members


def _q3_minus() -> list[CubePoint]:
    return [p for p in product((0, 1), repeat=3) if p != (0, 0, 0) and p != (1, 1, 1)]


def three_cube_nonconstant() -> CubeSet:
    """The 3-cube minus its two constant points (6 points)."""
    return CubeSet(3, frozenset(_q3_minus()))


def admissible_set() -> CubeSet:
    """The 120-point subset of the 7-cube used as the grid-graph adjacency rule.

    Start from all 128 points and remove: every point whose first four
    coordinates are all 1 and whose last three are neither all 0 nor all 1
    (6 points), the all-zero point, and (0,0,0,0,1,1,1).
    """
    removed = {(1, 1, 1, 1) + s for s in _q3_minus()}
    removed.add((0,) * 7)
    removed.add((0, 0, 0, 0, 1, 1, 1))
    members = frozenset(p for p in product((0, 1), repeat=7) if p not in removed)
    return CubeSet(7, members)


# The three edges (1-dimensional subcubes) partitioning the 3-cube minus its
# two constant points: {001,011}, {010,110}, {100,101}.
_EDGE_TRIPLE: tuple[dict[int, int], ...] = (
    {1: 0, 3: 1},
    {2: 1, 3: 0},
    {1: 1, 2: 0},
)

# Adjacent 4-prefix pairs whose (prefix x nonconstant-suffix) slabs make up
# the first block of the decomposition.
_PREFIX_PAIRS: tuple[tuple[CubePoint, CubePoint], ...] = (
    ((0, 0, 0, 0), (0, 0, 0, 1)),
    ((0, 0, 1, 1), (1, 0, 1, 1)),
    ((0, 1, 0, 1), (0, 1, 1, 1)),
    ((1, 1, 0, 1), (1, 0, 0, 1)),
)

# 4-prefixes whose full 3-cube slabs make up the third block.
_FULL_SLAB_PREFIXES: tuple[CubePoint, ...] = (
    (0, 0, 1, 0),
    (0, 1, 0, 0),
    (1, 0, 0, 0),
    (0, 1, 1, 0),
    (1, 0, 1, 0),
    (1, 1, 0, 0),
    (1, 1, 1, 0),
)


def edge_triple_subcubes() -> list[Subcube]:
    """The three 1-dimensional subcubes partitioning the 3-cube minus {000, 111}."""
    return [Subcube.of(3, e) for e in _EDGE_TRIPLE]


def decompose_admissible_set() -> list[Subcube]:
    """Split the 120-point set into exactly 30 disjoint 2-dimensional subcubes.

    Deterministic output in three fixed blocks:

    * 12 subcubes: for each of the 4 adjacent prefix pairs, the pair spans a
      free coordinate among the first four; crossing it with each of the 3
      suffix edges gives a 2-dimensional subcube.
    * 4 subcubes: prefixes with coordinate 4 pinned to 1 and coordinates 2,3
      free, crossed with a constant suffix (first half 1, then half 0 of
      coordinate 1, suffix 000 before 111).
    * 14 subcubes: each of the 7 remaining prefixes crossed with the 3-cube,
      which splits into its coordinate-5 = 0 and coordinate-5 = 1 halves.
    """
    parts: list[Subcube] = []
    for x1, x2 in _PREFIX_PAIRS:
        common = {i + 1: x1[i] for i in range(4) if x1[i] == x2[i]}
        for edge in _EDGE_TRIPLE:
            fixed = dict(common)
            for pos, bit in edge.items():
                fixed[4 + pos] = bit
            parts.append(Subcube.of(7, fixed))
    for lead in (1, 0):
        for suffix_bit in (0, 1):
            parts.append(
                Subcube.of(7, {1: lead, 4: 1, 5: suffix_bit, 6: suffix_bit, 7: suffix_bit})
            )
    for prefix in _FULL_SLAB_PREFIXES:
        for half in (0, 1):
            fixed = {i + 1: prefix[i] for i in range(4)}
            fixed[5] = half
            parts.append(Subcube.of(7, fixed))
    return parts


def verify_subcube_partition(target: CubeSet, parts: list[Subcube]) -> Certificate:
    """Certify that ``parts`` are pairwise disjoint and union exactly to ``target``.

    The failure witness carries the first doubly-covered point, the first
    covered point outside the target, or the sorted list of uncovered
    target points.
    """
    for i, part in enumerate(parts):
        if part.dim != target.dim:
            raise ValueError(f"part {i + 1} has dim {part.dim}, target has {target.dim}")
    params = {"dim": target.dim, "target_size": len(target), "parts": len(parts)}
    covered: dict[CubePoint, int] = {}
    for i, part in enumerate(parts):
        for p in part.points():
            if p in covered:
                return Certificate(
                    claim="subcube-partition",
                    parameters=params,
                    verdict=False,
                    witness={
                        "kind": "double-cover",
                        "point": list(p),
                        "parts": [covered[p] + 1, i + 1],
                    },
                )
            if p not in target:
                return Certificate(
                    claim="subcube-partition",
                    parameters=params,
                    verdict=False,
                    witness={"kind": "outside-target", "point": list(p), "part": i + 1},
                )
            covered[p] = i
    if len(covered) != len(target):
        missing = sorted(target.members - covered.keys())
        return Certificate(
            claim="subcube-partition",
            parameters=params,
            verdict=False,
            witness={"kind": "uncovered", "points": [list(p) for p in missing]},
        )
    return Certificate(
        claim="subcube-partition",
        parameters=params,
        verdict=True,
        witness={"covered": len(covered)},
    )
