"""The grid-graph family with a small independence number and a small biclique partition.

Vertices are the points of [n]^7.  Two points are adjacent exactly when
their coordinatewise disagreement pattern lies in the 120-point admissible
set from :mod:`bicliquelab.cube`.  Because that set splits into 30 disjoint
2-dimensional subcubes, the graph splits into 30 edge-disjoint pieces, each
of which is an n^2-blowup of a graph on [n]^5 and therefore admits a small
star-based biclique partition.  OR powers of the graph then carry t-covers
of at most t times the partition size.

Canonical index maps (part of the public contract):

* [n]^d points are indexed mixed-radix, most significant coordinate first:
  (x_1, ..., x_d) -> sum (x_i - 1) * n^(d-i).  This is exactly the order
  ``itertools.product(range(1, n+1), repeat=d)`` enumerates.
* A blowup copy (v, c) gets index v*m + c; an OR-product vertex (a, b)
  gets index a*|H| + b (see :mod:`bicliquelab.graphs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, NamedTuple

import numpy as np

from .cube import CubeSet, Subcube, admissible_set, decompose_admissible_set
from .errors import ResourceLimitError
from .graphs import Biclique, BicliqueSystem, Graph, or_product, pack_rows, star_partition

GridPoint = tuple[int, ...]

DEFAULT_VERTEX_LIMIT = 10_000
# The OR-power route needs n^(7t) vertices; the default admits n=2, t=2.
DEFAULT_POWER_VERTEX_LIMIT = 16_384


def project(x: GridPoint, positions: Iterable[int]) -> GridPoint:
    """Restrict a point to the given 1-based coordinate positions, in increasing order."""
    xs = tuple(x)
    pos = sorted(set(int(p) for p in positions))
    for p in pos:
        if not 1 <= p <= len(xs):
            raise ValueError(f"position {p} outside [1, {len(xs)}]")
    return tuple(xs[p - 1] for p in pos)


def grid_points(n: int, arity: int) -> list[GridPoint]:
    """All points of [n]^arity in canonical (index) order."""
    return list(product(range(1, n + 1), repeat=arity))


def point_index(x: GridPoint, n: int) -> int:
    idx = 0
    for c in x:
        idx = idx * n + (c - 1)
    return idx


def index_point(idx: int, n: int, arity: int) -> GridPoint:
    out = []
    for _ in range(arity):
        idx, r = divmod(idx, n)
        out.append(r + 1)
    return tuple(reversed(out))


def _check_vertex_limit(count: int, limit: int) -> None:
    if count > limit:
        raise ResourceLimitError("vertex_limit", limit, count)


@dataclass(frozen=True)
class GridGraphSpec:
    """A grid-graph recipe: points of [n]^arity, adjacent exactly when their
    disagreement pattern lies in ``admissible``.

    The admissible set must exclude the all-zero pattern (which would put a
    loop at every vertex).  ``realize`` materializes the graph under the
    canonical mixed-radix index map.
    """

    n: int
    arity: int
    admissible: CubeSet

    def __post_init__(self):
        if self.n < 1 or self.arity < 1:
            raise ValueError("n and arity must be positive")
        if self.admissible.dim != self.arity:
            raise ValueError(
                f"admissible set lives in dim {self.admissible.dim}, arity is {self.arity}"
            )
        if (0,) * self.arity in self.admissible:
            raise ValueError("admissible set contains the all-zero pattern (loops)")

    def realize(self, *, vertex_limit: int = DEFAULT_VERTEX_LIMIT) -> Graph:
        count = self.n ** self.arity
        _check_vertex_limit(count, vertex_limit)
        pts = np.array(grid_points(self.n, self.arity), dtype=np.int16)
        key = np.zeros((count, count), dtype=np.uint32)
        for i in range(self.arity):
            key <<= 1
            key |= pts[:, i, None] != pts[None, :, i]
        mask = np.zeros(1 << self.arity, dtype=bool)
        for p in self.admissible.members:
            idx = 0
            for b in p:
                idx = idx * 2 + b
            mask[idx] = True
        return Graph._trusted(pack_rows(mask[key]))


@lru_cache(maxsize=2)
def _pattern_key(n: int) -> np.ndarray:
    """Matrix of packed disagreement patterns between all pairs of [n]^7 points.

    Entry (i, j) encodes the 7-bit pattern of coordinates where point i and
    point j differ, most significant coordinate first.
    """
    pts = np.array(grid_points(n, 7), dtype=np.int8)
    size = len(pts)
    key = np.zeros((size, size), dtype=np.uint8)
    for i in range(7):
        key <<= 1
        key |= pts[:, i, None] != pts[None, :, i]
    key.flags.writeable = False
    return key


def _pattern_mask(patterns: Iterable[tuple[int, ...]]) -> np.ndarray:
    mask = np.zeros(128, dtype=bool)
    for p in patterns:
        idx = 0
        for b in p:
            idx = idx * 2 + b
        mask[idx] = True
    return mask


# rows per band when a graph is built from the pattern key
_KEY_BAND = 256


def _graph_from_patterns(n: int, patterns: Iterable[tuple[int, ...]], limit: int) -> Graph:
    """Look up each pair's pattern in the admitted set, one band of rows at a time,
    so only the packed rows and one bool band are held beside the key."""
    _check_vertex_limit(n ** 7, limit)
    mask, key = _pattern_mask(patterns), _pattern_key(n)
    bands = [pack_rows(mask[key[lo : lo + _KEY_BAND]]) for lo in range(0, len(key), _KEY_BAND)]
    return Graph._trusted(np.concatenate(bands))


def grid_graph(n: int, *, vertex_limit: int = DEFAULT_VERTEX_LIMIT) -> Graph:
    """The graph on [n]^7 whose adjacency rule is the full admissible set."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _graph_from_patterns(n, admissible_set().members, vertex_limit)


def grid_graph_piece(
    n: int, part: Subcube, *, vertex_limit: int = DEFAULT_VERTEX_LIMIT
) -> Graph:
    """One edge-disjoint piece: same vertices, adjacency restricted to one subcube."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if part.dim != 7:
        raise ValueError(f"piece subcube must have dim 7, got {part.dim}")
    return _graph_from_patterns(n, part.points(), vertex_limit)


class ReducedPiece(NamedTuple):
    """A piece's reduced graph on [n]^5 plus the blowup correspondence.

    ``to_blowup[g]`` maps the [n]^7 vertex index g to its index in
    ``blowup(graph, n*n)``: the reduced vertex is the restriction of g to
    the subcube's five fixed positions, and the copy number enumerates the
    two free positions, both mixed-radix in increasing position order.
    """

    graph: Graph
    to_blowup: np.ndarray


def reduced_graph(n: int, part: Subcube) -> ReducedPiece:
    """Collapse a piece's two free coordinates: the piece is the n^2-blowup of this graph.

    Reduced points are adjacent iff they differ at exactly the fixed
    positions carrying 1 and agree at the fixed positions carrying 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(part.fixed) != 5:
        raise ValueError(f"expected exactly 5 fixed coordinates, got {len(part.fixed)}")
    if not any(b for _, b in part.fixed):
        raise ValueError("all fixed values are 0; the reduced graph would have loops")
    fixed_pos = [p for p, _ in part.fixed]
    fixed_val = np.array([b for _, b in part.fixed], dtype=bool)
    free_pos = list(part.free_positions)

    pts5 = np.array(grid_points(n, 5), dtype=np.int16)
    n5 = len(pts5)
    adj = np.ones((n5, n5), dtype=bool)
    for i in range(5):
        diff = pts5[:, i, None] != pts5[None, :, i]
        adj &= diff == fixed_val[i]
    graph = Graph._trusted(pack_rows(adj))

    m = n * n
    to_blowup = np.empty(n ** 7, dtype=np.int64)
    for gidx, x in enumerate(grid_points(n, 7)):
        ridx = point_index(tuple(x[p - 1] for p in fixed_pos), n)
        copy = point_index(tuple(x[p - 1] for p in free_pos), n)
        to_blowup[gidx] = ridx * m + copy
    return ReducedPiece(graph, to_blowup)


def grid_graph_partition(
    n: int, *, vertex_limit: int = DEFAULT_VERTEX_LIMIT
) -> BicliqueSystem:
    """An explicit biclique partition of the grid graph of size at most 30*(n^5 - 1).

    Each of the 30 pieces is star-partitioned in its reduced form and every
    star is blown back up through the piece's copy structure; blowing up a
    biclique keeps it a biclique, and the pieces are edge-disjoint, so the
    union is an exact partition.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_vertex_limit(n ** 7, vertex_limit)
    total = n ** 7
    m = n * n
    parts: list[Biclique] = []
    for piece in decompose_admissible_set():
        reduced = reduced_graph(n, piece)
        inverse = np.empty(total, dtype=np.int64)
        inverse[reduced.to_blowup] = np.arange(total)
        copies = np.arange(m, dtype=np.int64)
        for star in star_partition(reduced.graph).parts:
            left = np.sort(
                inverse[(np.array(star.left)[:, None] * m + copies).ravel()]
            )
            right = np.sort(
                inverse[(np.array(star.right)[:, None] * m + copies).ravel()]
            )
            parts.append(Biclique(tuple(int(v) for v in left), tuple(int(v) for v in right)))
    return BicliqueSystem(total, tuple(parts), 1)


def _lift(vertices: Iterable[int], coord: int, t: int, base: int) -> tuple[int, ...]:
    """All OR-power vertex indices whose coordinate ``coord`` (0-based) is in ``vertices``."""
    vs = np.array(sorted(vertices), dtype=np.int64)
    prefix = np.arange(base ** coord, dtype=np.int64) * base ** (t - coord)
    suffix = np.arange(base ** (t - coord - 1), dtype=np.int64)
    lifted = (
        prefix[:, None, None]
        + vs[None, :, None] * base ** (t - coord - 1)
        + suffix[None, None, :]
    ).ravel()
    return tuple(int(v) for v in lifted)


def power_graph_cover(
    n: int, t: int, *, vertex_limit: int = DEFAULT_POWER_VERTEX_LIMIT
) -> tuple[Graph, BicliqueSystem]:
    """The t-th OR power of the grid graph together with an explicit t-cover.

    Every biclique of the base partition is lifted through each of the t
    coordinates (all other coordinates free); a power edge is covered once
    per coordinate where its endpoints are adjacent, hence between 1 and t
    times.  Cover size is at most t times the base partition size.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    _check_vertex_limit(n ** (7 * t), vertex_limit)
    base_graph = grid_graph(n, vertex_limit=vertex_limit)
    base_parts = grid_graph_partition(n, vertex_limit=vertex_limit)
    power = base_graph
    for _ in range(t - 1):
        power = or_product(power, base_graph)
    size = base_graph.order
    lifted: list[Biclique] = []
    for coord in range(t):
        for b in base_parts.parts:
            lifted.append(
                Biclique(_lift(b.left, coord, t, size), _lift(b.right, coord, t, size))
            )
    return power, BicliqueSystem(power.order, tuple(lifted), t)


def projection_dichotomy(points: Iterable[GridPoint]) -> bool:
    """Structural property of independent sets in the grid graph.

    Either all points share one restriction to the first four coordinates,
    or any two distinct restrictions disagree in all four of them.
    """
    heads = {project(p, (1, 2, 3, 4)) for p in points}
    if len(heads) <= 1:
        return True
    hl = sorted(heads)
    return all(
        sum(int(a != b) for a, b in zip(h1, h2)) == 4
        for i, h1 in enumerate(hl)
        for h2 in hl[i + 1 :]
    )
