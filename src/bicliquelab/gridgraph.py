"""The grid-graph family with a small independence number and a small biclique partition.

Vertices are the points of [n]^7.  Two points are adjacent exactly when
their coordinatewise disagreement pattern lies in the 120-point admissible
set from :mod:`bicliquelab.cube`.  Because that set splits into 30 disjoint
2-dimensional subcubes, the graph splits into 30 edge-disjoint pieces, each
of which is an n^2-blowup of a graph on [n]^5 and therefore admits a small
star-based biclique partition.  OR powers of the graph then carry t-covers
of at most t times the partition size.

The graph and its pieces are built by two independent routes.
:func:`grid_graph` looks up every pair's disagreement pattern in the
admissible set (:meth:`GridGraphSpec.realize`, one band of rows at a time).
A piece, and its reduction on [n]^5, is built from its subcube alone: a row
is the AND, over the pinned positions, of the packed set of points that
agree with it there (inverted where the pin is 1).  So the demo's checks
that the pieces' edges sum to the graph's and never overlap compare two
constructions, not one with itself.

Canonical index maps (part of the public contract):

* [n]^d points are indexed mixed-radix, most significant coordinate first:
  (x_1, ..., x_d) -> sum (x_i - 1) * n^(d-i).  This is exactly the order
  ``itertools.product(range(1, n+1), repeat=d)`` enumerates.
* A blowup copy (v, c) gets index v*m + c; an OR-product vertex (a, b)
  gets index a*|H| + b (see :mod:`bicliquelab.graphs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .cube import CubeSet, Subcube, admissible_set, decompose_admissible_set
from .errors import ResourceLimitError
from .graphs import BicliqueSystem, Graph, or_product, star_partition
from .packed import pack_rows

GridPoint = tuple[int, ...]

DEFAULT_VERTEX_LIMIT = 10_000
# The OR-power route needs n^(7t) vertices; the default admits n=2, t=2.
DEFAULT_POWER_VERTEX_LIMIT = 16_384
# rows per band of the disagreement key in GridGraphSpec.realize
_KEY_BAND = 256


def project(x: GridPoint, positions: Iterable[int]) -> GridPoint:
    """Restrict a point to the given 1-based coordinate positions, in increasing order."""
    xs = tuple(x)
    pos = sorted(set(int(p) for p in positions))
    for p in pos:
        if not 1 <= p <= len(xs):
            raise ValueError(f"position {p} outside [1, {len(xs)}]")
    return tuple(xs[p - 1] for p in pos)


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
        """Look up each pair's disagreement pattern in the admissible set, one
        band of rows at a time, so only the packed rows and one band's key are held."""
        count = self.n ** self.arity
        _check_vertex_limit(count, vertex_limit)
        mask = np.zeros(1 << self.arity, dtype=bool)
        for p in self.admissible.members:
            idx = 0
            for b in p:
                idx = idx * 2 + b
            mask[idx] = True
        columns = _coordinates(self.n, self.arity)
        key_type = np.min_scalar_type(len(mask) - 1)
        rows = np.empty((count, (count + 63) // 64), dtype=np.uint64)
        for lo in range(0, count, _KEY_BAND):
            hi = min(lo + _KEY_BAND, count)
            key = np.zeros((hi - lo, count), dtype=key_type)
            for col in columns:
                key += key
                key += col[lo:hi, None] != col[None, :]
            rows[lo:hi] = pack_rows(np.take(mask, key))
        return Graph._trusted(rows)


def _coordinates(n: int, arity: int) -> np.ndarray:
    """Coordinate columns of [n]^arity: entry (i, x) is the 0-based coordinate
    i + 1 of the point with index x, in the narrowest unsigned dtype."""
    weights = n ** np.arange(arity - 1, -1, -1, dtype=np.int64)
    columns = np.arange(n ** arity, dtype=np.int64) // weights[:, None] % n
    return columns.astype(np.min_scalar_type(n - 1))


def _mixed_radix(columns: np.ndarray, n: int) -> np.ndarray:
    """The index of each point formed by the given coordinate columns, most significant first."""
    return n ** np.arange(len(columns) - 1, -1, -1, dtype=np.int64) @ columns


def _subcube_rows(n: int, arity: int, fixed: Sequence[tuple[int, int]]) -> np.ndarray:
    """Packed rows of the graph on [n]^arity whose adjacency rule is one subcube.

    ``fixed`` holds (1-based position, bit) pairs, at least one bit 1.  Two
    points are adjacent iff they differ at every position pinned to 1 and
    agree at every position pinned to 0, so row x is the AND over pinned
    positions p of the packed set {y : y_p = x_p}, inverted where the bit is
    1.  That row depends only on x's pinned coordinates, so it is built once
    per combination of them and then gathered for every point.
    """
    columns = _coordinates(n, arity)
    pinned = columns[[pos - 1 for pos, _ in fixed]]
    combos = _coordinates(n, len(fixed))
    distinct = pack_rows(np.ones((1, n ** arity), dtype=bool)).repeat(n ** len(fixed), axis=0)
    for col, combo, (_, bit) in zip(pinned, combos, fixed):
        level_sets = pack_rows(np.arange(n)[:, None] == col[None, :])
        same = level_sets[combo]
        if bit:
            np.invert(same, out=same)
        distinct &= same
    return distinct[_mixed_radix(pinned, n)]


def grid_graph(n: int, *, vertex_limit: int = DEFAULT_VERTEX_LIMIT) -> Graph:
    """The graph on [n]^7 whose adjacency rule is the full admissible set."""
    return GridGraphSpec(n, 7, admissible_set()).realize(vertex_limit=vertex_limit)


def grid_graph_piece(
    n: int, part: Subcube, *, vertex_limit: int = DEFAULT_VERTEX_LIMIT
) -> Graph:
    """One edge-disjoint piece: same vertices, adjacency restricted to one subcube.

    Built from the subcube alone (see :func:`_subcube_rows`), a route
    independent of the admissible-set lookup that builds :func:`grid_graph`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if part.dim != 7:
        raise ValueError(f"piece subcube must have dim 7, got {part.dim}")
    if not any(b for _, b in part.fixed):
        raise ValueError("piece subcube contains the all-zero pattern (loops)")
    _check_vertex_limit(n ** 7, vertex_limit)
    return Graph._trusted(_subcube_rows(n, 7, part.fixed))


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
    reduced_rule = [(i + 1, b) for i, (_, b) in enumerate(part.fixed)]
    graph = Graph._trusted(_subcube_rows(n, 5, reduced_rule))

    columns = _coordinates(n, 7)
    reduced = _mixed_radix(columns[[p - 1 for p, _ in part.fixed]], n)
    copy = _mixed_radix(columns[[p - 1 for p in part.free_positions]], n)
    return ReducedPiece(graph, reduced * (n * n) + copy)


def grid_graph_partition(
    n: int, *, vertex_limit: int = DEFAULT_VERTEX_LIMIT
) -> BicliqueSystem:
    """An explicit biclique partition of the grid graph of size at most 30*(n^5 - 1).

    Each of the 30 pieces is star-partitioned in its reduced form and every
    star is blown back up through the piece's copy structure; blowing up a
    biclique keeps it a biclique, and the pieces are edge-disjoint, so the
    union is an exact partition.  The blown-up stars of all pieces are
    gathered into one vertex array, whose sides the system then sorts.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_vertex_limit(n ** 7, vertex_limit)
    total = n ** 7
    m = n * n
    pieces = []
    for piece in decompose_admissible_set():
        reduced = reduced_graph(n, piece)
        # copies[v]: the [n]^7 indices of the n^2 copies of reduced vertex v
        copies = np.empty(total, dtype=np.int32)
        copies[reduced.to_blowup] = np.arange(total, dtype=np.int32)
        pieces.append((copies.reshape(-1, m), star_partition(reduced.graph)))
    starts = np.cumsum([0] + [m * len(stars.vertices) for _, stars in pieces])
    vertices = np.empty(starts[-1], dtype=np.int32)
    for (copies, stars), lo, hi in zip(pieces, starts, starts[1:]):
        vertices[lo:hi] = copies[stars.vertices].ravel()
    ends = (stars.bounds[1:] * m + lo for (_, stars), lo in zip(pieces, starts))
    bounds = np.concatenate([[0], *ends])
    return BicliqueSystem.from_arrays(total, bounds, vertices, 1)


def _lift(
    bounds: np.ndarray, vertices: np.ndarray, coord: int, t: int, base: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lift every part through coordinate ``coord`` (0-based) of the t-th OR power.

    A side's vertex v becomes every power vertex whose coordinate ``coord``
    is v, the other coordinates free: index p * base^(t-coord) +
    v * base^(t-coord-1) + s.  Listed with p outermost and s innermost, a
    sorted side lifts to a sorted side, and every side grows by the same
    factor, so the side bounds scale by it.
    """
    outer, inner = base ** coord, base ** (t - coord - 1)
    sizes = np.diff(bounds)
    # one entry per (side, p, v): its side's start and length, and its place w in the side's run
    start = np.repeat(bounds[:-1], sizes * outer)
    length = np.repeat(sizes, sizes * outer)
    w = np.arange(len(vertices) * outer) - start * outer
    middle = w // length * (base * inner) + vertices[start + w % length].astype(np.int64) * inner
    lifted = (middle[:, None] + np.arange(inner)).ravel().astype(np.int32)
    return bounds * (outer * inner), lifted


def power_graph_cover(
    n: int, t: int, *, vertex_limit: int = DEFAULT_POWER_VERTEX_LIMIT
) -> tuple[Graph, BicliqueSystem]:
    """The t-th OR power of the grid graph together with an explicit t-cover.

    Every biclique of the base partition is lifted through each of the t
    coordinates (all other coordinates free); a power edge is covered once
    per coordinate where its endpoints are adjacent, hence between 1 and t
    times.  Cover size is at most t times the base partition size.

    n^(7t) >= 2^(7t(b - 1)) for n of b bits; past the limit by that bound
    alone, the power is not formed, and the error names ``vertex_limit + 1``.
    """
    if n < 1 or t < 1:
        raise ValueError("n and t must be >= 1")
    if 7 * t * (n.bit_length() - 1) > vertex_limit.bit_length():
        raise ResourceLimitError("vertex_limit", vertex_limit, vertex_limit + 1)
    _check_vertex_limit(n ** (7 * t), vertex_limit)
    base_graph = grid_graph(n, vertex_limit=vertex_limit)
    base_parts = grid_graph_partition(n, vertex_limit=vertex_limit)
    if not len(base_parts):  # n = 1: the power is one vertex, and no part lifts
        return base_graph, BicliqueSystem(1, (), t)
    power = base_graph
    for _ in range(t - 1):
        power = or_product(power, base_graph)
    lifted = [
        _lift(base_parts.bounds, base_parts.vertices, coord, t, base_graph.order)
        for coord in range(t)
    ]
    starts = np.cumsum([0] + [len(vertices) for _, vertices in lifted])
    bounds = np.concatenate([[0], *(b[1:] + lo for (b, _), lo in zip(lifted, starts))])
    vertices = np.concatenate([vertices for _, vertices in lifted])
    return power, BicliqueSystem.from_arrays(power.order, bounds, vertices, t)


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
