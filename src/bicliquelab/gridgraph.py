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
  gets index a*|H| + b (see :mod:`bicliquelab.graphs`).  The partition
  and the OR-power cover lift sides through copy tables built from these
  maps: row v of a table lists the vertices that v becomes.
* No map does digit arithmetic: coordinate columns are ``np.indices`` of
  the (n,) * d grid, a pattern indexes a (2,) * d mask, and a piece's
  rows are broadcast over the grid's free axes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .cube import CubeSet, Subcube, admissible_set, decompose_admissible_set
from .errors import ResourceLimitError
from .graphs import (
    DEFAULT_VERTEX_LIMIT, BicliqueSystem, Graph, check_vertex_limit, or_product, star_partition
)
from .packed import pack_rows, zero_rows

# The OR-power route needs n^(7t) vertices; this admits n=2, t=2, and no flag raises it.
POWER_VERTEX_LIMIT = 16_384
# rows per band of the disagreement key in GridGraphSpec.realize
_KEY_BAND = 256


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
        object.__setattr__(self, "n", operator.index(self.n))
        object.__setattr__(self, "arity", operator.index(self.arity))
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
        check_vertex_limit(count, vertex_limit)
        patterns = np.array(list(self.admissible.members), dtype=np.intp).reshape(-1, self.arity)
        mask = np.zeros((2,) * self.arity, dtype=bool)
        mask[tuple(patterns.T)] = True  # flat entry k: the pattern whose bits spell k
        columns = _coordinates(self.n, self.arity)
        key_type = np.min_scalar_type(mask.size - 1)
        rows = zero_rows(count, count)
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
    return np.indices((n,) * arity, dtype=np.min_scalar_type(n - 1)).reshape(arity, -1)


def _subcube_rows(n: int, arity: int, fixed: Sequence[tuple[int, int]]) -> np.ndarray:
    """Packed rows of the graph on [n]^arity whose adjacency rule is one subcube.

    ``fixed`` holds (1-based position, bit) pairs, at least one bit 1.  Two
    points are adjacent iff they differ at every position pinned to 1 and
    agree at every position pinned to 0, so row x is the AND over pinned
    positions p of the packed set {y : y_p = x_p}, inverted where the bit is
    1.  Each position's n packed level sets lie along its own axis of the
    index grid, so the AND spans only the pinned axes and is then broadcast
    over the free ones.
    """
    columns = _coordinates(n, arity)
    distinct = pack_rows(np.ones((1, n ** arity), dtype=bool)).reshape((1,) * arity + (-1,))
    for pos, bit in fixed:
        same = pack_rows(np.arange(n)[:, None] == columns[pos - 1][None, :])
        if bit:
            np.invert(same, out=same)
        distinct = distinct & same.reshape((1,) * (pos - 1) + (n,) + (1,) * (arity - pos) + (-1,))
    return np.broadcast_to(distinct, (n,) * arity + distinct.shape[-1:]).reshape(n ** arity, -1)


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
    check_vertex_limit(n ** 7, vertex_limit)
    return Graph._trusted(_subcube_rows(n, 7, part.fixed))


class ReducedPiece(NamedTuple):
    """A piece's reduced graph on [n]^5 plus the blowup correspondence.

    ``copies[v, c]`` is the [n]^7 vertex index of copy c of reduced vertex v,
    which is vertex v*n^2 + c of ``blowup(graph, n*n)``: v is the restriction
    to the subcube's five fixed positions, and c enumerates the two free
    positions, both mixed-radix in increasing position order.
    """

    graph: Graph
    copies: np.ndarray


def reduced_graph(n: int, part: Subcube) -> ReducedPiece:
    """Collapse a piece's two free coordinates: the piece is the n^2-blowup of this graph.

    Reduced points are adjacent iff they differ at exactly the fixed
    positions carrying 1 and agree at the fixed positions carrying 0.
    ``copies`` is the [n]^7 index grid with its axes in the blowup's digit
    order (fixed positions, then free ones), a row per reduced vertex.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(part.fixed) != 5:
        raise ValueError(f"expected exactly 5 fixed coordinates, got {len(part.fixed)}")
    if not any(b for _, b in part.fixed):
        raise ValueError("all fixed values are 0; the reduced graph would have loops")
    reduced_rule = [(i + 1, b) for i, (_, b) in enumerate(part.fixed)]
    graph = Graph._trusted(_subcube_rows(n, 5, reduced_rule))
    digits = [p - 1 for p, _ in part.fixed] + [p - 1 for p in part.free_positions]
    grid = np.arange(n**7, dtype=np.int32).reshape((n,) * 7)
    return ReducedPiece(graph, np.moveaxis(grid, digits, range(7)).reshape(n**5, n * n))


def _lift(
    order: int, lifts: Sequence[tuple[np.ndarray, BicliqueSystem]], t: int
) -> BicliqueSystem:
    """Lift (table, system) pairs into one system on ``order`` vertices:
    vertex v of a system becomes row v of its int32 table.

    One ``take`` per system gathers its vertices into its slice of one int32
    array.  Mode "clip" never clips, as a table has a row per host vertex,
    and writes ``out`` unbuffered, unlike the default.  The bounds grow by
    the table's width; the new system sorts the sides that come out unsorted.
    """
    starts = np.cumsum([0] + [table.shape[1] * len(system.vertices) for table, system in lifts])
    vertices = np.empty(starts[-1], dtype=np.int32)
    bounds = [[0]]
    for (table, system), lo, hi in zip(lifts, starts, starts[1:]):
        out = vertices[lo:hi].reshape(-1, table.shape[1])
        table.take(system.vertices, axis=0, out=out, mode="clip")
        bounds.append(system.bounds[1:] * table.shape[1] + lo)
    return BicliqueSystem.from_arrays(order, np.concatenate(bounds), vertices, t)


def grid_graph_partition(
    n: int, *, vertex_limit: int = DEFAULT_VERTEX_LIMIT
) -> BicliqueSystem:
    """An explicit biclique partition of the grid graph of size at most 30*(n^5 - 1).

    Each of the 30 pieces is star-partitioned in its reduced form and every
    star is lifted through the piece's copy table; blowing up a biclique
    keeps it a biclique, and the pieces are edge-disjoint, so the union is
    an exact partition.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_vertex_limit(n ** 7, vertex_limit)
    pieces = (reduced_graph(n, piece) for piece in decompose_admissible_set())
    return _lift(n**7, [(r.copies, star_partition(r.graph)) for r in pieces], 1)


def power_graph_cover(n: int, t: int) -> tuple[Graph, BicliqueSystem]:
    """The t-th OR power of the grid graph together with an explicit t-cover.

    Every biclique of the base partition is lifted through each of the t
    coordinates (all other coordinates free); a power edge is covered once
    per coordinate where its endpoints are adjacent, hence between 1 and t
    times.  Cover size is at most t times the base partition size.

    Coordinate c's copy table is the power's (|G|,) * t index grid with
    axis c moved first: row v holds the vertices whose coordinate c is v.

    n^(7t) >= 2^(7t(b - 1)) for n of b bits; past ``POWER_VERTEX_LIMIT`` by
    that bound alone, the power is not formed; the error names the limit + 1.
    """
    n, t = operator.index(n), operator.index(t)
    if n < 1 or t < 1:
        raise ValueError("n and t must be >= 1")
    if 7 * t * (n.bit_length() - 1) > POWER_VERTEX_LIMIT.bit_length():
        raise ResourceLimitError("power_vertex_limit", POWER_VERTEX_LIMIT, POWER_VERTEX_LIMIT + 1)
    if n ** (7 * t) > POWER_VERTEX_LIMIT:
        raise ResourceLimitError("power_vertex_limit", POWER_VERTEX_LIMIT, n ** (7 * t))
    base_graph = grid_graph(n, vertex_limit=POWER_VERTEX_LIMIT)
    parts = grid_graph_partition(n, vertex_limit=POWER_VERTEX_LIMIT)
    if not len(parts):  # n = 1: the power is one vertex, and no part lifts
        return base_graph, BicliqueSystem(1, (), t)
    power = base_graph
    for _ in range(t - 1):
        power = or_product(power, base_graph)
    base = base_graph.order
    grid = np.arange(power.order, dtype=np.int32).reshape((base,) * t)
    lifts = [(np.moveaxis(grid, c, 0).reshape(base, -1), parts) for c in range(t)]
    return power, _lift(power.order, lifts, t)


def projection_dichotomy(points: Iterable[Sequence[int]]) -> bool:
    """Structural property of independent sets in the grid graph.

    Either all points share one restriction to the first four coordinates,
    or any two distinct restrictions disagree in all four of them.
    """
    heads = {tuple(p[:4]) for p in points}
    return all(sum(map(operator.ne, h1, h2)) == 4 for h1, h2 in combinations(heads, 2))
