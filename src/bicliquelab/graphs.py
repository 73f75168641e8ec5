"""Finite simple graphs, bicliques, biclique systems, and exact verification.

Vertices are dense integer indices 0..N-1.  A graph is stored as packed
adjacency rows (see :class:`Graph`).  Every construction documents its
canonical index map so that identities between graphs built by different
routes can be tested by comparing packed rows directly, with no
isomorphism search.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Any

import numpy as np

from .errors import PartError, ResourceLimitError
from .packed import count_pairs, first_bad_pair, mask_of, masks_from_rows, pack_rows
from .packed import rows_from_masks, set_bits, unpack_rows, zero_rows

_BAND_BYTES = 1 << 18  # rows per band: about this many bytes per bit plane or bool band
_MASK_BYTES = 1 << 24  # parts per chunk: about this many bytes of side masks


class Graph:
    """Immutable simple graph stored as packed adjacency rows.

    Row v is a packed row (:mod:`bicliquelab.packed` holds the layout) with
    bit u set iff u and v are adjacent: n*n/8 bytes, an eighth of a bool
    matrix.  ``adjacency`` unpacks a bool copy on each call.
    """

    __slots__ = ("_rows",)

    def __init__(self, adjacency: np.ndarray):
        adj = np.asarray(adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        if adj.size and bool(np.diagonal(adj).any()):
            raise ValueError("adjacency has a loop (nonzero diagonal)")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency is not symmetric")
        self._rows = _frozen(pack_rows(adj))

    @classmethod
    def _trusted(cls, rows: np.ndarray) -> "Graph":
        """Wrap packed rows known to be symmetric, irreflexive and zero-padded (skips checks)."""
        g = cls.__new__(cls)
        g._rows = _frozen(rows)
        return g

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls._trusted(zero_rows(n, n))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls.empty(n).complement()

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]]) -> "Graph":
        """Set each edge's two bits in per-row int masks, then lay the masks out as words.

        No dense matrix and no per-edge array is built: the extra memory is
        about the packed size, however many edges there are.
        """
        n = operator.index(n)
        if n < 0:
            raise ValueError(f"order {n} is negative")
        masks = [0] * n
        for u, v in edges:
            u, v = operator.index(u), operator.index(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls._trusted(rows_from_masks(masks, n))

    @property
    def order(self) -> int:
        return self._rows.shape[0]

    @property
    def rows(self) -> np.ndarray:
        """Read-only packed adjacency rows, shape (n, ceil(n / 64))."""
        return self._rows

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only bool adjacency matrix, unpacked from the rows on each call."""
        return _frozen(unpack_rows(self._rows, self.order))

    def edge_count(self) -> int:
        return int(np.bitwise_count(self._rows).sum()) // 2

    def _check_vertices(self, vertices: Sequence[int]) -> np.ndarray:
        """The vertices as an intp array: one check for all, before any cast."""
        vs = np.asarray(vertices)
        if vs.size and vs.dtype.kind not in "iu":  # a float or bool would be cast, not refused
            raise TypeError(f"vertices must be integers, not {vs.dtype}")
        outside = vs[(vs < 0) | (vs >= self.order)]
        if outside.size:
            raise IndexError(f"vertex {outside[0]} out of range for order {self.order}")
        return vs.astype(np.intp)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in row-major order."""
        for u, v in self._upper_pairs():
            for lo in range(0, len(u), 4096):  # a few Python ints at a time
                yield from zip(u[lo : lo + 4096].tolist(), v[lo : lo + 4096].tolist())

    def _upper_pairs(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Edges (u, v) with u < v as two index arrays, one band of unpacked rows
        at a time, in row-major order."""
        n = self.order
        band = max(1, _BAND_BYTES // max(n, 1))
        for lo in range(0, n, band):
            block = unpack_rows(self._rows[lo : lo + band], n)
            block &= np.arange(n) > np.arange(lo, lo + len(block))[:, None]  # above the diagonal
            u, v = np.divmod(np.flatnonzero(block), n)
            yield u + lo, v

    def complement(self) -> "Graph":
        rows, v = self._rows.copy(), np.arange(self.order)
        set_bits(rows, v, v)  # the diagonal, clear here, is clear once inverted
        rows ^= pack_rows(np.ones((1, self.order), dtype=bool))  # inverts every bit but the padding
        return Graph._trusted(rows)

    def induced(self, vertices: Sequence[int]) -> "Graph":
        vs = self._check_vertices(vertices)
        return Graph._trusted(pack_rows(unpack_rows(self._rows[vs], self.order)[:, vs]))

    def neighbor_masks(self) -> list[int]:
        """Per-vertex neighbor sets packed into Python int bitmasks (bit v = vertex v)."""
        return masks_from_rows(self._rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.order == other.order
            and np.array_equal(self._rows, other._rows)
        )

    __hash__ = None  # mutable-size payload; not intended as a dict key

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={self.edge_count()})"


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class Biclique:
    """A complete bipartite subgraph with ordered parts (left, right).

    Parts are stored as sorted tuples; both must be nonempty and disjoint.
    The side order is meaningful (characteristic vectors distinguish it).
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        left = tuple(sorted(map(operator.index, self.left)))
        right = tuple(sorted(map(operator.index, self.right)))
        error = _biclique_error(left, right)
        if error is not None:
            raise ValueError(error)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @classmethod
    def _trusted(cls, left: tuple[int, ...], right: tuple[int, ...]) -> "Biclique":
        """Wrap sides known to be sorted, nonempty and disjoint (skips the checks)."""
        b = cls.__new__(cls)
        object.__setattr__(b, "left", left)
        object.__setattr__(b, "right", right)
        return b

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in self.left:
            for w in self.right:
                yield (u, w) if u < w else (w, u)


def _biclique_error(left: tuple[int, ...], right: tuple[int, ...]) -> str | None:
    """Why the sorted sides (left, right) do not form a biclique, or None if they do."""
    if not left or not right:
        return "biclique sides must be nonempty"
    if len(set(left)) != len(left) or len(set(right)) != len(right):
        return "biclique sides must not repeat vertices"
    if set(left) & set(right):
        return f"biclique sides overlap: {set(left) & set(right)}"
    if min(left[0], right[0]) < 0:
        return "negative vertex index"
    if max(left[-1], right[-1]) > MAX_ORDER:
        return f"vertex {max(left[-1], right[-1])} out of int32 range"
    return None


MAX_ORDER = int(np.iinfo(np.int32).max)  # vertices are stored as int32
DEFAULT_VERTEX_LIMIT = 10_000
_CHECK_ENTRIES = 1 << 17  # about this many vertices, and at most this many parts, per check chunk


def check_vertex_limit(count: int, limit: int) -> None:
    if count > min(limit, MAX_ORDER):  # past MAX_ORDER, int32 vertex arrays overflow
        raise ResourceLimitError("vertex_limit", min(limit, MAX_ORDER), count)


class BicliqueSystem:
    """A list of bicliques over a common host vertex range, with a multiplicity bound.

    ``multiplicity_bound`` t = 1 declares an intended exact edge partition;
    t > 1 declares a cover touching each edge at most t times.  Validity
    against a concrete graph is established by :func:`verify_biclique_system`.

    There is no object per part.  ``vertices`` is one read-only int32 array
    holding part 0's left side, its right side, then part 1's sides and so
    on, each side sorted; the read-only int64 ``bounds`` array, of length
    2 * parts + 1, holds where each side starts and then where the last
    ends, so part i is ``vertices[bounds[2i]:bounds[2i+1]]`` on the left
    and ``vertices[bounds[2i+1]:bounds[2i+2]]`` on the right.  The system
    is a read-only sequence of its parts: ``system[i]`` builds part i as a
    :class:`Biclique`.

    ``BicliqueSystem(host_order, bicliques, t)`` flattens a sequence of
    bicliques; producers hand over arrays with :meth:`from_arrays`.
    """

    __slots__ = ("host_order", "multiplicity_bound", "bounds", "vertices")

    def __init__(
        self, host_order: int, parts: Sequence[Biclique] = (), multiplicity_bound: int = 1
    ):
        sides = [side for b in parts for side in (b.left, b.right)]
        bounds = np.fromiter(
            accumulate(map(len, sides), initial=0), dtype=np.int64, count=len(sides) + 1
        )
        vertices = np.fromiter(chain.from_iterable(sides), dtype=np.int32, count=int(bounds[-1]))
        # each Biclique has checked and sorted its sides already
        self._store(host_order, bounds, vertices, multiplicity_bound)

    @classmethod
    def from_arrays(
        cls, host_order: int, bounds: np.ndarray, vertices: np.ndarray, multiplicity_bound: int = 1
    ) -> "BicliqueSystem":
        """A system from its arrays, laid out as the class describes; sides may be unsorted.

        The system takes ``vertices`` over when it is a writable int32 array:
        its sides are sorted in place and it is made read-only, with no copy.
        Any other integer array is copied as int32 and never written, once no
        vertex is past the int32 range (``ValueError`` names one).  Each part is
        checked as :class:`Biclique` checks its sides, and the lowest bad part
        raises :class:`PartError` with Biclique's message and the part's index.
        """
        # an empty list reads as float64, so an array with no entries is taken as int64
        bounds, vertices = (
            a if a.size else a.astype(np.int64) for a in (np.asarray(bounds), np.asarray(vertices))
        )
        if bounds.dtype.kind not in "iu":
            raise ValueError("bounds must be an integer array")
        if vertices.ndim != 1 or vertices.dtype.kind not in "iu":
            raise ValueError("vertices must be a one-dimensional integer array")
        bounds = np.ascontiguousarray(bounds, dtype=np.int64)
        if (
            bounds.ndim != 1
            or len(bounds) % 2 == 0
            or bounds[0] != 0
            or bounds[-1] != len(vertices)
            or (np.diff(bounds) < 0).any()
        ):
            raise ValueError("bounds must rise from 0 to len(vertices) in 2 * parts steps")
        if vertices.dtype != np.int32 or not vertices.flags.writeable:
            outside = vertices[(vertices < -MAX_ORDER - 1) | (vertices > MAX_ORDER)]
            if outside.size:
                raise ValueError(f"vertex {outside[0]} out of int32 range")
            vertices = vertices.astype(np.int32)
        bad = _first_bad_part(bounds, vertices)
        if bad is not None:
            raise PartError(bad[1], bad[0])
        system = cls.__new__(cls)
        system._store(host_order, bounds, vertices, multiplicity_bound)
        return system

    def _store(self, host_order, bounds, vertices, multiplicity_bound) -> None:
        """Check the host order, the bound and the vertex range; then keep the
        arrays, whose parts are valid bicliques with sorted sides."""
        host_order, bound = operator.index(host_order), operator.index(multiplicity_bound)
        if host_order < 0:
            raise ValueError(f"negative host order {host_order}")
        if bound < 1:
            raise ValueError("multiplicity bound must be >= 1")
        check_vertex_limit(host_order, MAX_ORDER)
        if (vertices >= host_order).any():
            # each side's last vertex is its largest
            tops = vertices[bounds[1:] - 1].reshape(-1, 2).max(axis=1)
            i = int(np.argmax(tops >= host_order))
            raise ValueError(
                f"part {i + 1} uses vertex {int(tops[i])} outside host order {host_order}"
            )
        object.__setattr__(self, "host_order", host_order)
        object.__setattr__(self, "multiplicity_bound", bound)
        object.__setattr__(self, "bounds", _frozen(bounds))
        object.__setattr__(self, "vertices", _frozen(vertices))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"BicliqueSystem is immutable: cannot set {name!r}")

    def __len__(self) -> int:
        return len(self.bounds) // 2

    def __getitem__(self, i: int) -> Biclique:
        """Part ``i`` (an int; negative counts from the end) as a :class:`Biclique`."""
        i = range(len(self))[operator.index(i)]
        start, split, end = self.bounds[2 * i : 2 * i + 3].tolist()
        return Biclique._trusted(
            tuple(self.vertices[start:split].tolist()), tuple(self.vertices[split:end].tolist())
        )

    def __iter__(self) -> Iterator[Biclique]:
        return map(self.__getitem__, range(len(self)))

    @property
    def parts(self) -> "BicliqueSystem":
        """The system itself, which is the sequence of its parts."""
        return self

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BicliqueSystem)
            and self.host_order == other.host_order
            and self.multiplicity_bound == other.multiplicity_bound
            and np.array_equal(self.bounds, other.bounds)
            and np.array_equal(self.vertices, other.vertices)
        )

    __hash__ = None  # array payload; not intended as a dict key

    def __repr__(self) -> str:
        return (
            f"BicliqueSystem(host_order={self.host_order}, parts={len(self)}, "
            f"multiplicity_bound={self.multiplicity_bound})"
        )


def _first_bad_part(bounds: np.ndarray, vertices: np.ndarray) -> tuple[int, str] | None:
    """Sort every side in place, then find the lowest part that is not a biclique.

    Returns that part's index with :func:`_biclique_error`'s message for it,
    or None.  Parts are taken in chunks of about ``_CHECK_ENTRIES`` vertices
    and at most ``_CHECK_ENTRIES`` parts, so the scratch memory is bounded.
    In a chunk, each vertex gets the key side * span + (vertex - lowest),
    below 2**50 as int32 vertices span less than 2**32; one sort of the keys
    sorts every side, equal neighbouring keys are repeats, and a right-side
    key less ``span`` that is also a left-side key is a vertex on both sides
    of its part.
    """
    ends = bounds[2::2]
    lo = 0
    while lo < len(ends):
        hi = max(lo + 1, int(np.searchsorted(ends, bounds[2 * lo] + _CHECK_ENTRIES, "right")))
        hi = min(hi, lo + _CHECK_ENTRIES)
        chunk = bounds[2 * lo : 2 * hi + 1] - bounds[2 * lo]
        values = vertices[bounds[2 * lo] : bounds[2 * hi]]
        sizes = np.diff(chunk)
        bad = (sizes[0::2] == 0) | (sizes[1::2] == 0)
        if values.size:
            low = int(values.min())
            span = int(values.max()) - low + 1
            key_type = np.int32 if len(sizes) * span < 1 << 31 else np.int64
            side = np.repeat(np.arange(len(sizes), dtype=key_type), sizes)
            base = side * key_type(span)
            x = np.subtract(values, low, dtype=np.int64).astype(key_type)
            key = base + x
            if (key[1:] < key[:-1]).any():
                key.sort()
                x = key - base
                values[:] = np.add(x, low, dtype=np.int64)
            bad[side[1:][key[1:] == key[:-1]] >> 1] = True
            right = (side & 1).astype(bool)
            # part p's keys are 2p * span + x on the left and, less span, on the
            # right; look the fewer up among the more
            few, many = sorted((key[~right], key[right] - key_type(span)), key=len)
            if few.size:
                at = np.minimum(np.searchsorted(many, few), many.size - 1)
                bad[few[many[at] == few] // (2 * span)] = True
            if low < 0:
                bad[side[values < 0] >> 1] = True
        if bad.any():
            i = int(np.argmax(bad))
            start, split, end = chunk[2 * i : 2 * i + 3].tolist()
            left, right = values[start:split].tolist(), values[split:end].tolist()
            return lo + i, _biclique_error(tuple(left), tuple(right))
        lo = hi
    return None


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record of one verified claim.

    ``witness`` holds a structured counterexample on failure, or an achieved
    value (e.g. an observed maximum) on success.  All payloads are plain
    JSON-serializable structures so certificates round-trip byte-stably.
    """

    claim: str
    parameters: dict[str, Any] = field(default_factory=dict)
    verdict: bool = False
    witness: Any = None

    def __post_init__(self):
        if not self.verdict and self.witness is None:
            raise ValueError("failing certificate requires a witness")


def verify_biclique_system(graph: Graph, system: BicliqueSystem) -> Certificate:
    """Check that ``system`` is a valid t-cover of ``graph``'s edges.

    Passes iff (i) each part's cross pairs are all edges of the graph,
    (ii) every edge is covered between 1 and t times, and (iii) no
    non-edge pair is covered.  Verdict is independent of part order.

    Witness order: if some part is not a biclique, the witness is the
    lowest-numbered such part with the first non-edge of its sorted
    left-by-right block.  Otherwise it is the first pair, in row-major
    order, covered 0 or more than t times, with its exact multiplicity.
    On a pass ``max_multiplicity`` is exact.

    :func:`bicliquelab.packed.count_pairs` counts the pairs and compares
    them with the graph's rows, in bands of about ``_BAND_BYTES`` per bit
    plane, from chunks of parts of about ``_MASK_BYTES`` of masks.  It reads
    each count exactly up to the first power of two at or above t, and
    lower past it.  Each pair is counted once, in its lower vertex's row,
    so the counts above the diagonal sum to the parts' sum of |L| * |R|:
    the read counts sum to it iff every one is exact, and then the verdict,
    the witness and ``max_multiplicity`` come from that one pass.  If the
    sum falls short, some pair passes that power of two and so passes t,
    and :func:`bicliquelab.packed.first_bad_pair` recounts with a sticky
    overflow plane to name the first bad pair.

    A part is a biclique iff it covers no non-edge, so (i) is settled from
    the counters, and the part witness is searched only when some non-edge
    is covered.
    """
    if system.host_order != graph.order:
        raise ValueError(
            f"system host order {system.host_order} != graph order {graph.order}"
        )
    params = {
        "host_order": graph.order,
        "parts": len(system),
        "multiplicity_bound": system.multiplicity_bound,
    }

    first_bad = None
    max_mult = counted = 0
    args = (graph.rows, system.bounds, system.vertices, system.multiplicity_bound, _BAND_BYTES,
            _MASK_BYTES)
    for stray, bad, high, total in count_pairs(*args):
        if stray:
            return _non_biclique_part(graph, system, params)
        first_bad = first_bad or bad
        max_mult = max(max_mult, high)
        counted += total
    sides = system.bounds[1:] - system.bounds[:-1]  # |L| * |R| < 2**62: int32 vertices
    if counted != sum((sides[0::2] * sides[1::2]).tolist()):  # some count was read low
        first_bad = first_bad_pair(*args)

    if first_bad is not None:
        u, v = first_bad
        # the sides holding u and v; u is on one side of a part and v on the
        # other iff side s holds u and side s ^ 1 holds v
        sides_u, sides_v = (
            np.searchsorted(system.bounds, np.flatnonzero(system.vertices == x), "right") - 1
            for x in (u, v)
        )
        return Certificate(
            claim="biclique-system",
            parameters=params,
            verdict=False,
            witness={
                "kind": "bad-multiplicity",
                "pair": [u, v],
                "multiplicity": len(set((sides_u ^ 1).tolist()) & set(sides_v.tolist())),
                "is_edge": True,  # only edges are bad pairs: a covered non-edge returned above
            },
        )
    return Certificate(
        claim="biclique-system",
        parameters=params,
        verdict=True,
        witness={"max_multiplicity": max_mult},
    )


def _non_biclique_part(graph: Graph, system: BicliqueSystem, params: dict) -> Certificate:
    """Fail on the lowest-numbered part whose block holds a non-edge.

    A part's block misses an edge iff some left row lacks a bit of the
    right side's mask; only the rows of the offending part are unpacked.
    """
    for i in range(len(system)):
        b = system[i]
        mask = rows_from_masks([mask_of(b.right)], graph.order)[0]
        rows = graph.rows[list(b.left)]
        missing = (mask & ~rows).any(axis=1)
        if missing.any():
            r = int(np.flatnonzero(missing)[0])
            c = int(np.flatnonzero(~unpack_rows(rows[r], graph.order)[list(b.right)])[0])
            return Certificate(
                claim="biclique-system",
                parameters=params,
                verdict=False,
                witness={
                    "kind": "part-not-biclique",
                    "part": i + 1,
                    "pair": [int(b.left[r]), int(b.right[c])],
                },
            )
    raise AssertionError("a covered non-edge implies a part that is not a biclique")


def star_partition(graph: Graph) -> BicliqueSystem:
    """Partition the edges into at most N-1 stars.

    Vertices are processed in increasing index order; part i is the star
    from vertex i to its higher-indexed neighbors, when that set is
    nonempty.  Always a valid exact partition.
    """
    centers, later = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for u, v in graph._upper_pairs():
        centers.append(u)
        later.append(v)
    degree = np.bincount(np.concatenate(centers), minlength=graph.order)
    stars = np.flatnonzero(degree)
    # each star's center goes right before its later neighbours, which are
    # already sorted and grouped by center
    vertices = np.insert(np.concatenate(later), (degree.cumsum() - degree)[stars], stars)
    # star i is [center] then its degree[stars[i]] later neighbours
    bounds = np.zeros(2 * len(stars) + 1, dtype=np.int64)
    bounds[1::2] = 1
    bounds[2::2] = degree[stars]
    return BicliqueSystem.from_arrays(graph.order, bounds.cumsum(), vertices.astype(np.int32), 1)


def blowup(graph: Graph, m: int) -> Graph:
    """Replace each vertex by m independent copies; copy (v,a) gets index v*m + a.

    Copies of u and v are adjacent iff u != v are adjacent in the source.
    """
    m = operator.index(m)
    if m < 1:
        raise ValueError("blowup factor must be >= 1")
    return or_product(graph, Graph.empty(m))  # same index map; the factor adds no edge


def or_product(g: Graph, h: Graph) -> Graph:
    """OR product: (a,b) ~ (a',b') iff a ~ a' in g or b ~ b' in h.

    Vertex (a, b) gets index a*|h| + b, and its row is row a of g, each
    bit repeated |h| times, ORed with row b of h tiled |g| times: one
    broadcast OR per band of about ``_BAND_BYTES`` of g's rows unpacked.
    """
    size = g.order * h.order
    rows = zero_rows(g.order, h.order, size)
    tiled = pack_rows(np.tile(h.adjacency, g.order))
    band = max(1, _BAND_BYTES // max(size, 1))
    for lo in range(0, g.order, band):
        wide = pack_rows(np.repeat(unpack_rows(g.rows[lo : lo + band], g.order), h.order, axis=1))
        np.bitwise_or(wide[:, None], tiled[None], out=rows[lo : lo + band])
    return Graph._trusted(rows.reshape(size, rows.shape[2]))
