"""Finite simple graphs, bicliques, biclique systems, and exact verification.

Vertices are dense integer indices 0..N-1.  A graph is stored as packed
adjacency rows (see :class:`Graph`).  Every construction documents its
canonical index map so that identities between graphs built by different
routes can be tested by comparing packed rows directly, with no
isomorphism search.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterator, Sequence

import numpy as np

# Packed rows are little-endian uint64 words: bit v of a row is bit v % 64 of
# word v // 64, the layout np.packbits(..., bitorder="little") gives.  Bits
# past the last vertex are always zero, so rows compare and count directly.
_WORD = np.dtype("<u8")
_BAND_BYTES = 1 << 19  # rows per band: about this many bytes per bit plane or bool band
_MASK_BYTES = 1 << 24  # parts per chunk: about this many bytes of side masks
_BITS = np.left_shift(np.uint64(1), np.arange(64, dtype=_WORD), dtype=_WORD)  # word with bit i set


def pack_rows(dense: np.ndarray) -> np.ndarray:
    """Bool rows of length n packed into ``ceil(n / 64)`` little-endian uint64 words each."""
    count, n = dense.shape
    packed = np.zeros((count, (n + 63) // 64), dtype=_WORD)
    packed.view(np.uint8)[:, : (n + 7) // 8] = np.packbits(dense, axis=1, bitorder="little")
    return packed


def _unpack_rows(packed: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` bits of each packed row, as bool rows (inverse of :func:`pack_rows`)."""
    return np.unpackbits(packed.view(np.uint8), axis=-1, count=n, bitorder="little").view(bool)


class Graph:
    """Immutable simple graph stored as packed adjacency rows.

    Row v holds ``ceil(n / 64)`` little-endian uint64 words; bit u of the
    row (bit u % 64 of word u // 64) is set iff u and v are adjacent, and
    the padding bits past n are zero.  That is n*n/8 bytes, an eighth of a
    bool matrix.  ``adjacency`` unpacks a bool copy on each call.
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
        return cls._trusted(np.zeros((n, (n + 63) // 64), dtype=_WORD))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls.empty(n).complement()

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]]) -> "Graph":
        """Set each edge's two bits in per-row int masks, then lay the masks out as words.

        No dense matrix and no per-edge array is built: the extra memory is
        about the packed size, however many edges there are.
        """
        masks = [0] * n
        for u, v in edges:
            u, v = operator.index(u), operator.index(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        width = 8 * ((n + 63) // 64)
        packed = b"".join(mask.to_bytes(width, "little") for mask in masks)
        return cls._trusted(np.frombuffer(packed, dtype=_WORD).reshape(n, width // 8))

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
        return _frozen(_unpack_rows(self._rows, self.order))

    def edge_count(self) -> int:
        return int(np.bitwise_count(self._rows).sum()) // 2

    def has_edge(self, u: int, v: int) -> bool:
        if not 0 <= v < self.order:
            raise IndexError(f"vertex {v} out of range for order {self.order}")
        return bool(int(self._rows[u, v >> 6]) >> (v & 63) & 1)

    def degree(self, v: int) -> int:
        return int(np.bitwise_count(self._rows[v]).sum())

    def neighbors(self, v: int) -> list[int]:
        return np.flatnonzero(_unpack_rows(self._rows[v], self.order)).tolist()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in row-major order."""
        for lo, block in self._upper_bands():
            for u, v in zip(*np.nonzero(block)):
                yield lo + int(u), int(v)

    def _upper_bands(self) -> Iterator[tuple[int, np.ndarray]]:
        """Bands of unpacked rows from ``lo`` on, keeping only columns above the diagonal."""
        n = self.order
        band = max(1, _BAND_BYTES // max(n, 1))
        for lo in range(0, n, band):
            yield lo, np.triu(_unpack_rows(self._rows[lo : lo + band], n), lo + 1)

    def complement(self) -> "Graph":
        n = self.order
        rows = ~self._rows
        if n % 64:
            rows[:, -1] &= _BITS[n % 64] - np.uint64(1)
        # the diagonal bits of rows 64k..64k+63 sit in word k, one row apart
        flat, words = rows.reshape(-1), rows.shape[1]
        for k in range(words):
            diagonal = flat[k * (64 * words + 1) :: words][: min(64, n - 64 * k)]
            diagonal &= ~_BITS[: len(diagonal)]
        return Graph._trusted(rows)

    def induced(self, vertices: Sequence[int]) -> "Graph":
        vs = np.array(vertices, dtype=np.int64)
        return Graph._trusted(pack_rows(_unpack_rows(self._rows[vs], self.order)[:, vs]))

    def neighbor_masks(self) -> list[int]:
        """Per-vertex neighbor sets packed into Python int bitmasks (bit v = vertex v)."""
        data, width = self._rows.tobytes(), 8 * self._rows.shape[1]
        return [
            int.from_bytes(data[v * width : (v + 1) * width], "little") for v in range(self.order)
        ]

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
        left = tuple(sorted(self.left))
        right = tuple(sorted(self.right))
        if not left or not right:
            raise ValueError("biclique sides must be nonempty")
        if len(set(left)) != len(left) or len(set(right)) != len(right):
            raise ValueError("biclique sides must not repeat vertices")
        if set(left) & set(right):
            raise ValueError(f"biclique sides overlap: {set(left) & set(right)}")
        if min(left[0], right[0]) < 0:
            raise ValueError("negative vertex index")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def edge_count(self) -> int:
        return len(self.left) * len(self.right)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in self.left:
            for w in self.right:
                yield (u, w) if u < w else (w, u)


@dataclass(frozen=True)
class BicliqueSystem:
    """A list of bicliques over a common host vertex range, with a multiplicity bound.

    ``multiplicity_bound`` t = 1 declares an intended exact edge partition;
    t > 1 declares a cover touching each edge at most t times.  Validity
    against a concrete graph is established by :func:`verify_biclique_system`.
    """

    host_order: int
    parts: tuple[Biclique, ...]
    multiplicity_bound: int = 1

    def __post_init__(self):
        if self.host_order < 0:
            raise ValueError(f"negative host order {self.host_order}")
        if self.multiplicity_bound < 1:
            raise ValueError("multiplicity bound must be >= 1")
        parts = tuple(self.parts)
        for i, b in enumerate(parts):
            top = max(b.left[-1], b.right[-1])
            if top >= self.host_order:
                raise ValueError(
                    f"part {i + 1} uses vertex {top} outside host order {self.host_order}"
                )
        object.__setattr__(self, "parts", parts)

    def __len__(self) -> int:
        return len(self.parts)


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

    Each vertex row of the pair-count matrix is a bit-sliced counter over
    packed rows: ``min(t, parts).bit_length()`` bit planes plus a sticky
    overflow plane.  Counts start at a bias chosen so that a count carries
    into the overflow exactly when it passes t, and the planes hold every
    count up to t exactly.  A part adds the mask of its right side to the
    row of each left vertex, and vice versa.  Counts are symmetric, so a
    band of rows starting at vertex ``lo`` keeps only the columns from word
    ``lo // 64`` on, which halves memory and work: every unordered pair,
    and the first bad pair in row-major order (whose row is below its
    column), is still seen.  Masks are built for a bounded chunk of parts
    at a time, so the extra memory is about (planes + 1) * n*n/16 bytes,
    a few bounded buffers, and index arrays linear in the vertex-part
    incidences; there is no per-pair count array.  A part is a biclique
    iff it covers no non-edge, so (i) is settled from the counters, and
    the part witness is searched only when some non-edge is covered.
    """
    if system.host_order != graph.order:
        raise ValueError(
            f"system host order {system.host_order} != graph order {graph.order}"
        )
    n = graph.order
    params = {
        "host_order": n,
        "parts": len(system.parts),
        "multiplicity_bound": system.multiplicity_bound,
    }

    words = (n + 63) // 64
    # no pair is covered more often than there are parts, so a bound above
    # the part count acts as that count and needs no more planes
    t = min(system.multiplicity_bound, len(system.parts))
    digits = t.bit_length()
    bias = (1 << digits) - 1 - t  # bias + t + 1 == 2**digits
    # plane k starts as bit k of the bias in every position: all ones or zeros
    fill = np.array([-(bias >> k & 1) for k in range(digits)] + [0]).astype(_WORD)
    band = max(1, _BAND_BYTES // (8 * max(words, 1)))
    # one counter per band of rows, holding the columns from the band's
    # first row on (see above); the last plane is the overflow
    counters = []
    for lo in range(0, n, band):
        counter = np.empty((digits + 1, min(band, n - lo), words - lo // 64), dtype=_WORD)
        counter[...] = fill[:, None, None]
        counters.append(counter)
    chunk = max(1, _MASK_BYTES // (16 * max(words, 1)))
    for lo in range(0, len(system.parts), chunk):
        _count_chunk(counters, system.parts[lo : lo + chunk], band)

    first_bad = None
    max_mult = 0
    for lo, counter in zip(range(0, n, band), counters):
        first = lo // 64
        row = graph.rows[lo : lo + band, first:]
        planes, over = counter[:-1], counter[-1]
        covered = over.copy()  # count > 0: planes no longer hold the bias
        for k, plane in enumerate(planes):
            covered |= ~plane if bias >> k & 1 else plane
        if (covered & ~row).any():
            return _non_biclique_part(graph, system.parts, params)
        bad = row & (over | ~covered)
        if first_bad is None and bad.any():
            r = int(np.flatnonzero(bad.any(axis=1))[0])
            v = int(np.flatnonzero(np.unpackbits(bad[r].view(np.uint8), bitorder="little"))[0])
            first_bad = (lo + r, 64 * first + v)
        max_mult = max(max_mult, _plane_max(planes) - bias)

    if first_bad is not None:
        u, v = first_bad
        return Certificate(
            claim="biclique-system",
            parameters=params,
            verdict=False,
            witness={
                "kind": "bad-multiplicity",
                "pair": [u, v],
                "multiplicity": sum(
                    (u in b.left and v in b.right) or (u in b.right and v in b.left)
                    for b in system.parts
                ),
                "is_edge": graph.has_edge(u, v),
            },
        )
    return Certificate(
        claim="biclique-system",
        parameters=params,
        verdict=True,
        witness={"max_multiplicity": max_mult},
    )


def _count_chunk(counters: list[np.ndarray], parts: Sequence[Biclique], band: int) -> None:
    """Add the pair incidences of ``parts`` into the per-band ``counters``."""
    words = counters[0].shape[2]
    sides = [s for b in parts for s in (b.left, b.right)]
    sizes = np.fromiter(map(len, sides), dtype=np.int32, count=len(sides))
    verts = np.fromiter(chain.from_iterable(sides), dtype=np.int32, count=int(sizes.sum()))
    side_of = np.arange(len(sides), dtype=np.int32).repeat(sizes)
    # side 2i is part i's left, 2i+1 its right, and the extra last row is the
    # zero mask; a side's vertices are distinct, so adding bits ORs them
    masks = np.zeros((len(sides) + 1, words), dtype=_WORD)
    np.add.at(
        masks.reshape(-1),
        side_of * np.int64(words) + (verts >> 6),
        np.left_shift(1, (verts & 63).astype(_WORD), dtype=_WORD),
    )
    # every vertex receives the mask of the opposite side of each of its parts
    order = verts.argsort(kind="stable")
    verts, opposite = verts[order], (side_of ^ 1)[order]
    bounds = np.searchsorted(verts, np.arange(0, len(counters) * band + 1, band))
    for i, counter in enumerate(counters):
        lo, hi = bounds[i], bounds[i + 1]
        if lo < hi:
            start = i * band
            _count_band(counter, verts[lo:hi] - start, opposite[lo:hi], masks[:, start // 64 :])


def _count_band(
    counter: np.ndarray, verts: np.ndarray, mask_ids: np.ndarray, masks: np.ndarray
) -> None:
    """Add ``masks[mask_ids[i]]`` into row ``verts[i]`` of ``counter``, for all i.

    ``verts`` is sorted.  Rows are ordered by decreasing incidence count,
    so round j adds the j-th mask of each of the first ``active[j]`` rows,
    a contiguous prefix.  Consecutive rounds are gathered together, up to
    about ``_BAND_BYTES`` of masks, and summed by a halving tree before
    they reach the counter, so a vertex in many parts costs few numpy
    calls.  A gather covers a power of two of rounds, padded to the width
    of its first with the zero mask (the last row of ``masks``); it grows
    only while the padding stays below the real masks plus a small slack,
    so padding at most about doubles the work.
    """
    counts = np.bincount(verts)
    degree = counts[counts.nonzero()[0]]
    rank = np.arange(len(verts)) - (degree.cumsum() - degree).repeat(degree)
    # by round, then by decreasing degree; the sort is stable, so ties keep row order
    order = np.lexsort((-degree.repeat(degree), rank))
    mask_ids = mask_ids[order]
    rows = verts[order[: len(degree)]]
    active = len(degree) - np.bincount(degree).cumsum()[:-1]
    offsets = [0, *active.cumsum().tolist()]

    local = counter[:, rows]
    digits = len(counter) - 1
    per_gather = max(1, _BAND_BYTES // masks[0].nbytes)
    slack = per_gather // 64
    j, rounds = 0, len(active)
    while j < rounds:
        c, k = int(active[j]), 1
        while (
            k < rounds - j
            and 2 * k * c <= per_gather
            and 2 * k * c <= 2 * (offsets[min(j + 2 * k, rounds)] - offsets[j]) + slack
        ):
            k *= 2
        ids = mask_ids[offsets[j] : offsets[min(j + k, rounds)]]
        if len(ids) < k * c:
            padded = np.full((k, c), len(masks) - 1, dtype=ids.dtype)
            padded[: rounds - j][np.arange(c) < active[j : j + k, None]] = ids
            ids = padded
        planes, over = _tree_sum(masks[ids], k, digits)
        carry = _ripple([plane[:c] for plane in local[:-1]], planes, digits)
        for extra in (carry, over):
            if extra is not None:
                local[-1, :c] |= extra
        j += k
    counter[:, rows] = local


def _tree_sum(
    masks: np.ndarray, k: int, digits: int
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Sum ``k`` (a power of two) stacked groups of one-bit rows, bit-sliced.

    Returns at most ``digits`` planes and the sticky overflow (None if none).
    """
    planes = [masks.reshape(k, -1, masks.shape[-1])]
    over = None
    while k > 1:
        k //= 2
        low = [plane[:k] for plane in planes]
        carry = _ripple(low, [plane[k:] for plane in planes], digits)
        if over is not None:
            over = over[:k] | over[k:]
        if carry is not None:
            over = carry if over is None else over | carry
        planes = low
    return [plane[0] for plane in planes], None if over is None else over[0]


def _ripple(a: list[np.ndarray], b: list[np.ndarray], digits: int) -> np.ndarray | None:
    """Add the bit-sliced number ``b`` into ``a`` in place (planes lowest first).

    Needs ``len(a) >= len(b)``.  ``a`` gains a top plane while it has fewer
    than ``digits``; otherwise the carry out of its top plane is returned.
    Returns None when there is no carry out.
    """
    carry = None
    for i, x in enumerate(a):
        y = b[i] if i < len(b) else None
        if y is None and carry is None:
            return None
        if y is None or carry is None:
            z = carry if y is None else y
            carry = x & z
            x ^= z
        else:
            half = x ^ y
            carry_out = (x & y) | (half & carry)
            np.bitwise_xor(half, carry, out=x)
            carry = carry_out
    if carry is not None and len(a) < digits:
        a.append(carry)
        return None
    return carry


def _plane_max(planes: np.ndarray) -> int:
    """Largest value held in the bit-sliced counter ``planes``, overflow aside."""
    value, candidates = 0, None
    for k in reversed(range(len(planes))):
        hit = planes[k] if candidates is None else candidates & planes[k]
        if hit.any():
            value |= 1 << k
            candidates = hit
    return value


def _non_biclique_part(graph: Graph, parts: Sequence[Biclique], params: dict) -> Certificate:
    """Fail on the lowest-numbered part whose block holds a non-edge.

    A part's block misses an edge iff some left row lacks a bit of the
    right side's mask; only the rows of the offending part are unpacked.
    """
    for i, b in enumerate(parts):
        right = np.array(b.right, dtype=np.int64)
        mask = np.zeros(graph.rows.shape[1], dtype=_WORD)
        np.bitwise_or.at(mask, right >> 6, _BITS[right & 63])
        rows = graph.rows[list(b.left)]
        missing = (mask & ~rows).any(axis=1)
        if missing.any():
            r = int(np.flatnonzero(missing)[0])
            c = int(np.flatnonzero(~_unpack_rows(rows[r], graph.order)[right])[0])
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
    parts = []
    for lo, block in graph._upper_bands():
        for r, row in enumerate(block):
            later = np.flatnonzero(row)
            if later.size:
                parts.append(Biclique((lo + r,), tuple(later.tolist())))
    return BicliqueSystem(graph.order, tuple(parts), 1)


def blowup(graph: Graph, m: int) -> Graph:
    """Replace each vertex by m independent copies; copy (v,a) gets index v*m + a.

    Copies of u and v are adjacent iff u != v are adjacent in the source.
    """
    if m < 1:
        raise ValueError("blowup factor must be >= 1")
    wide = np.repeat(graph.adjacency, m, axis=1)
    return Graph._trusted(np.repeat(pack_rows(wide), m, axis=0))


def or_product(g: Graph, h: Graph) -> Graph:
    """OR product: (a,b) ~ (a',b') iff a ~ a' in g or b ~ b' in h.

    Vertex (a, b) gets index a*|h| + b.  The rows of the vertices (a, *)
    form one band, built from row a of g and all of h and packed at once,
    so no n×n bool array is ever held.
    """
    size = g.order * h.order
    rows = np.empty((size, (size + 63) // 64), dtype=_WORD)
    hadj = h.adjacency
    for a in range(g.order):
        band = _unpack_rows(g.rows[a], g.order)[None, :, None] | hadj[:, None, :]
        rows[a * h.order : (a + 1) * h.order] = pack_rows(band.reshape(h.order, size))
    return Graph._trusted(rows)
