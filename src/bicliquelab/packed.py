"""Every bit-level form of vertex sets, and the bit-sliced pair counter that verifies covers.

Packed rows are little-endian uint64 words: bit v of a row is bit v % 64 of
word v // 64, the layout np.packbits(..., bitorder="little") gives.  Bits
past the last vertex are always zero, so rows compare and count directly.
Graphs store their adjacency this way (see :class:`bicliquelab.graphs.Graph`).
Only this module sizes rows (:func:`zero_rows`) and sets bits (:func:`set_bits`).
Vertex masks are Python ints with bit v set for vertex v, the form the
exact searches and the CIS layer use; :func:`rows_from_masks` and
:func:`masks_from_rows` convert between the two.

:func:`count_pairs` counts a biclique system's pairs against a graph's
packed rows in bit planes: a covered plane, the OR of the masks added, and
d = (min(t, parts) - 1).bit_length() planes that count mod 2**d, so every
count up to 2**d >= t is read exactly and a larger one reads less.  Each
pair is counted once, in its lower vertex's row, so the read counts above
the diagonal sum to the parts' sum of |L| * |R| iff every count is exact.
Only when the sum falls short does :func:`first_bad_pair` recount, keeping
the top plane's carry in a sticky overflow plane.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from functools import reduce
from typing import TypeVar

import numpy as np

_WORD = np.dtype("<u8")
_BYTE_BITS = np.array([1, 2, 4, 8, 16, 32, 64, 128], dtype=np.uint8)  # byte with bit i set
_BLOCK = 1 << 16  # incidences per block of the verifier's per-incidence scratch
_HIGH_BITS = np.array([(1 << 64) - (1 << k) for k in range(65)], dtype=_WORD)  # bits k on
_Read = TypeVar("_Read")


def zero_rows(*shape: int) -> np.ndarray:
    """The packed form of ``np.zeros(shape, bool)``, C-contiguous, with no bool array made."""
    return np.zeros((*shape[:-1], (shape[-1] + 63) // 64), dtype=_WORD)


def set_bits(rows: np.ndarray, r: np.ndarray, c: np.ndarray) -> None:
    """Set bit ``c[i]`` of row ``r[i]`` of the C-contiguous packed ``rows``, each bit clear
    and named once, by adding to its byte (a flat offset per bit, int32 below 2**31 bytes)."""
    byte = np.multiply(r, 8 * rows.shape[-1], dtype=np.int32 if rows.nbytes < 1 << 31 else np.int64)
    byte += c >> 3  # _WORD is little-endian: bit c of a row is in its byte c // 8
    np.add.at(rows.reshape(-1).view(np.uint8), byte, _BYTE_BITS[c & 7])


def pack_rows(dense: np.ndarray) -> np.ndarray:
    """Bool rows of length n packed into ``ceil(n / 64)`` little-endian uint64 words each."""
    count, n = dense.shape
    packed = zero_rows(count, n)
    packed.view(np.uint8)[:, : (n + 7) // 8] = np.packbits(dense, axis=1, bitorder="little")
    return packed


def unpack_rows(packed: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` bits of each packed row, as bool rows (inverse of :func:`pack_rows`)."""
    return np.unpackbits(packed.view(np.uint8), axis=-1, count=n, bitorder="little").view(bool)


def rows_from_masks(masks: list[int], n: int) -> np.ndarray:
    """Python int bitmasks (bit v = vertex v, every bit below ``n``) laid out as packed rows."""
    width = 8 * ((n + 63) // 64)
    packed = b"".join(mask.to_bytes(width, "little") for mask in masks)
    return np.frombuffer(packed, dtype=_WORD).reshape(len(masks), width // 8)


def masks_from_rows(rows: np.ndarray) -> list[int]:
    """Each packed row as a Python int bitmask (inverse of :func:`rows_from_masks`)."""
    data, width = rows.tobytes(), 8 * rows.shape[1]
    return [int.from_bytes(data[v * width : (v + 1) * width], "little") for v in range(len(rows))]


def iter_bits(mask: int) -> Iterator[int]:
    """The vertices of a bitmask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """The vertex set as a bitmask (bit v = vertex v)."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def count_pairs(
    rows: np.ndarray, bounds: np.ndarray, vertices: np.ndarray, t: int, band_bytes: int,
    mask_bytes: int,
) -> Iterator[tuple[bool, tuple[int, int] | None, int, int]]:
    """Count how often the parts, laid out by ``bounds`` and ``vertices`` as in a
    :class:`bicliquelab.graphs.BicliqueSystem`, cover each pair of vertices.

    Yields ``(stray, bad, high, total)`` per band of the graph's packed
    adjacency ``rows``, in row order: whether the band covers a non-edge,
    its first edge (u, v) in row-major order read as covered 0 or more
    than t times (or None), its largest read count, and the sum of its
    read counts above the diagonal.

    Each vertex row of the pair-count matrix is a bit-sliced counter over
    packed rows: a *covered* plane, the OR of the masks added, and
    d = (min(t, parts) - 1).bit_length() planes that count mod 2**d (the
    top plane's carry is dropped).  A pair reads its value, or 2**d where
    the value is 0 and the pair is covered, so every count up to 2**d >= t
    is read exactly and a larger one reads less.  A part adds the mask of
    its right side to the row of each left vertex, and vice versa, unless
    that side ends before the vertex: each pair is counted in full only in
    its lower vertex's row (see :func:`_chunk_layout`).  So the read counts
    above the diagonal sum to the parts' sum of ``|L| * |R|`` iff every
    count is exact, and then ``bad`` is the band's first bad pair and
    ``high`` its largest count; otherwise :func:`first_bad_pair` recounts.
    A band of rows from vertex ``lo`` keeps the columns from word
    ``lo // 64`` on, and reads bad pairs only above the diagonal, where the
    first one in row-major order lies.  A count below it is at most its
    mirror's, so non-edges and the largest count are read from every bit.

    Masks are built for a bounded chunk of parts at a time, and one loop
    makes, fills and reads out the counters (see :func:`_counted_bands`).
    So the counters take one band, about (d + 1) * ``band_bytes``, when the
    parts fit one chunk, and all bands, (d + 1) * n*n/16 bytes, when they
    span several.
    """
    t = min(t, len(bounds) // 2)
    depth = max(t - 1, 0).bit_length()  # 2**depth >= t

    def read(lo: int, counter: np.ndarray) -> tuple[bool, tuple[int, int] | None, int, int]:
        covered, *planes = counter
        edges = rows[lo : lo + len(covered), lo // 64 :]
        full = covered & ~reduce(np.bitwise_or, planes) if planes else covered  # read as 2**depth
        keep = _diagonal(lo, len(covered))
        total = sum(_count_above(plane, keep) << k for k, plane in enumerate(planes))
        total += _count_above(full, keep) << depth
        high = 1 << depth if full.any() else _plane_max(planes)
        bad = ~covered
        if t < 1 << depth:
            bad |= full
        _mark_above(bad, planes, t)
        bad &= edges
        return bool((covered & ~edges).any()), _first_pair(bad, lo, keep), high, total

    return _counted_bands(rows, bounds, vertices, depth + 1, band_bytes, mask_bytes, False, read)


def first_bad_pair(
    rows: np.ndarray, bounds: np.ndarray, vertices: np.ndarray, t: int, band_bytes: int,
    mask_bytes: int,
) -> tuple[int, int] | None:
    """The first edge (u, v) of the graph's packed adjacency ``rows``, in
    row-major order, that the parts cover 0 or more than t times, or None.

    Recounts the pairs as :func:`count_pairs` does, with ``t.bit_length()``
    planes that count mod a power of two above t and a sticky overflow
    plane that keeps their top carry, so every count is read exactly up
    to t and every larger one is seen to pass it.  It runs only when
    :func:`count_pairs` read some count low; at t = 1 it holds two planes.
    """
    t = min(t, len(bounds) // 2)

    def read(lo: int, counter: np.ndarray) -> tuple[int, int] | None:
        *planes, over = counter
        edges = rows[lo : lo + len(over), lo // 64 :]
        bad = ~reduce(np.bitwise_or, planes, over)  # uncovered
        bad |= over
        _mark_above(bad, planes, t)
        bad &= edges
        return _first_pair(bad, lo, _diagonal(lo, len(over)))

    planes = t.bit_length() + 1
    bands = _counted_bands(rows, bounds, vertices, planes, band_bytes, mask_bytes, True, read)
    return next(filter(None, bands), None)


def _counted_bands(
    rows: np.ndarray, bounds: np.ndarray, vertices: np.ndarray, planes: int, band_bytes: int,
    mask_bytes: int, sticky: bool, read: Callable[[int, np.ndarray], _Read],
) -> Iterator[_Read]:
    """``read(lo, counter)`` for each band of rows from ``lo``, in row order,
    once every part is added to the band's counter of ``planes`` bit planes
    (laid out as :func:`_count_band` takes them with ``sticky``).

    The first chunk of parts makes each band's counter and the last reads
    it out and drops it, so the counters take one band when the parts fit
    one chunk.  The rest is the chunk's layout: its mask table (about
    ``mask_bytes``), read through a view of each band's columns, an int16
    side id per incidence (int32 past 2**15 sides) and an int64 offset per
    vertex.  The layout's block scratch dies before any counter is made,
    and each chunk's layout is freed before the next one is built.  Per
    band there are also a scratch buffer and a round's two gathered masks
    (about ``band_bytes`` each), a few integers per row, and a copy of the
    counter unless its rows are already in order (see :func:`_count_band`);
    no incidence is sorted or copied, and each band's counter and read-out
    are freed before the next band is counted.  All scratch belongs to the
    call, so concurrent calls share no state.
    """
    n, words = rows.shape
    parts = len(bounds) // 2
    band = max(1, band_bytes // (8 * max(words, 1)))
    # the counter of the band from row lo, from the first chunk until its read-out
    counters: dict[int, np.ndarray] = {}
    # a chunk's side masks: at most mask_bytes / 8 words, or two rows of
    # under 2**25 words each (vertex ids are int32)
    chunk = max(1, mask_bytes // (16 * max(words, 1)))
    for first in range(0, max(parts, 1), chunk):
        sides = bounds[2 * first : 2 * (first + chunk) + 1]
        masks, starts, opposite = _chunk_layout(n, sides, vertices)
        for lo in range(0, n, band):
            if not first:  # the band holds rows lo on, from column word lo // 64 on
                counters[lo] = np.zeros((planes, min(band, n - lo), words - lo // 64), dtype=_WORD)
            start, end = starts[lo], starts[min(n, lo + band)]
            if start < end:
                edge = starts[lo : lo + band + 1]  # sliced: np.diff's call costs more than a small band
                counts = edge[1:] - edge[:-1]
                _count_band(counters[lo], counts, opposite[start:end], masks[:, lo // 64 :], sticky)
            if first + chunk >= parts:  # no later chunk adds to the band: read it out, drop it
                yield read(lo, counters.pop(lo))
        # freed here, or the next chunk's layout is built while this one's is held
        del masks, starts, opposite


def _mark_above(bad: np.ndarray, planes: list[np.ndarray], t: int) -> None:
    """Set the bits of ``bad`` where the value held in the bit-sliced
    ``planes`` is above ``t``."""
    if t >> len(planes):  # no value they hold is
        return
    tied = None  # where the value's bits so far equal t's (None: everywhere)
    for k in reversed(range(len(planes))):
        plane = planes[k] if tied is None else tied & planes[k]
        if t >> k & 1:
            tied = plane
        else:
            bad |= plane
            tied = ~planes[k] if tied is None else tied & ~planes[k]


def _diagonal(lo: int, count: int) -> np.ndarray:
    """The bits above the diagonal in the words it crosses of rows ``lo`` to
    ``lo + count - 1``, each row's columns from word ``lo // 64`` on.

    Row lo + i counts in part up to its diagonal, so its first
    lo + i + 1 - 64 * w bits of word w are clear."""
    lead = np.arange(lo // 64, (lo + count - 1) // 64 + 1)
    cut = np.arange(lo + 1, lo + count + 1)[:, None] - 64 * lead
    return _HIGH_BITS[np.minimum(np.maximum(cut, 0), 64)]


def _count_above(bits: np.ndarray, keep: np.ndarray) -> int:
    """How many of the band's ``bits`` lie above the diagonal (``keep`` from
    :func:`_diagonal`)."""
    lead = keep.shape[1]
    crossed = np.bitwise_count(bits[:, :lead] & keep).sum()
    return int(np.bitwise_count(bits[:, lead:]).sum()) + int(crossed)


def _first_pair(bad: np.ndarray, lo: int, keep: np.ndarray) -> tuple[int, int] | None:
    """The first set bit above the diagonal of the band's ``bad`` rows, in
    row-major order, as a vertex pair (``bad`` is cleared below it)."""
    bad[:, : keep.shape[1]] &= keep
    if not bad.any():
        return None
    r = int(bad.any(axis=1).argmax())  # its first row, and that row's first bad column
    c = int(unpack_rows(bad[r], 64 * bad.shape[1]).argmax())
    return lo + r, lo // 64 * 64 + c


def _chunk_layout(
    n: int, bounds: np.ndarray, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mask table, per-vertex offsets and opposite side ids of the parts
    with side ``bounds``, over ``n`` vertices.

    Row s of the table is side s's mask; side 2i is part i's left, 2i+1 its
    right.  Slots ``offsets[v]`` to ``offsets[v + 1]`` hold the ids of the
    sides opposite vertex v's, in part order, for the incidences whose
    opposite side ends past v: a pair u < v is counted in row u by those
    incidences of u whose opposite side holds v, and so ends at or past v.
    The caller bounds the chunk, so that the table holds under 2**31 bytes.

    Incidences are read in blocks of ``_BLOCK``, twice: once to count each
    vertex's kept incidences and to set each side's bits in the table, and
    once to place each kept opposite side id at its vertex's next slot, so
    no sort spans more than a block.  A chunk of one block works out its
    side ids and kept incidences once, for both walks.
    """
    verts = vertices[bounds[0] : bounds[-1]]
    ends = bounds[1:] - bounds[0]  # where each side ends in verts
    side_id = np.int16 if len(ends) < 1 << 15 else np.int32
    # sides are sorted: the last vertex of each side's opposite side
    reach = verts[ends - 1].reshape(-1, 2)[:, ::-1].reshape(-1)

    def block(lo):  # the block's vertices, the side of each, and where the kept ones lie
        v = verts[lo : lo + _BLOCK]
        # the sides this block meets: from the one holding lo to the one holding its last entry
        first, last = np.searchsorted(ends, (lo, lo + len(v) - 1), "right")
        cuts = np.minimum(np.maximum(bounds[first : last + 2] - bounds[0], lo), lo + len(v))
        side = np.arange(first, last + 1, dtype=side_id).repeat(cuts[1:] - cuts[:-1])
        return v, side, np.flatnonzero(reach[side] > v)

    los = range(0, len(verts), _BLOCK)
    held = [block(lo) for lo in los] if len(los) == 1 else None
    masks = zero_rows(len(ends), n)
    starts = np.zeros(n + 1, dtype=np.int64)  # where each vertex's kept incidences begin
    for v, side, keep in held or map(block, los):
        set_bits(masks, side, v)  # a side's vertices are distinct
        starts[1:] += np.bincount(v[keep], minlength=n)
    starts = starts.cumsum()
    slot = starts[:-1].copy()  # where each vertex's next incidence goes
    opposite = np.empty(starts[-1], dtype=side_id)
    for v, side, keep in held or map(block, los):
        if not keep.size:
            continue
        # stable placement: the block's incidences of a vertex keep their order
        order = keep[v[keep].argsort(kind="stable")]
        v = v[order]
        head = np.empty(len(v), dtype=bool)
        head[0] = True
        np.not_equal(v[1:], v[:-1], out=head[1:])
        head = np.flatnonzero(head)  # where each vertex's run begins
        size = np.append(head[1:], len(v)) - head
        v = v[head]  # each run's vertex
        place = (slot[v] - head).repeat(size)  # the vertex's next slot, less the run's start
        place += np.arange(len(place))
        opposite[place] = side[order] ^ 1
        slot[v] += size
    return masks, starts, opposite


def _count_band(
    counter: np.ndarray, counts: np.ndarray, mask_ids: np.ndarray, masks: np.ndarray,
    sticky: bool,
) -> None:
    """Add to row r of ``counter`` the masks of its ``counts[r]`` incidences.

    ``counter`` is a covered plane, the OR of the masks, then d planes that
    count mod 2**d, the top one's carry dropped; with ``sticky`` it is d
    planes that count mod 2**d, then a sticky overflow plane that ORs in
    their top carry.  ``mask_ids`` lists the incidences' mask ids row by row;
    ``masks`` holds the band's columns only.  Rows are taken by decreasing
    incidence count, so round j adds the j-th mask of each of the first
    ``active[j]`` rows, a contiguous prefix, read where each row's
    incidences begin.  For even j those rows add masks a and b of rounds j
    and j + 1 at once, b zero in rows past ``active[j + 1]``: s = a ^ b to
    plane 0, whose carry c is never set where k = a & b is (k forces s = 0),
    so c | k is the one carry into plane 1.  One ripple of half adders runs
    up the planes in place, between the gathered masks and a scratch buffer
    made once per call, so a row in k parts takes ceil(k / 2) ripples; with
    one counting plane and no sticky plane there is no carry, and with none
    the ripple is two ORs.  Rows already in that order, none empty, are
    counted in ``counter`` itself; others in a copy, written back.
    """
    rows = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
    first = (counts.cumsum() - counts)[rows]  # where each row's incidences begin
    active = (len(rows) - np.bincount(counts[rows]).cumsum()).tolist()  # ends with 0
    in_place = len(rows) == len(counts) and bool((rows[1:] > rows[:-1]).all())
    # take keeps each plane C-contiguous; counter[:, rows] would interleave them
    local = counter if in_place else counter.take(rows, axis=1)
    spare = np.empty((len(rows), counter.shape[2]), dtype=_WORD)
    for j in range(0, len(active) - 1, 2):
        # the first active[j] rows add round j's mask a and round j + 1's mask b;
        # b is zeroed past the first active[j + 1] rows, whose id there is another row's
        live = active[j]
        at = first[:live] + j
        carry = masks[mask_ids[at]]
        other = masks[mask_ids.take(at + 1, mode="clip")]
        other[active[j + 1] :] = 0
        if not sticky:  # the covered plane
            local[0, :live] |= carry
            local[0, :live] |= other
        planes = local[:-1, :live] if sticky else local[1:, :live]
        adders = planes if sticky else planes[:-1]  # the planes that pass a carry on
        if not len(adders):  # no plane, or one that takes the masks' parity
            if len(planes):
                carry ^= other
                planes[0] ^= carry
            continue
        both = spare[:live]
        np.bitwise_and(carry, other, out=both)  # k
        carry ^= other  # s
        np.bitwise_and(adders[0], carry, out=other)  # c
        adders[0] ^= carry
        other |= both  # c | k, the carry into plane 1
        carry, both = other, carry
        for plane in adders[1:]:
            np.bitwise_and(plane, carry, out=both)
            plane ^= carry
            carry, both = both, carry
        if sticky:
            local[-1, :live] |= carry
        else:
            planes[-1] ^= carry
    if not in_place:
        counter[:, rows] = local


def _plane_max(planes: list[np.ndarray]) -> int:
    """Largest value held in the bit-sliced ``planes``."""
    value, candidates = 0, None
    for k in reversed(range(len(planes))):
        hit = planes[k] if candidates is None else candidates & planes[k]
        if hit.any():
            value |= 1 << k
            candidates = hit
    return value
