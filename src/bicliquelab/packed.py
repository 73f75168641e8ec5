"""Every bit-level form of vertex sets, and the bit-sliced pair counter that verifies covers.

Packed rows are little-endian uint64 words: bit v of a row is bit v % 64 of
word v // 64, the layout np.packbits(..., bitorder="little") gives.  Bits
past the last vertex are always zero, so rows compare and count directly.
Graphs store their adjacency this way (see :class:`bicliquelab.graphs.Graph`).
Only this module sizes rows (:func:`zero_rows`), sets bits (:func:`set_bits`)
and reads one (:func:`bit`).
Vertex masks are Python ints with bit v set for vertex v, the form the
exact searches and the CIS layer use; :func:`rows_from_masks` and
:func:`masks_from_rows` convert between the two.

:func:`count_pairs` checks a biclique system's pair counts against a
graph's packed rows (its docstring describes the counter).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

_WORD = np.dtype("<u8")
_BYTE_BITS = np.array([1, 2, 4, 8, 16, 32, 64, 128], dtype=np.uint8)  # byte with bit i set
_BLOCK = 1 << 16  # incidences per block of the verifier's per-incidence scratch


def zero_rows(*shape: int) -> np.ndarray:
    """The packed form of ``np.zeros(shape, bool)``, C-contiguous, with no bool array made."""
    return np.zeros((*shape[:-1], (shape[-1] + 63) // 64), dtype=_WORD)


def set_bits(rows: np.ndarray, r: np.ndarray, c: np.ndarray) -> None:
    """Set bit ``c[i]`` of row ``r[i]`` of the C-contiguous packed ``rows``, each bit clear
    and named once, by adding to its byte (a flat offset per bit, int32 below 2**31 bytes)."""
    byte = np.multiply(r, 8 * rows.shape[-1], dtype=np.int32 if rows.nbytes < 1 << 31 else np.int64)
    byte += c >> 3  # _WORD is little-endian: bit c of a row is in its byte c // 8
    np.add.at(rows.reshape(-1).view(np.uint8), byte, _BYTE_BITS[c & 7])


def bit(rows: np.ndarray, r: int, c: int) -> bool:
    """Bit ``c`` of row ``r`` of the packed ``rows``."""
    return bool(int(rows[r, c >> 6]) >> (c & 63) & 1)


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
) -> Iterator[tuple[bool, tuple[int, int] | None, int]]:
    """Count how often the parts, laid out by ``bounds`` and ``vertices`` as in a
    :class:`bicliquelab.graphs.BicliqueSystem`, cover each pair of vertices.

    Yields ``(stray, bad, high)`` per band of the graph's packed adjacency
    ``rows``, in row order: whether the band covers a non-edge, its first
    edge (u, v) in row-major order covered 0 or more than t times (or None),
    and its largest count, exact when it has neither.

    Each vertex row of the pair-count matrix is a bit-sliced counter over
    packed rows: ``min(t, parts).bit_length()`` bit planes plus a sticky
    overflow plane.  Counts start at a bias chosen so that a count carries
    into the overflow exactly when it passes t, and the planes hold every
    count up to t exactly.  A part adds the mask of its right side to the
    row of each left vertex, and vice versa.  Counts are symmetric, so a
    band of rows starting at vertex ``lo`` keeps only the columns from word
    ``lo // 64`` on, which halves memory and work: every unordered pair,
    and the first bad pair in row-major order (whose row is below its
    column), is still seen.

    A band adds its incidences in rounds: round j adds to each row with
    more than j incidences its j-th mask, by one ripple of half adders
    between two scratch buffers that are made once per band and belong to
    the call, so concurrent calls share no state.

    Masks are built for a bounded chunk of parts at a time, and one loop
    makes, fills and reads out the counters: the first chunk makes each
    band's counter and the last reads it out and drops it.  So the counters
    take one band, about (planes + 1) * ``band_bytes``, when the parts fit one
    chunk, and all bands, (planes + 1) * n*n/16 bytes, when they span several.
    The rest is the chunk's layout: its mask table (about ``mask_bytes``),
    which drops each band's leading columns in place, an int16 side id per
    incidence (int32 past 2**15 sides) and an int64 offset per vertex.  The
    layout's block scratch dies before any counter is made, and each chunk's
    layout is freed before the next one is built.  Per band there are also
    the two round buffers (about ``band_bytes`` each), a few integers per
    row, and a copy of the counter unless its rows are already in order
    (see :func:`_count_band`); no incidence is sorted or copied, and each
    band's read-out is freed before the next is counted.
    """
    n, words = rows.shape
    parts = len(bounds) // 2
    # no pair is covered more often than there are parts, so a bound above
    # the part count acts as that count and needs no more planes
    t = min(t, parts)
    digits = t.bit_length()
    bias = (1 << digits) - 1 - t  # bias + t + 1 == 2**digits
    # plane k starts as bit k of the bias in every position: all ones or zeros
    fill = np.array([-(bias >> k & 1) for k in range(digits)] + [0]).astype(_WORD)[:, None, None]
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
                shape = (len(fill), min(band, n - lo), words - lo // 64)
                counters[lo] = np.broadcast_to(fill, shape).copy()
            # np.take gathers without copying its whole source only from a
            # C-contiguous one, so the table sheds the columns left of each band
            masks = _drop_columns(masks, masks.shape[1] - counters[lo].shape[2], band_bytes)
            start, end = starts[lo], starts[min(n, lo + band)]
            if start < end:
                counts = np.diff(starts[lo : lo + band + 1])
                _count_band(counters[lo], counts, opposite[start:end], masks)
            if first + chunk >= parts:  # no later chunk adds to the band: read it out, drop it
                *planes, over = counters.pop(lo)
                covered = over.copy()  # count > 0: planes no longer hold the bias
                for k, plane in enumerate(planes):
                    covered |= ~plane if bias >> k & 1 else plane
                edges = rows[lo : lo + len(covered), lo // 64 :]
                bad = edges & (over | ~covered)
                pair = None
                if bad.any():  # its first row, and that row's first bad column
                    r = int(bad.any(axis=1).argmax())
                    c = int(unpack_rows(bad[r], 64 * bad.shape[1]).argmax())
                    pair = (lo + r, lo // 64 * 64 + c)
                yield bool((covered & ~edges).any()), pair, _plane_max(planes) - bias
                del planes, over, covered, bad  # the band's counter dies before the next is counted
        # freed here, or the next chunk's layout is built while this one's is held
        del masks, starts, opposite


def _chunk_layout(
    n: int, bounds: np.ndarray, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mask table, per-vertex offsets and opposite side ids of the parts
    with side ``bounds``, over ``n`` vertices.

    Row s of the table is side s's mask; side 2i is part i's left, 2i+1 its
    right.  Slots ``offsets[v]`` to ``offsets[v + 1]`` hold the ids of the
    sides opposite vertex v's, in part order.  The caller bounds the chunk,
    so that the table holds fewer than 2**31 bytes.

    Incidences are read in blocks of ``_BLOCK``, twice: once to count each
    vertex's incidences, and once to set each side's bits in the table and
    to place the opposite side's id at its vertex's
    next slot, so no sort spans more than a block.
    """
    verts = vertices[bounds[0] : bounds[-1]]
    ends = bounds[1:] - bounds[0]  # where each side ends in verts
    side_id = np.int16 if len(ends) < 1 << 15 else np.int32
    masks = zero_rows(len(ends), n)
    starts = np.zeros(n + 1, dtype=np.int64)  # where each vertex's incidences begin
    for lo in range(0, len(verts), _BLOCK):
        starts[1:] += np.bincount(verts[lo : lo + _BLOCK], minlength=n)
    starts = starts.cumsum()
    slot = starts[:-1].copy()  # where each vertex's next incidence goes
    opposite = np.empty(len(verts), dtype=side_id)
    for lo in range(0, len(verts), _BLOCK):
        v = verts[lo : lo + _BLOCK]
        # the sides this block meets: from the one holding lo to the one holding its last entry
        first, last = np.searchsorted(ends, (lo, lo + len(v) - 1), "right")
        sizes = np.diff(ends[first:last], prepend=lo, append=lo + len(v))
        side = np.arange(first, last + 1, dtype=side_id).repeat(sizes)
        set_bits(masks, side, v)  # a side's vertices are distinct
        # stable placement: the block's incidences of a vertex keep their order
        order = v.argsort(kind="stable")
        v = v[order]
        head = np.empty(len(v), dtype=bool)
        head[0] = True
        np.not_equal(v[1:], v[:-1], out=head[1:])
        head = np.flatnonzero(head)  # where each vertex's run begins
        size = np.diff(head, append=len(v))
        v = v[head]  # each run's vertex
        place = (slot[v] - head).repeat(size)  # the vertex's next slot, less the run's start
        place += np.arange(len(place))
        opposite[place] = side[order] ^ 1
        slot[v] += size
    return masks, starts, opposite


def _drop_columns(table: np.ndarray, d: int, scratch: int) -> np.ndarray:
    """``table[:, d:]``, C-contiguous, moved to the front of ``table``'s own buffer.

    Rows move in order, in blocks of about ``scratch`` bytes: a block never
    reaches the rows after it, and numpy buffers the overlap within one.
    """
    if not d:
        return table
    rows, width = table.shape
    out = table.reshape(-1)[: rows * (width - d)].reshape(rows, width - d)
    step = max(1, scratch // (8 * width))
    for lo in range(0, rows, step):
        out[lo : lo + step] = table[lo : lo + step, d:]
    return out


def _count_band(
    counter: np.ndarray, counts: np.ndarray, mask_ids: np.ndarray, masks: np.ndarray
) -> None:
    """Add to row r of ``counter`` the masks of its ``counts[r]`` incidences.

    ``mask_ids`` lists the incidences' mask ids row by row; ``masks`` holds
    the band's columns only, and is C-contiguous.  Rows are taken by
    decreasing incidence count, so round j adds the j-th mask of each of
    the first ``active[j]`` rows, a contiguous prefix, read where each
    row's incidences begin.  Each round gathers one mask per row into a
    scratch buffer and adds it with one ripple of half adders up the planes,
    in place between two buffers made once per call; the carry out of the
    top plane goes to the sticky overflow plane.  Rows already in that
    order, none empty, are counted in ``counter`` itself; others in a copy,
    written back.
    """
    rows = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
    first = (counts.cumsum() - counts)[rows]  # where each row's incidences begin
    active = len(rows) - np.bincount(counts[rows]).cumsum()[:-1]
    in_place = len(rows) == len(counts) and bool((np.diff(rows) > 0).all())
    # take keeps each plane C-contiguous; counter[:, rows] would interleave them
    local = counter if in_place else counter.take(rows, axis=1)
    gathered = np.empty((len(rows), counter.shape[2]), dtype=_WORD)
    spare = np.empty_like(gathered)
    for j, c in enumerate(active.tolist()):
        carry, both = gathered[:c], spare[:c]
        masks.take(mask_ids[first[:c] + j], axis=0, out=carry, mode="clip")
        for plane in local[:-1, :c]:
            np.bitwise_and(plane, carry, out=both)
            plane ^= carry
            carry, both = both, carry
        local[-1, :c] |= carry
    if not in_place:
        counter[:, rows] = local


def _plane_max(planes: np.ndarray) -> int:
    """Largest value held in the bit-sliced counter ``planes``, overflow aside."""
    value, candidates = 0, None
    for k in reversed(range(len(planes))):
        hit = planes[k] if candidates is None else candidates & planes[k]
        if hit.any():
            value |= 1 << k
            candidates = hit
    return value
