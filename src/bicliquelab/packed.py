"""Every bit-level form of vertex sets, and the bit-sliced pair counter that verifies covers.

Packed rows are little-endian uint64 words: bit v of a row is bit v % 64 of
word v // 64, the layout np.packbits(..., bitorder="little") gives.  Bits
past the last vertex are always zero, so rows compare and count directly.
Graphs store their adjacency this way (see :class:`bicliquelab.graphs.Graph`).
Only this module sizes rows (:func:`zero_rows`) and sets bits (:func:`set_bits`).
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
_HIGH_BITS = np.array([(1 << 64) - (1 << k) for k in range(65)], dtype=_WORD)  # bits k on


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
    row of each left vertex, and vice versa, unless that side ends before
    the vertex: each pair is counted in full only in its lower vertex's row
    (see :func:`_chunk_layout`).  So a band of rows from vertex ``lo`` keeps
    the columns from word ``lo // 64`` on, and reads bad pairs only above
    the diagonal, where the first one in row-major order lies.  A count
    below it is at most its mirror's, so non-edges and the largest count
    are read from every bit.  A band adds two rounds of masks per ripple
    of half adders (see :func:`_count_band`), in scratch buffers that
    belong to the call, so concurrent calls share no state.

    Masks are built for a bounded chunk of parts at a time, and one loop
    makes, fills and reads out the counters: the first chunk makes each
    band's counter and the last reads it out and drops it.  So the counters
    take one band, about (planes + 1) * ``band_bytes``, when the parts fit one
    chunk, and all bands, (planes + 1) * n*n/16 bytes, when they span several.
    The rest is the chunk's layout: its mask table (about ``mask_bytes``),
    read through a view of each band's columns, an int16 side id per
    incidence (int32 past 2**15 sides) and an int64 offset per vertex.  The
    layout's block scratch dies before any counter is made, and each chunk's
    layout is freed before the next one is built.  Per band there are also
    a scratch buffer and a round's two gathered masks (about ``band_bytes``
    each), a few integers per row, and a copy of the counter unless its
    rows are already in order (see :func:`_count_band`); no incidence is
    sorted or copied, and each band's read-out is freed before the next is
    counted.
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
            start, end = starts[lo], starts[min(n, lo + band)]
            if start < end:
                counts = np.diff(starts[lo : lo + band + 1])
                _count_band(counters[lo], counts, opposite[start:end], masks[:, lo // 64 :])
            if first + chunk >= parts:  # no later chunk adds to the band: read it out, drop it
                *planes, over = counters.pop(lo)
                covered = over.copy()  # count > 0: planes no longer hold the bias
                for k, plane in enumerate(planes):
                    covered |= ~plane if bias >> k & 1 else plane
                edges = rows[lo : lo + len(covered), lo // 64 :]
                bad = edges & (over | ~covered)
                # row lo + i counts in part up to its diagonal: clear its first
                # lo + i + 1 - 64 * w bits of word w, in the words the diagonal crosses
                lead = np.arange(lo // 64, (lo + len(bad) - 1) // 64 + 1)
                cut = np.arange(lo + 1, lo + len(bad) + 1)[:, None] - 64 * lead
                bad[:, : len(lead)] &= _HIGH_BITS[np.minimum(np.maximum(cut, 0), 64)]
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
    sides opposite vertex v's, in part order, for the incidences whose
    opposite side ends past v: a pair u < v is counted in row u by those
    incidences of u whose opposite side holds v, and so ends at or past v.
    The caller bounds the chunk, so that the table holds under 2**31 bytes.

    Incidences are read in blocks of ``_BLOCK``, twice: once to count each
    vertex's kept incidences, and once to set each side's bits in the table
    and to place each kept opposite side id at its vertex's next slot, so
    no sort spans more than a block.
    """
    verts = vertices[bounds[0] : bounds[-1]]
    ends = bounds[1:] - bounds[0]  # where each side ends in verts
    side_id = np.int16 if len(ends) < 1 << 15 else np.int32
    # sides are sorted: the last vertex of each side's opposite side
    reach = verts[ends - 1].reshape(-1, 2)[:, ::-1].reshape(-1)

    def blocks():  # each block's vertices, and the side of each
        for lo in range(0, len(verts), _BLOCK):
            v = verts[lo : lo + _BLOCK]
            # the sides this block meets: from the one holding lo to the one holding its last entry
            first, last = np.searchsorted(ends, (lo, lo + len(v) - 1), "right")
            cuts = np.minimum(np.maximum(bounds[first : last + 2] - bounds[0], lo), lo + len(v))
            yield v, np.arange(first, last + 1, dtype=side_id).repeat(cuts[1:] - cuts[:-1])

    masks = zero_rows(len(ends), n)
    starts = np.zeros(n + 1, dtype=np.int64)  # where each vertex's kept incidences begin
    for v, side in blocks():
        starts[1:] += np.bincount(v[reach[side] > v], minlength=n)
    starts = starts.cumsum()
    slot = starts[:-1].copy()  # where each vertex's next incidence goes
    opposite = np.empty(starts[-1], dtype=side_id)
    for v, side in blocks():
        set_bits(masks, side, v)  # a side's vertices are distinct
        keep = np.flatnonzero(reach[side] > v)
        if not keep.size:
            continue
        # stable placement: the block's incidences of a vertex keep their order
        order = keep[v[keep].argsort(kind="stable")]
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


def _count_band(
    counter: np.ndarray, counts: np.ndarray, mask_ids: np.ndarray, masks: np.ndarray
) -> None:
    """Add to row r of ``counter`` the masks of its ``counts[r]`` incidences.

    ``mask_ids`` lists the incidences' mask ids row by row; ``masks`` holds
    the band's columns only.  Rows are taken by decreasing incidence count,
    so round j adds the j-th mask of each of the first ``active[j]`` rows,
    a contiguous prefix, read where each row's incidences begin.  For even
    j those rows add masks a and b of rounds j and j + 1 at once, b zero
    in rows past ``active[j + 1]``: s = a ^ b to plane 0, whose carry c is
    never set where k = a & b is (k forces s = 0), so c | k is the one
    carry into plane 1.  One ripple of half adders runs up the planes in
    place, between the gathered masks and a scratch buffer made once per
    call, and the top plane's carry goes to the sticky overflow plane, so
    a row in k parts takes ceil(k / 2) ripples.  Rows already in that
    order, none empty, are counted in ``counter`` itself; others in a
    copy, written back.
    """
    rows = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
    first = (counts.cumsum() - counts)[rows]  # where each row's incidences begin
    active = (len(rows) - np.bincount(counts[rows]).cumsum()).tolist()  # ends with 0
    in_place = len(rows) == len(counts) and bool((np.diff(rows) > 0).all())
    # take keeps each plane C-contiguous; counter[:, rows] would interleave them
    local = counter if in_place else counter.take(rows, axis=1)
    spare = np.empty((len(rows), counter.shape[2]), dtype=_WORD)
    for j in range(0, len(active) - 1, 2):
        # the first active[j] rows add round j's mask a and round j + 1's mask b;
        # b is zeroed past the first active[j + 1] rows, whose id there is another row's
        live = active[j]
        at, planes = first[:live] + j, local[:-1, :live]
        carry, both = masks[mask_ids[at]], spare[:live]
        other = masks[mask_ids.take(at + 1, mode="clip")]
        other[active[j + 1] :] = 0
        np.bitwise_and(carry, other, out=both)  # k
        carry ^= other  # s
        np.bitwise_and(planes[0], carry, out=other)  # c
        planes[0] ^= carry
        other |= both  # c | k, the carry into plane 1
        carry, both = other, carry
        for plane in planes[1:]:
            np.bitwise_and(plane, carry, out=both)
            plane ^= carry
            carry, both = both, carry
        local[-1, :live] |= carry
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
