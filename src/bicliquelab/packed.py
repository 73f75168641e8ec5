"""Every bit-level form of vertex sets, and the bit-sliced pair counter that verifies covers.

Packed rows are little-endian uint64 words: bit v of a row is bit v % 64 of
word v // 64, the layout np.packbits(..., bitorder="little") gives.  Bits
past the last vertex are always zero, so rows compare and count directly.
Graphs store their adjacency this way (see :class:`bicliquelab.graphs.Graph`).
Vertex masks are Python ints with bit v set for vertex v, the form the
exact searches and the CIS layer use; :func:`rows_from_masks` and
:func:`masks_from_rows` convert between the two.

:func:`count_pairs` counts how often a biclique system covers each vertex
pair, on packed rows (its docstring describes the counter).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

WORD = np.dtype("<u8")
BITS = np.left_shift(np.uint64(1), np.arange(64, dtype=WORD), dtype=WORD)  # word with bit i set
_CALL_BYTES = 1 << 10  # a small numpy call costs about as much as summing this many unpacked bytes


def pack_rows(dense: np.ndarray) -> np.ndarray:
    """Bool rows of length n packed into ``ceil(n / 64)`` little-endian uint64 words each."""
    count, n = dense.shape
    packed = np.zeros((count, (n + 63) // 64), dtype=WORD)
    packed.view(np.uint8)[:, : (n + 7) // 8] = np.packbits(dense, axis=1, bitorder="little")
    return packed


def unpack_rows(packed: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` bits of each packed row, as bool rows (inverse of :func:`pack_rows`)."""
    return np.unpackbits(packed.view(np.uint8), axis=-1, count=n, bitorder="little").view(bool)


def rows_from_masks(masks: list[int], n: int) -> np.ndarray:
    """Python int bitmasks (bit v = vertex v, every bit below ``n``) laid out as packed rows."""
    width = 8 * ((n + 63) // 64)
    packed = b"".join(mask.to_bytes(width, "little") for mask in masks)
    return np.frombuffer(packed, dtype=WORD).reshape(len(masks), width // 8)


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
    n: int, bounds: np.ndarray, vertices: np.ndarray, t: int, band_bytes: int, mask_bytes: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray, int]]:
    """Count how often the parts, laid out by ``bounds`` and ``vertices`` as in a
    :class:`bicliquelab.graphs.BicliqueSystem`, cover each pair of ``n`` vertices.

    Yields ``(lo, covered, over, high)`` per band of rows from vertex ``lo``:
    packed rows of the columns from word ``lo // 64`` on, set where a pair
    is covered at least once (``covered``) and more than t times
    (``over``), and the band's largest count, exact when ``over`` is empty.

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
    the call, so concurrent calls share no state.  Once only a few narrow
    rows are left with many rounds to go, a tail step sums each remaining
    row's masks at once with exact integer arithmetic and the same sticky
    overflow, so a pair in 65,537 parts costs no 65,537 ripples.

    Masks are built for a bounded chunk of parts at a time, so the extra
    memory is about (planes + 1) * n*n/16 bytes for the counters; the
    chunk's mask table (about ``mask_bytes``), which drops each band's
    leading columns in place; a band copy of the counter (about
    ``band_bytes`` per plane); the two round buffers and the tail step's
    chunks (about ``band_bytes`` each); and index arrays linear in the
    vertex-part incidences.  There is no per-pair count array.
    """
    words = (n + 63) // 64
    # no pair is covered more often than there are parts, so a bound above
    # the part count acts as that count and needs no more planes
    t = min(t, len(bounds) // 2)
    digits = t.bit_length()
    bias = (1 << digits) - 1 - t  # bias + t + 1 == 2**digits
    # plane k starts as bit k of the bias in every position: all ones or zeros
    fill = np.array([-(bias >> k & 1) for k in range(digits)] + [0]).astype(WORD)[:, None, None]
    band = max(1, band_bytes // (8 * max(words, 1)))
    # one counter per band of rows, holding the columns from the band's
    # first row on (see above); the last plane is the overflow
    counters = [
        np.broadcast_to(fill, (digits + 1, min(band, n - lo), words - lo // 64)).copy()
        for lo in range(0, n, band)
    ]
    # a chunk's side masks: at most mask_bytes / 8 words, or two rows of
    # under 2**25 words each (vertex ids are int32)
    chunk = max(1, mask_bytes // (16 * max(words, 1)))
    for lo in range(0, len(bounds) // 2, chunk):
        _count_chunk(counters, bounds[2 * lo : 2 * (lo + chunk) + 1], vertices, band, band_bytes)
    for lo, counter in zip(range(0, n, band), counters):
        planes, over = counter[:-1], counter[-1]
        covered = over.copy()  # count > 0: planes no longer hold the bias
        for k, plane in enumerate(planes):
            covered |= ~plane if bias >> k & 1 else plane
        yield lo, covered, over, _plane_max(planes) - bias


def _count_chunk(
    counters: list[np.ndarray], bounds: np.ndarray, vertices: np.ndarray, band: int, scratch: int
) -> None:
    """Add the pair incidences of the parts with side ``bounds`` into the per-band ``counters``.

    Counter i holds rows ``i * band`` on, from column word ``i * band // 64``
    on.  The caller bounds the chunk, so that its mask table (one row per
    side) holds fewer than 2**31 words.  ``scratch`` is the byte size of the
    blocks that move the table's columns and that the tail step sums.
    """
    words = counters[0].shape[2]
    verts = vertices[bounds[0] : bounds[-1]]
    sizes = np.diff(bounds)
    side_of = np.arange(len(sizes), dtype=np.int32).repeat(sizes)
    # side 2i is part i's left, 2i+1 its right; a side's vertices are
    # distinct, so adding bits ORs them; int32 indexes the table (see above)
    masks = np.zeros((len(sizes), words), dtype=WORD)
    np.add.at(masks.reshape(-1), side_of * np.int32(words) + (verts >> 6), BITS[verts & 63])
    # every vertex receives the mask of the opposite side of each of its parts
    order = verts.argsort(kind="stable")
    verts, opposite = verts[order], (side_of ^ 1)[order]
    del order, side_of  # freed before the bands' scratch buffers and mask columns are made
    bounds = np.searchsorted(verts, np.arange(0, len(counters) * band + 1, band))
    for i, counter in enumerate(counters):
        # np.take gathers without copying its whole source only from a
        # C-contiguous one, so the table sheds the columns left of each band
        masks = _drop_columns(masks, masks.shape[1] - counter.shape[2], scratch)
        lo, hi = bounds[i], bounds[i + 1]
        if lo < hi:
            _count_band(counter, verts[lo:hi] - i * band, opposite[lo:hi], masks, scratch)


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
    counter: np.ndarray, verts: np.ndarray, mask_ids: np.ndarray, masks: np.ndarray, scratch: int
) -> None:
    """Add ``masks[mask_ids[i]]`` into row ``verts[i]`` of ``counter``, for all i.

    ``verts`` is sorted; ``masks`` holds the band's columns only, and is
    C-contiguous.  Rows are ordered by decreasing incidence count, so round
    j adds the j-th mask of each of the first ``active[j]`` rows, a
    contiguous prefix.  Each round gathers one mask per row into a scratch
    buffer and adds it with one ripple of half adders up the planes, in
    place between two buffers made once per call, so a round allocates
    nothing; the carry out of the top plane goes to the sticky overflow
    plane.  From the round :func:`_tail_round` picks on, :func:`_add_tail`
    adds each remaining row's masks at once.
    """
    counts = np.bincount(verts)
    degree = counts[counts.nonzero()[0]]
    rank = np.arange(len(verts)) - (degree.cumsum() - degree).repeat(degree)
    # by round, then by decreasing degree; the sort is stable, so ties keep row order
    order = np.lexsort((-degree.repeat(degree), rank))
    mask_ids = mask_ids[order]
    rows = verts[order[: len(degree)]]
    active = len(degree) - np.bincount(degree).cumsum()[:-1]
    starts = np.concatenate(([0], active.cumsum()))  # where each round's masks begin
    width = counter.shape[2]
    tail = _tail_round(active, starts, width, len(counter), scratch)

    # take keeps each plane C-contiguous; counter[:, rows] would interleave them
    local = counter.take(rows, axis=1)
    gathered = np.empty((len(rows), width), dtype=WORD)
    spare = np.empty_like(gathered)
    for lo, c in zip(starts.tolist(), active[:tail].tolist()):
        carry, both = gathered[:c], spare[:c]
        masks.take(mask_ids[lo : lo + c], axis=0, out=carry, mode="clip")
        for plane in local[:-1, :c]:
            np.bitwise_and(plane, carry, out=both)
            plane ^= carry
            carry, both = both, carry
        local[-1, :c] |= carry
    # row i is in rounds 0 .. counts[rows[i]] - 1, and its mask of round k sits at starts[k] + i
    for i in range(int(active[tail]) if tail < len(active) else 0):
        _add_tail(local[:, i], mask_ids[starts[tail : counts[rows[i]]] + i], masks, scratch)
    counter[:, rows] = local


def _tail_round(
    active: np.ndarray, starts: np.ndarray, width: int, planes: int, scratch: int
) -> int:
    """The first round from which :func:`_add_tail` finishes the band's rows.

    Costs are counted in numpy calls, whose fixed overhead dominates small
    rounds.  A round makes about two calls per plane, whatever its size.
    The tail step makes about 16 calls per row left and 4 per chunk of
    ``scratch`` bytes, and it reads each mask word as 64 unpacked bytes,
    which cost one call per ``_CALL_BYTES``.  The tail starts at the first
    round from which it is cheaper than the rounds left: once few narrow
    rows are left with many rounds to go.  Wide bands never take it, since
    a word costs the tail step far more than a round.  The tail step makes
    at least 20 calls, so a band of few rounds never takes it.
    """
    if planes * len(active) <= 10:
        return len(active)
    rounds_left = len(active) - np.arange(len(active))
    bytes_left = (starts[-1] - starts[:-1]) * (64 * width)
    chunks = bytes_left // scratch + active
    cheaper = np.flatnonzero(
        16 * active + 4 * chunks + bytes_left // _CALL_BYTES < 2 * planes * rounds_left
    )
    return int(cheaper[0]) if len(cheaper) else len(active)


def _add_tail(
    counter_row: np.ndarray, mask_ids: np.ndarray, masks: np.ndarray, scratch: int
) -> None:
    """Add ``masks[mask_ids]`` into one row of a counter, its planes and overflow, at once.

    Exact integer arithmetic, the same as one ripple per mask: the masks are
    unpacked to bytes and summed per column as int64, in chunks of about
    ``scratch`` unpacked bytes.  The sum is added to the row's value,
    which is its planes read as an integer; the planes take the new value
    modulo ``2**digits``, and the overflow plane is ORed where the value
    reached ``2**digits``.  Besides the chunks, the scratch is the row's
    planes as int64, which :func:`_tail_round` admits only for rows under
    32 words per plane.
    """
    digits = len(counter_row) - 1
    bits = 64 * counter_row.shape[1]
    shifts = np.arange(digits)[:, None]
    value = (unpack_rows(counter_row[:-1], bits) << shifts).sum(axis=0)
    per = max(1, scratch // bits)
    for lo in range(0, len(mask_ids), per):
        chunk = masks[mask_ids[lo : lo + per]].view(np.uint8)
        value += np.unpackbits(chunk, axis=1, bitorder="little").sum(axis=0, dtype=np.int64)
    counter_row[-1] |= pack_rows(value[None] >> digits != 0)[0]
    counter_row[:-1] = pack_rows((value >> shifts & 1) != 0)


def _plane_max(planes: np.ndarray) -> int:
    """Largest value held in the bit-sliced counter ``planes``, overflow aside."""
    value, candidates = 0, None
    for k in reversed(range(len(planes))):
        hit = planes[k] if candidates is None else candidates & planes[k]
        if hit.any():
            value |= 1 << k
            candidates = hit
    return value
