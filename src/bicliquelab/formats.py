"""Bit-exact text formats for graphs, biclique systems and certificates.

Writers are deterministic byte streams (sorted edges, stable key order).
Graphs and biclique systems are read back with ``read(write(x)) == x``;
certificates are only written.  Parse failures raise :class:`FormatError`
carrying the offending 1-based line number.

Each reader has two routes.  Text exactly as its writer writes it is read
as arrays, a block of whole lines at a time: one regular expression checks
a block and one ``np.fromstring`` reads its numbers.  Any other text, and
such text that fails a check the writer's output always passes, goes to a
parser that reads one line at a time, and that parser alone names errors,
so both routes give one result.

Formats:

* Graph: DIMACS-style.  Header ``p edge N M``, one ``e u v`` line per edge,
  vertices 1-based on disk (internal indices are 0-based), ``c`` comment
  lines tolerated on input.
* Biclique system: header ``bicliquesystem N NPARTS T``, then one line per
  part: ``part u1 u2 ... : w1 w2 ...`` with 0-based sorted sides.
* Certificate: JSON with sorted keys, one trailing newline.
"""

from __future__ import annotations

import json
import re
from array import array
from collections.abc import Iterator
from itertools import islice

import numpy as np

from .errors import FormatError, PartError
from .graphs import (
    DEFAULT_VERTEX_LIMIT, MAX_ORDER, BicliqueSystem, Certificate, Graph, check_vertex_limit
)
from .packed import rows_from_masks, set_bits, zero_rows

_BLOCK = 1 << 12  # per block: edge lines or part-line incidences written, characters read
_TEXT_BLOCK = 1 << 16  # characters per block of a writer's own lines, read as arrays
# the writers' own lines: vertices with no sign and no leading zero, of at
# most 9 digits, so each is below 2**31; a side is never empty, and graph
# vertices are 1-based
_PART_LINES = re.compile(r"(?:part(?: [1-9][0-9]{0,8}| 0)+ :(?: [1-9][0-9]{0,8}| 0)+\n)*")
_EDGE_LINES = re.compile(r"(?:e [1-9][0-9]{0,8} [1-9][0-9]{0,8}\n)*")


def _blocks(text: str, start: int, size: int) -> Iterator[tuple[int, int]]:
    """Spans of ``text`` from ``start`` on, each of about ``size`` characters.

    A span ends just after a ``\\n``, which ends a line break (alone or
    after ``\\r``), or at the end of the text, so no line break is cut.
    """
    while start < len(text):
        end = text.find("\n", start + size - 1) + 1 or len(text)
        yield start, end
        start = end


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text.splitlines()``, split a block of about ``_BLOCK``
    characters at a time, so every line keeps its number."""
    for start, end in _blocks(text, 0, _BLOCK):
        yield from text[start:end].splitlines()


def write_graph(graph: Graph) -> str:
    """The graph as text, its edge lines made and joined ``_BLOCK`` at a time."""
    edges = graph.edges()
    chunks = [f"p edge {graph.order} {graph.edge_count()}\n"]
    while chunk := "".join(f"e {u + 1} {v + 1}\n" for u, v in islice(edges, _BLOCK)):
        chunks.append(chunk)
    return "".join(chunks)


def read_graph(text: str, *, vertex_limit: int = DEFAULT_VERTEX_LIMIT) -> Graph:
    """Parse a DIMACS graph.  A header order above ``vertex_limit`` or the int32 range
    raises ``ResourceLimitError`` before any edge is parsed or any array allocated.

    Text that starts with the header as :func:`write_graph` writes it is
    read as arrays once that header is parsed and guarded (see
    :func:`_read_own_graph`).  Any other text, and such text that is not
    ``write_graph``'s own, is parsed a line at a time (see :func:`_lines`),
    and only that parser names errors, so both routes give one result.
    """
    order: int | None = None
    expected = 0
    masks: list[int] = []  # per vertex, the neighbours read so far as a bitmask
    count = 0
    lineno = 0
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if order is not None:
                raise FormatError("duplicate header", lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise FormatError(f"bad header {line!r}", lineno)
            try:
                order, expected = int(fields[2]), int(fields[3])
            except ValueError:
                raise FormatError(f"non-integer header fields in {line!r}", lineno)
            if order < 0 or expected < 0:
                raise FormatError(f"negative header fields in {line!r}", lineno)
            check_vertex_limit(order, vertex_limit)
            own = f"p edge {order} {expected}\n"
            if text.startswith(own):
                rows = _read_own_graph(text, len(own), order, expected)
                if rows is not None:
                    return Graph._trusted(rows)
            masks = [0] * order
        elif fields[0] == "e":
            if order is None:
                raise FormatError("edge before header", lineno)
            if len(fields) != 3:
                raise FormatError(f"bad edge line {line!r}", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise FormatError(f"non-integer endpoints in {line!r}", lineno)
            if not (1 <= u <= order and 1 <= v <= order) or u == v:
                raise FormatError(f"endpoints out of range in {line!r}", lineno)
            u, v = u - 1, v - 1
            if masks[u] >> v & 1:
                raise FormatError(f"duplicate edge in {line!r}", lineno)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            count += 1
        else:
            raise FormatError(f"unknown record {fields[0]!r}", lineno)
    if order is None:
        raise FormatError("missing header", lineno + 1)
    if count != expected:
        raise FormatError(f"header promised {expected} edges, found {count}", lineno + 1)
    # the masks are symmetric, loop-free and in range by the checks above
    return Graph._trusted(rows_from_masks(masks, order))


def _read_own_graph(text: str, start: int, order: int, expected: int) -> np.ndarray | None:
    """The packed rows of the graph whose edge lines are ``text[start:]``,
    or None unless the lines match ``_EDGE_LINES``, every edge (u, v) has
    u < v <= order, the edges strictly increase in (u, v) across the text,
    which is write_graph's row-major order (so no bit is set twice), and
    ``expected`` of them are read.  It names no error.
    """
    blocks = _own_blocks(text, start, _EDGE_LINES)
    if blocks is None:
        return None
    rows = zero_rows(order, order)
    count = least = 0  # edges read, and the least key the next edge may have
    for lo, hi in blocks:
        values = _numbers(text, lo, hi) - 1  # 0-based
        u, v = values[::2], values[1::2]
        key = u * np.int64(order) + v  # (u, v) in row-major order
        if (u >= v).any() or int(v.max()) >= order:
            return None
        if key[0] < least or (key[1:] <= key[:-1]).any():
            return None
        least = int(key[-1]) + 1
        count += len(u)
        set_bits(rows, u, v)
        set_bits(rows, v, u)
    return rows if count == expected else None


def write_system(system: BicliqueSystem) -> str:
    """The system as text, its part lines made a block of about ``_BLOCK`` incidences at a time.

    Each distinct vertex is named once, never each host vertex (the host
    order may be 2**31 - 1), and a block looks its names up by binary search
    on the sorted distinct vertices, so the scratch is one int32 copy of the
    vertices while they are sorted and a block's names after that.
    """
    lines = [f"bicliquesystem {system.host_order} {len(system)} {system.multiplicity_bound}"]
    # not np.unique: numpy 2.4's takes a hash path, about 4x slower on cover_t2's 983,040 vertices
    distinct = np.sort(system.vertices)
    keep = np.empty(len(distinct), dtype=bool)
    keep[:1] = True
    np.not_equal(distinct[1:], distinct[:-1], out=keep[1:])
    distinct = distinct[keep]
    del keep
    names = np.array([str(v) for v in distinct.tolist()], dtype=object)
    starts = system.bounds[::2]  # where each part begins, then where the last ends
    first = 0
    while first < len(system):
        # whole parts up to a block of incidences, and at least one part
        last = max(first + 1, int(np.searchsorted(starts, starts[first] + _BLOCK, "right")) - 1)
        lo, hi = starts[first], starts[last]
        tokens = names[np.searchsorted(distinct, system.vertices[lo:hi])].tolist()
        bounds = (system.bounds[2 * first : 2 * last + 1] - lo).tolist()
        for start, split, end in zip(bounds[:-1:2], bounds[1::2], bounds[2::2]):
            lines.append(f"part {' '.join(tokens[start:split])} : {' '.join(tokens[split:end])}")
        first = last
    lines.append("")  # the trailing newline, with no second copy of the text
    return "\n".join(lines)


def read_system(text: str) -> BicliqueSystem:
    """Parse a biclique system; sides may be listed in any order.

    Text exactly as :func:`write_system` writes it is read as arrays (see
    :func:`_read_own_text`).  Any other text, and such text that is not a
    valid system of the header's part count, is parsed a line at a time
    (see :func:`_lines`), and only that parser names errors, so both routes
    give one result.  The first bad line is named: a part line that does
    not parse, holds a vertex past the int32 range (which no host order
    admits) or is not a biclique.  Then a part count other than the
    header's is named at the line past the end, and a bad host order, bound
    or out-of-range vertex at line 1.  A host order past the int32 range is
    refused before any part line is read.  The line parser gathers vertices
    in one int32 array, which the system takes over with no copy.
    """
    lines = _lines(text)
    header = next(lines, None)
    if header is None:
        raise FormatError("empty input", 1)
    head = header.split()
    if len(head) != 4 or head[0] != "bicliquesystem":
        raise FormatError(f"bad header {header!r}", 1)
    try:
        order, nparts, bound = int(head[1]), int(head[2]), int(head[3])
    except ValueError:
        raise FormatError(f"non-integer header fields in {header!r}", 1)
    check_vertex_limit(order, MAX_ORDER)
    own = f"bicliquesystem {order} {nparts} {bound}\n"
    if text.startswith(own):
        system = _read_own_text(text, len(own), order, nparts, bound)
        if system is not None:
            return system
    vertices = array("i")  # int32, grown in place
    bounds = [0]  # where each side ends: split, end, split, end, ...
    part_lines: list[int] = []
    error = None
    lineno = 1
    for lineno, raw in enumerate(lines, start=2):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] != "part" or ":" not in fields:
            error = FormatError(f"bad part line {line!r}", lineno)
            break
        sep = fields.index(":")
        try:  # the left side, then the right
            part = array("i", map(int, fields[1:sep] + fields[sep + 1 :]))
        except ValueError:
            error = FormatError(f"non-integer vertex in {line!r}", lineno)
            break
        except OverflowError:
            error = FormatError(f"vertex out of int32 range in {line!r}", lineno)
            break
        bounds += (len(vertices) + sep - 1, len(vertices) + len(part))  # its split and end
        vertices.extend(part)
        part_lines.append(lineno)
    system = held = None
    try:
        system = BicliqueSystem.from_arrays(order, bounds, np.frombuffer(vertices, np.int32), bound)
    except PartError as exc:
        raise FormatError(str(exc), part_lines[exc.part])
    except ValueError as exc:
        held = FormatError(str(exc), 1)  # named only if the text has no other fault
    if error is not None:
        raise error
    if len(part_lines) != nparts:
        raise FormatError(
            f"header promised {nparts} parts, found {len(part_lines)}", lineno + 1
        )
    if held is not None:
        raise held
    return system


def _read_own_text(
    text: str, start: int, order: int, nparts: int, bound: int
) -> BicliqueSystem | None:
    """The system whose part lines are ``text[start:]``, or None unless the
    lines match ``_PART_LINES`` and make a valid system of ``nparts`` parts.
    It names no error.

    Pass 1 counts each block's sides: a space comes before each vertex and
    each ``:``, so the spaces up to each ``:`` and ``\\n`` give the side
    lengths.  Pass 2 fills one int32 vertex array of exactly that length, a
    block at a time.  No copy of the whole text is made.
    """
    blocks = _own_blocks(text, start, _PART_LINES)
    if blocks is None:
        return None
    sizes = [np.zeros(1, dtype=np.int64)]  # bounds[0], then each side's length
    for lo, hi in blocks:
        chars = np.frombuffer(text[lo:hi].encode("ascii"), dtype=np.uint8)
        marks = np.flatnonzero((chars == ord(":")) | (chars == ord("\n")))
        side = np.diff(np.flatnonzero(chars == ord(" ")).searchsorted(marks), prepend=0)
        side[::2] -= 1  # the space before ":"
        sizes.append(side)
    if sum(map(len, sizes)) != 2 * nparts + 1:
        return None
    bounds = np.concatenate(sizes).cumsum()
    del sizes
    vertices = np.empty(int(bounds[-1]), dtype=np.int32)
    end = 0
    for lo, hi in blocks:
        values = _numbers(text, lo, hi)
        vertices[end : end + len(values)] = values
        end += len(values)
    try:
        return BicliqueSystem.from_arrays(order, bounds, vertices, bound)
    except ValueError:  # a PartError too: the per-line parser names the fault
        return None


def _own_blocks(text: str, start: int, lines: re.Pattern) -> list[tuple[int, int]] | None:
    """The spans of ``text`` from ``start`` on, of about ``_TEXT_BLOCK``
    characters of whole lines each, or None unless the text fullmatches
    ``lines``.  It is matched ``_BLOCK`` characters of whole lines at a time:
    the regular expression engine keeps a frame of about 200 bytes for each
    line it matches in one call, 1.4 MiB for 64 KiB of edge lines."""
    if all(lines.fullmatch(text, lo, hi) for lo, hi in _blocks(text, start, _BLOCK)):
        return list(_blocks(text, start, _TEXT_BLOCK))
    return None


def _numbers(text: str, lo: int, hi: int) -> np.ndarray:
    """The numbers of ``text[lo:hi]``, a block that :func:`_own_blocks`
    passed, as int32: less ``part``, ``:`` and ``e``, it is a list of
    numbers.  ``replace`` returns the block itself for a word it lacks, so
    only the words it holds cost a copy."""
    block = text[lo:hi].replace("part", "").replace(":", "").replace("e", "")
    return np.fromstring(block, dtype=np.int32, sep=" ")


def write_certificate(cert: Certificate) -> str:
    payload = {
        "claim": cert.claim,
        "parameters": cert.parameters,
        "verdict": "pass" if cert.verdict else "fail",
        "witness": cert.witness,
    }
    return json.dumps(payload, sort_keys=True, separators=(", ", ": ")) + "\n"
