"""Bit-exact text formats for graphs, biclique systems and certificates.

Writers are deterministic byte streams (sorted edges, stable key order).
Graphs and biclique systems are read back with ``read(write(x)) == x``;
certificates are only written.  Parse failures raise :class:`FormatError`
carrying the offending 1-based line number.

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
from array import array

import numpy as np

from .errors import FormatError, PartError
from .graphs import (
    DEFAULT_VERTEX_LIMIT, MAX_ORDER, BicliqueSystem, Certificate, Graph, check_vertex_limit
)
from .packed import rows_from_masks


def write_graph(graph: Graph) -> str:
    lines = [f"p edge {graph.order} {graph.edge_count()}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def read_graph(text: str, *, vertex_limit: int = DEFAULT_VERTEX_LIMIT) -> Graph:
    """Parse a DIMACS graph.  A header order above ``vertex_limit`` or the int32 range
    raises ``ResourceLimitError`` before any edge is parsed or any array allocated."""
    order: int | None = None
    expected = 0
    masks: list[int] = []  # per vertex, the neighbours read so far as a bitmask
    count = 0
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


def write_system(system: BicliqueSystem) -> str:
    lines = [f"bicliquesystem {system.host_order} {len(system)} {system.multiplicity_bound}"]
    # one string per distinct vertex, never one per host vertex (the host
    # order may be 2**31 - 1); the stable sort is the verifier's, so a small
    # run pages in no second sort's code, as np.unique would
    order = system.vertices.argsort(kind="stable")
    ordered = system.vertices[order]
    runs = np.flatnonzero(np.diff(ordered, prepend=-1))  # where each distinct vertex begins
    names = np.array([str(v) for v in ordered[runs].tolist()], dtype=object)
    del ordered  # each incidence-sized array is freed once read
    tokens = np.empty(len(order), dtype=object)
    tokens[order] = names.repeat(np.diff(runs, append=len(order)))
    del order
    tokens = tokens.tolist()
    bounds = system.bounds.tolist()
    for start, split, end in zip(bounds[:-1:2], bounds[1::2], bounds[2::2]):
        lines.append(f"part {' '.join(tokens[start:split])} : {' '.join(tokens[split:end])}")
    return "\n".join(lines) + "\n"


def read_system(text: str) -> BicliqueSystem:
    """Parse a biclique system; sides may be listed in any order.

    The first bad line is named: a part line that does not parse or is not
    a biclique.  Then a part count other than the header's is named at the
    line past the end, and a bad host order, bound or out-of-range vertex at
    line 1.  Vertices beyond the int64 range are refused at their line.  A
    host order past the int32 range is refused before any part line is read.
    """
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty input", 1)
    head = lines[0].split()
    if len(head) != 4 or head[0] != "bicliquesystem":
        raise FormatError(f"bad header {lines[0]!r}", 1)
    try:
        order, nparts, bound = int(head[1]), int(head[2]), int(head[3])
    except ValueError:
        raise FormatError(f"non-integer header fields in {lines[0]!r}", 1)
    check_vertex_limit(order, MAX_ORDER)
    vertices = array("q")  # int64, grown in place
    bounds = [0]  # where each side ends: split, end, split, end, ...
    part_lines: list[int] = []
    error = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] != "part" or ":" not in fields:
            error = FormatError(f"bad part line {line!r}", lineno)
            break
        sep = fields.index(":")
        try:
            # each token is read as by int(), into int64
            left = np.array(fields[1:sep], dtype=np.int64)
            right = np.array(fields[sep + 1 :], dtype=np.int64)
        except ValueError:
            error = FormatError(f"non-integer vertex in {line!r}", lineno)
            break
        except OverflowError:
            error = FormatError(f"vertex out of int64 range in {line!r}", lineno)
            break
        for side in (left, right):
            vertices.frombytes(side.tobytes())
            bounds.append(len(vertices))
        part_lines.append(lineno)
    system = held = None
    try:
        system = BicliqueSystem.from_arrays(
            order, bounds, np.frombuffer(vertices, dtype=np.int64), bound
        )
    except PartError as exc:
        raise FormatError(str(exc), part_lines[exc.part])
    except ValueError as exc:
        held = FormatError(str(exc), 1)  # named only if the text has no other fault
    if error is not None:
        raise error
    if len(part_lines) != nparts:
        raise FormatError(
            f"header promised {nparts} parts, found {len(part_lines)}", len(lines) + 1
        )
    if held is not None:
        raise held
    return system


def write_certificate(cert: Certificate) -> str:
    payload = {
        "claim": cert.claim,
        "parameters": cert.parameters,
        "verdict": "pass" if cert.verdict else "fail",
        "witness": cert.witness,
    }
    return json.dumps(payload, sort_keys=True, separators=(", ", ": ")) + "\n"
