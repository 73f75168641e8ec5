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

from .errors import FormatError, ResourceLimitError
from .graphs import Biclique, BicliqueSystem, Certificate, Graph
from .gridgraph import DEFAULT_VERTEX_LIMIT


def write_graph(graph: Graph) -> str:
    lines = [f"p edge {graph.order} {graph.edge_count()}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def read_graph(text: str, *, vertex_limit: int = DEFAULT_VERTEX_LIMIT) -> Graph:
    """Parse a DIMACS graph.  A header order above ``vertex_limit`` raises
    ``ResourceLimitError`` before any edge is parsed or any array allocated."""
    order: int | None = None
    expected = 0
    edges: list[tuple[int, int]] = []
    seen_edges: set[tuple[int, int]] = set()
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
            if order > vertex_limit:
                raise ResourceLimitError("vertex_limit", vertex_limit, order)
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
            key = (min(u, v), max(u, v))
            if key in seen_edges:
                raise FormatError(f"duplicate edge in {line!r}", lineno)
            seen_edges.add(key)
            edges.append((u - 1, v - 1))
        else:
            raise FormatError(f"unknown record {fields[0]!r}", lineno)
    if order is None:
        raise FormatError("missing header", lineno + 1)
    if len(edges) != expected:
        raise FormatError(
            f"header promised {expected} edges, found {len(edges)}", lineno + 1
        )
    return Graph.from_edges(order, edges)


def write_system(system: BicliqueSystem) -> str:
    lines = [
        f"bicliquesystem {system.host_order} {len(system.parts)} {system.multiplicity_bound}"
    ]
    for b in system.parts:
        left = " ".join(str(v) for v in b.left)
        right = " ".join(str(v) for v in b.right)
        lines.append(f"part {left} : {right}")
    return "\n".join(lines) + "\n"


def read_system(text: str) -> BicliqueSystem:
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
    parts: list[Biclique] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] != "part" or ":" not in fields:
            raise FormatError(f"bad part line {line!r}", lineno)
        sep = fields.index(":")
        try:
            left = tuple(int(x) for x in fields[1:sep])
            right = tuple(int(x) for x in fields[sep + 1 :])
        except ValueError:
            raise FormatError(f"non-integer vertex in {line!r}", lineno)
        try:
            parts.append(Biclique(left, right))
        except ValueError as exc:
            raise FormatError(str(exc), lineno)
    if len(parts) != nparts:
        raise FormatError(
            f"header promised {nparts} parts, found {len(parts)}", len(lines) + 1
        )
    try:
        return BicliqueSystem(order, tuple(parts), bound)
    except ValueError as exc:
        raise FormatError(str(exc), 1)


def write_certificate(cert: Certificate) -> str:
    payload = {
        "claim": cert.claim,
        "parameters": cert.parameters,
        "verdict": "pass" if cert.verdict else "fail",
        "witness": cert.witness,
    }
    return json.dumps(payload, sort_keys=True, separators=(", ", ": ")) + "\n"
