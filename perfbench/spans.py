"""Outside-in span recorder for the bicliquelab layers.

``SpanRecorder.install`` replaces each traced public function with a timing
wrapper in *every* ``bicliquelab`` module namespace that bound it by name
(``verify_biclique_system`` is imported into ``cli``, ``corpus``, ``algebra``
and ``clis``; ``or_product`` and ``star_partition`` into ``gridgraph``; ...),
so calls made from inside the package are seen as well as the benchmark's own.
``restore`` puts the originals back.  Spans stay in memory; the caller writes
them out when the run ends.

A span is ``[name, start, end, parent, iteration]`` with ``parent`` the index
of the enclosing span (or ``None``).  A layer's self time is its span minus
the spans directly inside it.  Work counts are taken from each call's
arguments and results after the call returns, inside a ``trace.count`` span,
so that counting lands in no layer's self time.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from math import comb
from time import perf_counter

import numpy as np

LAYERS = {
    "gridgraph": (
        "grid_graph",
        "grid_graph_piece",
        "grid_graph_partition",
        "reduced_graph",
        "power_graph_cover",
    ),
    "graphs": ("verify_biclique_system", "or_product", "star_partition"),
    "formats": ("write_system", "read_system", "read_graph", "write_certificate"),
    "oracles": (
        "independence_number",
        "chromatic_number",
        "min_biclique_partition",
        "min_rectangle_cover",
    ),
    "algebra": ("verify_cover_identity", "rank_certificate"),
    "clis": ("chi_lower_bound_check", "yannakakis_protocol", "build_pair_graph"),
    "cube": ("verify_subcube_partition",),
    "cli": ("cmd_demo", "cmd_suite"),
}

TRACED = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)

VERIFY = "graphs.verify_biclique_system"
COUNTS = (
    f"{VERIFY}.vertices",
    f"{VERIFY}.edges",
    f"{VERIFY}.parts",
    f"{VERIFY}.pairs",
    "formats.bytes",
    "algebra.subsets",
    "oracles.vertices",
)


def _verify_counts(args, result):
    graph, system = args["graph"], args["system"]
    return {
        f"{VERIFY}.vertices": graph.order,
        f"{VERIFY}.edges": int(np.count_nonzero(graph.adjacency)) // 2,
        f"{VERIFY}.parts": len(system.parts),
        f"{VERIFY}.pairs": sum(len(b.left) * len(b.right) for b in system.parts),
    }


def _written_bytes(args, result):
    return {"formats.bytes": len(result)}


def _read_bytes(args, result):
    return {"formats.bytes": len(args["text"])}


def _subsets(args, result):
    """Index sets the identity and rank steps walk: sum over s <= t of C(d, s)."""
    cover = args["cover"]
    d, t = len(cover.parts), cover.multiplicity_bound
    return {"algebra.subsets": sum(comb(d, s) for s in range(1, min(t, d) + 1))}


def _oracle_order(args, result):
    return {"oracles.vertices": args["graph"].order}


COUNTERS = {
    VERIFY: _verify_counts,
    "formats.write_system": _written_bytes,
    "formats.write_certificate": _written_bytes,
    "formats.read_system": _read_bytes,
    "formats.read_graph": _read_bytes,
    "algebra.verify_cover_identity": _subsets,
    "algebra.rank_certificate": _subsets,
    "oracles.independence_number": _oracle_order,
    "oracles.chromatic_number": _oracle_order,
    "oracles.min_biclique_partition": _oracle_order,
}


class SpanRecorder:
    """Records one span per traced call while installed."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "bicliquelab" or name.startswith("bicliquelab.")
        ]
        for layer, names in LAYERS.items():
            home = sys.modules[f"bicliquelab.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if vars(module).get(fname) is original:
                        setattr(module, fname, wrapper)
                        self._patched.append((module, fname, original))

    def restore(self) -> None:
        for module, fname, original in reversed(self._patched):
            setattr(module, fname, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(spans)
            span = [name, perf_counter(), None, parent, self.iteration]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                start = perf_counter()
                bound = signature.bind(*args, **kwargs).arguments
                for key, value in counter(bound, result).items():
                    self.counts[key] += value
                spans.append(["trace.count", start, perf_counter(), parent, self.iteration])
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self, verdict_s: float) -> dict:
        """Self time and calls per traced function, the work counts, and the
        part of ``verdict_s`` that no top-level span covers."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s = dict.fromkeys(TRACED, 0.0)
        calls = dict.fromkeys(TRACED, 0)
        covered = 0.0
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            if parent is None:
                covered += end - start
            if name in self_s:
                self_s[name] += end - start - child_time[sid]
                calls[name] += 1
        return {
            "self_s": self_s,
            "calls": calls,
            "counts": {key: self.counts.get(key, 0) for key in COUNTS},
            "unattributed_s": verdict_s - covered,
        }
