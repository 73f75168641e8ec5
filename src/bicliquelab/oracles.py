"""Exact brute-force solvers used as ground truth.

Everything here is exact or it raises: resource guards produce explicit
:class:`ResourceLimitError`, never a silent approximation.  Witnesses are
always returned alongside values so callers can re-verify them without
trusting the search.

Solvers use Python-int bitmasks for vertex sets (bit v = vertex v), which
keeps the branch-and-bound loops allocation-free.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

import numpy as np

from .errors import ResourceLimitError
from .graphs import Biclique, BicliqueSystem, Graph

DEFAULT_ALPHA_ORDER_LIMIT = 256
DEFAULT_CHI_ORDER_LIMIT = 64
DEFAULT_BP_ORDER_LIMIT = 8
DEFAULT_RECT_ENTRY_LIMIT = 64
DEFAULT_RECT_BUDGET = 1 << 20


@dataclass(frozen=True)
class BoolMatrix:
    """A rectangular 0/1 matrix backed by a read-only uint8 array."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError(f"matrix must be 2-dimensional, got shape {arr.shape}")
        if arr.size and int(arr.max()) > 1:
            raise ValueError("matrix entries must be 0 or 1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BoolMatrix) and np.array_equal(self.entries, other.entries)

    def __repr__(self) -> str:
        return f"BoolMatrix({self.rows}x{self.cols})"


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(vertices: Iterable[int]) -> int:
    """The vertex set as a bitmask (bit v = vertex v)."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _max_clique_masks(
    masks: list[int], prime: int, node_budget: int | None
) -> tuple[int, list[int] | None]:
    """Maximum clique via branch and bound with a greedy-coloring upper bound.

    ``prime`` seeds the incumbent size; only strictly larger cliques are
    reported, so a return of (prime, None) proves no clique exceeds prime.
    """
    best = prime
    best_set: list[int] | None = None
    nodes = 0

    def expand(size: int, stack: list[int], cand: int) -> None:
        nonlocal best, best_set, nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise ResourceLimitError("oracle_node_budget", node_budget, nodes)
        # greedy-color the candidates; a vertex with color c caps any clique
        # through it at size + c
        order: list[tuple[int, int]] = []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append((v, color))
                uncolored &= ~(1 << v)
                avail &= ~masks[v] & uncolored
        for v, c in reversed(order):
            if size + c <= best:
                return
            rest = cand & masks[v]
            stack.append(v)
            if size + 1 > best and rest == 0:
                best = size + 1
                best_set = list(stack)
            if rest:
                expand(size + 1, stack, rest)
            stack.pop()
            cand &= ~(1 << v)

    try:
        expand(0, [], (1 << len(masks)) - 1)
    finally:
        # expand's closure refers to expand; deleting it breaks that cycle,
        # so the search state is freed now, budget hit or not
        del expand
    return best, best_set


def _max_clique(masks: list[int], node_budget: int | None) -> tuple[int, tuple[int, ...]]:
    """Exact maximum clique with a sorted witness: a greedy clique by
    descending degree primes the branch and bound."""
    seed: list[int] = []
    cand = (1 << len(masks)) - 1
    for v in sorted(range(len(masks)), key=lambda v: (-masks[v].bit_count(), v)):
        if cand >> v & 1:
            seed.append(v)
            cand &= masks[v]
    best, found = _max_clique_masks(masks, len(seed), node_budget)
    return best, tuple(sorted(found if found is not None else seed))


def independence_number(
    graph: Graph,
    *,
    order_limit: int = DEFAULT_ALPHA_ORDER_LIMIT,
    node_budget: int | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Exact independence number with one maximum independent set as witness.

    Runs maximum clique on the complement.  Milliseconds up to a few
    hundred vertices on structured instances; raise ``order_limit``
    explicitly for larger graphs.
    """
    n = graph.order
    if n > order_limit:
        raise ResourceLimitError("alpha_order_limit", order_limit, n)
    return _max_clique(graph.complement().neighbor_masks(), node_budget)


def independence_at_most(
    graph: Graph, bound: int, *, node_budget: int | None = None
) -> tuple[bool, tuple[int, ...] | None]:
    """Prove alpha(graph) <= bound, or produce an independent set of size bound+1.

    The search is primed at ``bound`` so the branch and bound only explores
    branches that could beat it; no order guard, since the cutoff makes
    large structured instances tractable.
    """
    _, found = _max_clique_masks(graph.complement().neighbor_masks(), bound, node_budget)
    if found is None:
        return True, None
    return False, tuple(sorted(found[: bound + 1]))


def chromatic_number(
    graph: Graph, *, order_limit: int = DEFAULT_CHI_ORDER_LIMIT
) -> tuple[int, list[int]]:
    """Exact chromatic number with a proper coloring achieving it.

    Max-clique lower bound, DSATUR greedy upper bound, then k-colorability
    backtracking on the gap.  Colors are 0-based.
    """
    n = graph.order
    if n > order_limit:
        raise ResourceLimitError("chi_order_limit", order_limit, n)
    masks = graph.neighbor_masks()
    lb = _max_clique(masks, None)[0]
    greedy = _dsatur(masks, n)
    ub = max(greedy, default=-1) + 1
    for k in range(lb, ub):
        colors = _dsatur(masks, k)
        if colors is not None:
            return k, colors
    return ub, greedy


def _dsatur(masks: list[int], k: int) -> list[int] | None:
    """Backtracking DSATUR (Brelaz 1979): a proper coloring with at most k
    colors, or None if there is none.

    The next vertex has the most distinct neighbour colors, then the highest
    degree, then the lowest index.  Colors are tried in order and a new one
    only after every used one, so with k = n nothing backtracks and the
    result is DSATUR's greedy coloring.
    """
    n = len(masks)
    degree = [m.bit_count() for m in masks]
    colors = [-1] * n
    classes: list[int] = []  # vertex mask of each color

    def saturation(u: int) -> int:
        return sum(1 for members in classes if members & masks[u])

    def bt(uncolored: int) -> bool:
        if not uncolored:
            return True
        v = max(_iter_bits(uncolored), key=lambda u: (saturation(u), degree[u], -u))
        rest = uncolored & ~(1 << v)
        used = len(classes)
        for c in range(min(used + 1, k)):
            if c == used:
                classes.append(0)
            elif classes[c] & masks[v]:
                continue
            classes[c] |= 1 << v
            colors[v] = c
            if bt(rest):
                return True
            classes[c] &= ~(1 << v)
        del classes[used:]
        return False

    found = bt((1 << n) - 1)
    # bt's closure refers to bt; deleting it breaks that cycle, so the search
    # state is freed now and not at the next cyclic garbage collection.
    del bt
    return colors if found else None


def _all_bicliques(graph: Graph) -> list[Biclique]:
    """Every biclique of the graph, deduplicated across side swaps, in a
    deterministic order (each vertex goes left, right, or out)."""
    n = graph.order
    masks = graph.neighbor_masks()
    out = []
    for assign in product((0, 1, 2), repeat=n):
        left = [v for v in range(n) if assign[v] == 0]
        right = [v for v in range(n) if assign[v] == 1]
        if not left or not right or left[0] > right[0]:
            continue
        right_mask = _mask_of(right)
        if all(masks[u] & right_mask == right_mask for u in left):
            out.append(Biclique(tuple(left), tuple(right)))
    return out


def min_biclique_partition(
    graph: Graph, t: int = 1, *, order_limit: int = DEFAULT_BP_ORDER_LIMIT
) -> tuple[int, BicliqueSystem]:
    """Exact minimum size of a t-biclique cover (t=1: exact partition), with witness.

    Iterative deepening over the cover size; at each node the search
    branches on the bicliques that contain the first uncovered edge and
    still fit under the per-edge multiplicity bound.  The witness is the
    first optimum in deterministic search order, so reruns are bit-stable.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    n = graph.order
    if n > order_limit:
        raise ResourceLimitError("bp_order_limit", order_limit, n)
    edges = list(graph.edges())
    if not edges:
        return 0, BicliqueSystem(n, (), t)
    eidx = {e: i for i, e in enumerate(edges)}
    bicliques = _all_bicliques(graph)
    sets = [sum(1 << eidx[e] for e in b.edges()) for b in bicliques]
    owners: list[list[int]] = [[] for _ in edges]
    for bi, m in enumerate(sets):
        for e in _iter_bits(m):
            owners[e].append(bi)
    chosen = _min_cover(sets, owners, t)
    return len(chosen), BicliqueSystem(n, tuple(bicliques[i] for i in chosen), t)


def _min_cover(sets: list[int], owners: list[list[int]], t: int | None) -> list[int]:
    """Exact minimum cover of the elements 0..len(owners)-1 by bitmask ``sets``,
    as a list of set indices, via iterative deepening.

    Each node branches on the lowest uncovered element, over ``owners[e]`` (the
    sets holding e) in order, and skips any set that would put an element in
    more than ``t`` chosen sets (``None``: no cap).  The witness is the first
    optimum in this order, so reruns are bit-stable.
    """
    universe = (1 << len(owners)) - 1
    max_size = max(m.bit_count() for m in sets)
    counts = [0] * len(owners)

    def dfs(covered: int, depth: int, limit: int, chosen: list[int]) -> list[int] | None:
        remaining = universe & ~covered
        if remaining == 0:
            return list(chosen)
        if depth == limit or depth + (remaining.bit_count() + max_size - 1) // max_size > limit:
            return None
        e = (remaining & -remaining).bit_length() - 1
        for i in owners[e]:
            m = sets[i]
            if t is not None and any(counts[j] >= t for j in _iter_bits(m)):
                continue
            for j in _iter_bits(m):
                counts[j] += 1
            chosen.append(i)
            res = dfs(covered | m, depth + 1, limit, chosen)
            chosen.pop()
            for j in _iter_bits(m):
                counts[j] -= 1
            if res is not None:
                return res
        return None

    limit = 1
    while (res := dfs(0, 0, limit, [])) is None:
        limit += 1
    # dfs's closure refers to dfs; deleting it breaks that cycle, so the
    # search state is freed now
    del dfs
    return res


Rectangle = tuple[tuple[int, ...], tuple[int, ...]]


def _maximal_rectangles(
    entries: np.ndarray, value: int, budget: int
) -> list[Rectangle]:
    """All maximal constant-``value`` rectangles (row set x column set).

    Iterates over subsets of the smaller dimension and closes each one:
    every maximal rectangle is the closure of its own row (or column) set,
    so nothing is missed.
    """
    transposed = entries.shape[0] > entries.shape[1]
    mat = entries.T if transposed else entries
    r, c = mat.shape
    if 1 << r > budget:
        raise ResourceLimitError("rectangle_budget", budget, 1 << r)
    # column mask of allowed columns per row
    row_cols = []
    for i in range(r):
        m = 0
        for j in range(c):
            if mat[i, j] == value:
                m |= 1 << j
        row_cols.append(m)
    fullcols = (1 << c) - 1
    seen: set[tuple[int, int]] = set()
    rects: list[Rectangle] = []
    for rs in range(1, 1 << r):
        cols = fullcols
        for i in _iter_bits(rs):
            cols &= row_cols[i]
        if cols == 0:
            continue
        rows = 0
        for i in range(r):
            if row_cols[i] & cols == cols:
                rows |= 1 << i
        key = (rows, cols)
        if key in seen:
            continue
        seen.add(key)
        rr = tuple(_iter_bits(rows))
        cc = tuple(_iter_bits(cols))
        rects.append((cc, rr) if transposed else (rr, cc))
    return rects


def min_rectangle_cover(
    matrix: BoolMatrix,
    value: int,
    *,
    entry_limit: int = DEFAULT_RECT_ENTRY_LIMIT,
    budget: int = DEFAULT_RECT_BUDGET,
) -> tuple[int, list[Rectangle]]:
    """Exact minimum number of constant-``value`` rectangles covering all
    ``value`` entries (overlaps allowed), with a witness list of rectangles.

    Solved as exact set cover over the maximal monochromatic rectangles;
    any rectangle extends to a maximal one, so the optimum is unchanged.
    """
    if value not in (0, 1):
        raise ValueError("value must be 0 or 1")
    cells = [(int(i), int(j)) for i, j in np.argwhere(matrix.entries == value)]
    if not cells:
        return 0, []
    if len(cells) > entry_limit:
        raise ResourceLimitError("rectangle_entry_limit", entry_limit, len(cells))
    rects = _maximal_rectangles(matrix.entries, value, budget)
    # Branch on the cell with the fewest owning rectangles, ties to the lowest:
    # owner counts never change, so with cells labelled in that order it is
    # always the lowest uncovered label.
    owner_count = Counter((i, j) for rows, cols in rects for i in rows for j in cols)
    label = {cell: e for e, cell in enumerate(sorted(cells, key=lambda c: (owner_count[c], c)))}
    sets = [sum(1 << label[(i, j)] for i in rows for j in cols) for rows, cols in rects]
    owners = [
        sorted((r for r, m in enumerate(sets) if m >> e & 1), key=lambda r: -sets[r].bit_count())
        for e in range(len(cells))
    ]
    chosen = _min_cover(sets, owners, None)
    return len(chosen), [rects[i] for i in chosen]
