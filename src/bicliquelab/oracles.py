"""Exact brute-force solvers used as ground truth.

Everything here is exact or it raises: resource guards produce explicit
:class:`ResourceLimitError`, never a silent approximation.  Witnesses are
always returned alongside values so callers can re-verify them without
trusting the search.

Solvers use Python-int bitmasks for vertex sets (bit v = vertex v), so a
search node costs a few integer operations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .graphs import Biclique, BicliqueSystem, Graph
from .packed import iter_bits, mask_of

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

    The next vertex sees the most colors, then has the highest degree, then
    the lowest index: with vertices relabelled in degree order, the lowest
    bit of the top nonempty ``by_sat`` class.  Coloring v with c moves v's
    uncolored neighbours that lacked c up one class.  A new color comes only
    after every used one, so with k = n the result is the greedy coloring.
    """
    n = len(masks)
    order = sorted(range(n), key=lambda u: (-masks[u].bit_count(), u))
    label = sorted(range(n), key=order.__getitem__)  # inverse of order
    adj = [mask_of(label[w] for w in iter_bits(masks[u])) for u in order]
    colors = [-1] * n  # by label
    near: list[int] = []  # near[c]: vertices with a neighbour of color c
    by_sat = [(1 << n) - 1] + [0] * k  # by_sat[s]: uncolored, seeing s colors

    def bt(uncolored: int) -> bool:
        if not uncolored:
            return True
        used = s = len(near)
        while not by_sat[s]:
            s -= 1
        bit = by_sat[s] & -by_sat[s]
        v = bit.bit_length() - 1
        by_sat[s] ^= bit
        saved = by_sat[:]
        for c in range(min(used + 1, k)):
            if c == used:
                near.append(0)
            elif near[c] & bit:
                continue
            gain = adj[v] & uncolored & ~near[c]
            for r in range(s, -1, -1):  # top down: each vertex moves once
                moving = by_sat[r] & gain
                by_sat[r] ^= moving
                by_sat[r + 1] |= moving
            near[c], before = near[c] | adj[v], near[c]
            colors[v] = c
            if bt(uncolored ^ bit):
                return True
            near[c] = before
            by_sat[:] = saved
        del near[used:]
        by_sat[s] |= bit
        return False

    found = bt((1 << n) - 1)
    del bt  # break bt's reference cycle, so its state is freed now
    return [colors[i] for i in label] if found else None


def _all_bicliques(graph: Graph) -> list[Biclique]:
    """Every biclique, deduplicated across side swaps, in the order of the
    assignments (each vertex left, right or out; vertex 0 first).  The right
    sides of L are the submasks of its common neighbourhood above its lowest
    vertex; the sort key spells the assignment in base 4.
    """
    n, full = graph.order, (1 << graph.order) - 1
    masks = graph.neighbor_masks()
    spread = [0] * (1 << n)  # spread[m]: digit 1 at each vertex of m
    common = [full] + [0] * full  # common[L]: vertices adjacent to all of L
    found = []
    for left in range(1, 1 << n):
        low = left & -left
        v = low.bit_length() - 1
        spread[left] = spread[left ^ low] | 1 << 2 * (n - 1 - v)
        common[left] = common[left ^ low] & masks[v]
        right = rights = common[left] & -(low << 1)
        while right:
            found.append((left, right))
            right = (right - 1) & rights
    found.sort(key=lambda lr: 2 * spread[full ^ lr[0] ^ lr[1]] + spread[lr[1]])
    return [Biclique._trusted(tuple(iter_bits(l)), tuple(iter_bits(r))) for l, r in found]


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
    owners = [[bi for bi, m in enumerate(sets) if m >> e & 1] for e in range(len(edges))]
    # no branch holds len(edges) sets (single edges cover in that many): t past it never binds
    chosen = _min_cover(sets, owners, t if t < len(edges) else None)
    return len(chosen), BicliqueSystem(n, tuple(bicliques[i] for i in chosen), t)


def _min_cover(sets: list[int], owners: list[list[int]], t: int | None) -> list[int]:
    """Exact minimum cover of the elements 0..len(owners)-1 by bitmask ``sets``,
    as a list of set indices, via iterative deepening.

    Each node branches on the lowest uncovered element, over ``owners[e]`` in
    order, and skips a set that would put an element in more than ``t``
    chosen sets (``None``: no cap): ``level[k]`` holds the elements in more
    than k chosen sets.  The witness is the first optimum in this order.
    """
    max_size = max(m.bit_count() for m in sets)

    def dfs(remaining: int, room: int, chosen: list[int], level: list[int]) -> list[int] | None:
        # room: sets this branch may still take; enter only children that fit
        e = (remaining & -remaining).bit_length() - 1
        for i in owners[e]:
            m = sets[i]
            if level and m & level[-1]:
                continue
            rest = remaining & ~m
            if not rest:
                return chosen + [i]
            if (rest.bit_count() + max_size - 1) // max_size >= room:
                continue
            chosen.append(i)
            # m lifts its elements one level; every element is below level 0
            res = dfs(rest, room - 1, chosen, [hi | lo & m for lo, hi in zip([-1] + level, level)])
            chosen.pop()
            if res is not None:
                return res
        return None

    limit = (len(owners) + max_size - 1) // max_size
    while (res := dfs((1 << len(owners)) - 1, limit, [], [0] * (t or 0))) is None:
        limit += 1
    del dfs  # break dfs's reference cycle, so its state is freed now
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
    row_cols = [mask_of(np.flatnonzero(row == value).tolist()) for row in mat]
    fullcols = (1 << c) - 1
    seen: set[tuple[int, int]] = set()
    rects: list[Rectangle] = []
    for rs in range(1, 1 << r):
        cols = fullcols
        for i in iter_bits(rs):
            cols &= row_cols[i]
        if cols == 0:
            continue
        rows = mask_of(i for i in range(r) if row_cols[i] & cols == cols)
        if (rows, cols) in seen:
            continue
        seen.add((rows, cols))
        rr, cc = tuple(iter_bits(rows)), tuple(iter_bits(cols))
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
