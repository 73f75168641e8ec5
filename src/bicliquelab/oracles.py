"""Exact brute-force solvers used as ground truth.

Everything here is exact or it raises: resource guards produce explicit
:class:`ResourceLimitError`, never a silent approximation.  Witnesses are
always returned alongside values so callers can re-verify them without
trusting the search.

Solvers use Python-int bitmasks for vertex sets (bit v = vertex v), so a
search node costs a few integer operations.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .graphs import Biclique, BicliqueSystem, Graph
from .packed import iter_bits, mask_of

ALPHA_ORDER_LIMIT = 2500
CHI_ORDER_LIMIT = 64
BP_ORDER_LIMIT = 8
RECT_ENTRY_LIMIT = 64
RECT_BUDGET = 1 << 20


@dataclass(frozen=True)
class BoolMatrix:
    """A rectangular 0/1 matrix: a read-only uint8 copy of a bool or integer array."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries)
        if arr.ndim != 2:
            raise ValueError(f"matrix must be 2-dimensional, got shape {arr.shape}")
        if arr.dtype.kind not in "biu" or arr.size and not 0 <= arr.min() <= arr.max() <= 1:
            raise ValueError("matrix entries must be 0 or 1")
        arr = arr.astype(np.uint8)
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BoolMatrix) and np.array_equal(self.entries, other.entries)

    def __repr__(self) -> str:
        return "BoolMatrix({}x{})".format(*self.entries.shape)


def _max_clique_masks(
    apart: list[int], prime: int, node_budget: int | None
) -> tuple[int, list[int] | None]:
    """Maximum clique via branch and bound with a greedy-coloring upper bound.

    ``apart[v]`` is the mask of the vertices other than v that are not
    adjacent to v, so a color class grows by one AND and a branch's
    candidates are ``cand & ~apart[v]`` less v.  ``prime`` seeds the
    incumbent size; only strictly larger cliques are reported, so a return
    of (prime, None) proves no clique exceeds prime.

    Each node colors all its candidates, but lists for branching only the
    vertices of classes that could beat the incumbent: ``size + color >
    best``.  Branching goes from the last listed vertex back and stops at
    the first whose class cannot beat ``best``; classes are listed in
    increasing color and ``best`` only grows, so an unlisted class would
    only have been reached to stop there, and no branch changes.

    ``expand`` recurses once per clique vertex, so a search that must go
    deeper than Python's recursion limit raises :class:`ResourceLimitError`
    ``clique_search_depth``, naming the depth it was refused at.
    """
    best = prime
    best_set: list[int] | None = None
    nodes = 0
    stack: list[int] = []  # the clique being extended; its length is the depth

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
            listed = size + color > best
            while avail:
                bit = avail & -avail
                v = bit.bit_length() - 1
                if listed:
                    order.append((v, color))
                uncolored ^= bit
                avail &= apart[v]
        for v, c in reversed(order):
            if size + c <= best:
                return
            rest = cand & ~apart[v] ^ 1 << v
            stack.append(v)
            if size + 1 > best and rest == 0:
                best = size + 1
                best_set = list(stack)
            if rest:
                expand(size + 1, stack, rest)
            stack.pop()
            cand ^= 1 << v

    try:
        expand(0, stack, (1 << len(apart)) - 1)
    except RecursionError:
        # frames unwind without popping, so the stack holds the refused node's clique
        raise ResourceLimitError("clique_search_depth", len(stack) - 1, len(stack)) from None
    finally:
        # expand's closure refers to expand; deleting it breaks that cycle,
        # so the search state is freed now, budget hit or not
        del expand
    return best, best_set


def _max_clique(apart: list[int], node_budget: int | None) -> tuple[int, tuple[int, ...]]:
    """Exact maximum clique with a sorted witness, over non-neighbour masks
    ``apart`` (see :func:`_max_clique_masks`): a greedy clique by descending
    degree, that is by ascending ``apart`` count, primes the branch and bound."""
    seed: list[int] = []
    cand = (1 << len(apart)) - 1
    for v in sorted(range(len(apart)), key=lambda v: (apart[v].bit_count(), v)):
        if cand >> v & 1:
            seed.append(v)
            cand &= ~apart[v] ^ 1 << v
    best, found = _max_clique_masks(apart, len(seed), node_budget)
    return best, tuple(sorted(found if found is not None else seed))


def independence_number(
    graph: Graph, *, node_budget: int | None = None
) -> tuple[int, tuple[int, ...]]:
    """Exact independence number with one maximum independent set as witness.

    Runs maximum clique on the complement.  The complement's non-neighbours
    of v are v's neighbours in ``graph``, so the search reads
    ``graph.neighbor_masks()`` and no complement is built.
    ``ALPHA_ORDER_LIMIT`` admits the 2,187-vertex grid graph at n=3, the
    largest the demo builds under its default vertex limit; larger graphs
    are refused.
    """
    n = graph.order
    if n > ALPHA_ORDER_LIMIT:
        raise ResourceLimitError("alpha_order_limit", ALPHA_ORDER_LIMIT, n)
    return _max_clique(graph.neighbor_masks(), node_budget)


def independence_at_most(
    graph: Graph, bound: int, *, node_budget: int | None = None
) -> tuple[bool, tuple[int, ...] | None]:
    """Prove alpha(graph) <= bound, or produce an independent set of size bound+1.

    The search is primed at ``bound`` so the branch and bound only explores
    branches that could beat it; no order guard, since the cutoff makes
    large structured instances tractable.
    """
    _, found = _max_clique_masks(graph.neighbor_masks(), bound, node_budget)
    if found is None:
        return True, None
    return False, tuple(sorted(found[: bound + 1]))


def chromatic_number(graph: Graph) -> tuple[int, list[int]]:
    """Exact chromatic number with a proper coloring achieving it.

    Max-clique lower bound, DSATUR greedy upper bound, then k-colorability
    backtracking on the gap.  Colors are 0-based.
    """
    n = graph.order
    if n > CHI_ORDER_LIMIT:
        raise ResourceLimitError("chi_order_limit", CHI_ORDER_LIMIT, n)
    lb = _max_clique(graph.complement().neighbor_masks(), None)[0]
    masks = graph.neighbor_masks()
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


def min_biclique_partition(graph: Graph, t: int = 1) -> tuple[int, BicliqueSystem]:
    """Exact minimum size of a t-biclique cover (t=1: exact partition), with witness.

    Iterative deepening over the cover size; at each node the search
    branches on the bicliques that contain the first uncovered edge and
    still fit under the per-edge multiplicity bound.  The witness is the
    first optimum in deterministic search order, so reruns are bit-stable.
    """
    t = operator.index(t)
    if t < 1:
        raise ValueError("t must be >= 1")
    n = graph.order
    if n > BP_ORDER_LIMIT:
        raise ResourceLimitError("bp_order_limit", BP_ORDER_LIMIT, n)
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


def _maximal_rectangles(entries: np.ndarray, value: int) -> list[Rectangle]:
    """All maximal constant-``value`` rectangles (row set x column set).

    Iterates over subsets of the smaller dimension and closes each one:
    every maximal rectangle is the closure of its own row (or column) set,
    so nothing is missed.
    """
    transposed = entries.shape[0] > entries.shape[1]
    mat = entries.T if transposed else entries
    r, c = mat.shape
    if 1 << r > RECT_BUDGET:
        raise ResourceLimitError("rect_budget", RECT_BUDGET, 1 << r)
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


def min_rectangle_cover(matrix: BoolMatrix, value: int) -> tuple[int, list[Rectangle]]:
    """Exact minimum number of constant-``value`` rectangles covering all
    ``value`` entries (overlaps allowed), with a witness list of rectangles.

    Solved as exact set cover over the maximal monochromatic rectangles;
    any rectangle extends to a maximal one, so the optimum is unchanged.
    """
    if value not in (0, 1):
        raise ValueError("value must be 0 or 1")
    hits = matrix.entries == value
    count = int(np.count_nonzero(hits))  # refused before any Python cell is made
    if not count:
        return 0, []
    if count > RECT_ENTRY_LIMIT:
        raise ResourceLimitError("rect_entry_limit", RECT_ENTRY_LIMIT, count)
    cells = [(int(i), int(j)) for i, j in np.argwhere(hits)]
    rects = _maximal_rectangles(matrix.entries, value)
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
