"""Small-graph corpus and random generators backing the sweep checks.

``all_graphs(n)`` enumerates one representative per isomorphism class on
exactly n vertices, through n = ``CORPUS_ORDER_LIMIT`` (the sweeps use
n <= 6).  Both sides of every swept inequality are isomorphism-invariant,
so class representatives carry the full content of an all-graphs sweep.
"""

from __future__ import annotations

import operator
import random
from functools import lru_cache
from itertools import combinations, permutations

from .errors import ResourceLimitError
from .graphs import Biclique, BicliqueSystem, Graph, verify_biclique_system

CORPUS_ORDER_LIMIT = 7  # past 7 vertices the orbit walk's seen set would not fit in memory


@lru_cache(maxsize=8)
def _class_masks(n: int) -> tuple[int, ...]:
    """Canonical edge-mask representatives of all isomorphism classes on n vertices.

    Walks all edge masks in increasing order; the first mask of each orbit
    under vertex permutations is kept and its whole orbit marked seen.
    """
    pairs = list(combinations(range(n), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    perm_maps = []
    for perm in permutations(range(n)):
        perm_maps.append(
            [pair_index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
        )
    seen: set[int] = set()
    reps: list[int] = []
    for mask in range(1 << len(pairs)):
        if mask in seen:
            continue
        reps.append(mask)
        for pm in perm_maps:
            image = 0
            for i in range(len(pairs)):
                if mask >> i & 1:
                    image |= 1 << pm[i]
            seen.add(image)
    return tuple(reps)


def _mask_to_graph(n: int, mask: int) -> Graph:
    pairs = list(combinations(range(n), 2))
    return Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def all_graphs(n: int) -> list[Graph]:
    """One representative per isomorphism class on exactly n vertices."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > CORPUS_ORDER_LIMIT:
        raise ResourceLimitError("corpus_order_limit", CORPUS_ORDER_LIMIT, n)
    return [_mask_to_graph(n, m) for m in _class_masks(n)]


def graphs_up_to(n: int) -> list[Graph]:
    """Representatives of all isomorphism classes on 1..n vertices."""
    if n > CORPUS_ORDER_LIMIT:
        raise ResourceLimitError("corpus_order_limit", CORPUS_ORDER_LIMIT, n)
    return [g for k in range(1, n + 1) for g in all_graphs(k)]


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Erdos-Renyi sample with edge probability p."""
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_partition(k: int, rng: random.Random) -> BicliqueSystem:
    """A random exact biclique partition of the complete graph on k vertices:
    a star partition taken in a random vertex order."""
    order = list(range(k))
    rng.shuffle(order)
    parts = []
    for i, v in enumerate(order):
        rest = sorted(order[i + 1 :])
        if rest:
            parts.append(Biclique((v,), tuple(rest)))
    return BicliqueSystem(k, tuple(parts), 1)


def random_t_cover(k: int, t: int, rng: random.Random) -> BicliqueSystem:
    """A random valid t-biclique cover of the complete graph on k >= 2 vertices.

    Starts from a random star partition (multiplicity 1 everywhere) and
    adds a few random bicliques, rejecting any addition that would push
    some edge above multiplicity t.  For t = 1 no additions are attempted,
    so the result is a partition.
    """
    k, t = operator.index(k), operator.index(t)
    if t < 1:
        raise ValueError(f"multiplicity bound t = {t} is below 1")
    if k < 2:
        raise ValueError("need k >= 2 so the cover is nonempty")
    base = random_partition(k, rng)
    if t == 1:
        return base
    host = Graph.complete(k)
    parts = list(base)
    extras = rng.randrange(1, t + 2)
    for _ in range(extras * 4):
        if extras == 0:
            break
        size_l = rng.randrange(1, k)
        left = tuple(sorted(rng.sample(range(k), size_l)))
        remaining = sorted(set(range(k)) - set(left))
        if not remaining:
            continue
        size_r = rng.randrange(1, len(remaining) + 1)
        right = tuple(sorted(rng.sample(remaining, size_r)))
        candidate = BicliqueSystem(k, tuple(parts + [Biclique(left, right)]), t)
        if verify_biclique_system(host, candidate).verdict:
            parts.append(Biclique(left, right))
            extras -= 1
    return BicliqueSystem(k, tuple(parts), t)
