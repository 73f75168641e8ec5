"""Exact oracles cross-checked against independent brute force.

The brute-force references here enumerate subsets / colorings / rectangle
sets directly, sharing no code with the branch-and-bound paths they check.
"""

import gc
import hashlib
import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicliquelab.corpus import graphs_up_to, random_graph
from bicliquelab.errors import ResourceLimitError
from bicliquelab.formats import write_system
from bicliquelab.graphs import Biclique, BicliqueSystem, Graph, or_product, star_partition, verify_biclique_system
from bicliquelab.oracles import (
    BoolMatrix,
    _all_bicliques,
    _dsatur,
    _min_cover,
    chromatic_number,
    independence_at_most,
    independence_number,
    min_biclique_partition,
    min_rectangle_cover,
)

C5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])


def brute_alpha(g: Graph) -> int:
    best = 0
    adj = g.adjacency
    for r in range(g.order, 0, -1):
        if r <= best:
            break
        for sub in combinations(range(g.order), r):
            if all(not adj[u, v] for u, v in combinations(sub, 2)):
                best = r
                break
        if best == r:
            break
    return best


def brute_chi(g: Graph) -> int:
    """Smallest k with a proper k-colouring, by a complete backtracking search:
    vertices are coloured in index order, every colour is tried, and a branch
    is cut at its first conflict with an earlier vertex."""
    adj = g.adjacency
    earlier = [[u for u in range(v) if adj[u, v]] for v in range(g.order)]
    colour = [0] * g.order

    def extend(v: int, k: int) -> bool:
        if v == g.order:
            return True
        for c in range(k):
            if all(colour[u] != c for u in earlier[v]):
                colour[v] = c
                if extend(v + 1, k):
                    return True
        return False

    return next(k for k in range(g.order + 1) if extend(0, k))


class TestIndependence:
    def test_complete(self):
        for k in range(1, 6):
            assert independence_number(Graph.complete(k))[0] == 1

    def test_pentagon(self):
        assert independence_number(C5)[0] == 2

    def test_empty_graph(self):
        value, witness = independence_number(Graph.empty(4))
        assert value == 4 and witness == (0, 1, 2, 3)

    def test_witness_is_independent_and_max(self):
        rng = random.Random(99)
        for trial in range(30):
            g = random_graph(rng.randrange(1, 13), rng.random(), rng)
            value, witness = independence_number(g)
            assert len(witness) == value
            assert all(not g.has_edge(u, v) for u, v in combinations(witness, 2))
            assert value == brute_alpha(g)

    def test_complements_of_clique_examples(self):
        # the maximum clique of g is the maximum independent set of its complement
        assert independence_number(Graph.complete(5).complement()) == (5, (0, 1, 2, 3, 4))
        assert independence_number(C5.complement())[0] == 2
        assert independence_number(Graph.empty(3).complement())[0] == 1

    def test_or_product_bound_pentagon(self):
        prod = or_product(C5, C5)
        assert independence_number(prod)[0] <= 4

    def test_order_limit(self):
        with pytest.raises(ResourceLimitError):
            independence_number(Graph.empty(300))

    def test_at_most(self):
        g = C5
        ok, _ = independence_at_most(g, 2)
        assert ok
        ok, witness = independence_at_most(g, 1)
        assert not ok
        assert len(witness) == 2
        assert not g.has_edge(*witness)


class TestChromatic:
    def test_complete(self):
        for k in range(1, 7):
            value, coloring = chromatic_number(Graph.complete(k))
            assert value == k
            assert len(set(coloring)) == k

    def test_odd_cycle(self):
        assert chromatic_number(C5)[0] == 3

    def test_bipartite(self):
        k23 = Graph.from_edges(5, [(u, w) for u in (0, 1) for w in (2, 3, 4)])
        assert chromatic_number(k23)[0] == 2

    def test_coloring_is_proper(self):
        rng = random.Random(5)
        for trial in range(25):
            g = random_graph(rng.randrange(1, 9), rng.random(), rng)
            value, coloring = chromatic_number(g)
            assert all(
                coloring[u] != coloring[v] for u, v in g.edges()
            )
            assert max(coloring) + 1 == value
            assert value == brute_chi(g)

    def test_order_limit(self):
        with pytest.raises(ResourceLimitError):
            chromatic_number(Graph.empty(100))


def brute_min_cover_of_k4_is_not_two_at_t1(bicliques):
    """No pair of bicliques partitions the complete graph on 4 vertices."""
    k4 = Graph.complete(4)
    for a, b in combinations(bicliques, 2):
        sys_ = BicliqueSystem(4, (a, b), 1)
        if verify_biclique_system(k4, sys_).verdict:
            return False
    return True


class TestMinBicliquePartition:
    def test_graham_pollak_floor(self):
        for k in range(2, 7):
            value, witness = min_biclique_partition(Graph.complete(k))
            assert value == k - 1
            assert verify_biclique_system(Graph.complete(k), witness).verdict
            assert len(star_partition(Graph.complete(k)).parts) == value

    def test_bound_past_the_edge_count_acts_as_no_bound(self):
        # a cap of t >= edges never binds; a billion-fold or 700-digit t must
        # not size the search's per-level masks
        for g in (Graph.complete(4), C5, Graph.complete(5)):
            edges = g.edge_count()
            expected = min_biclique_partition(g, edges)
            for t in (edges + 1, 10**9, 10**700):
                value, witness = min_biclique_partition(g, t)
                assert (value, witness.bounds.tolist(), witness.vertices.tolist()) == (
                    expected[0], expected[1].bounds.tolist(), expected[1].vertices.tolist()
                )
                assert witness.multiplicity_bound == t

    def test_k4_floor_cross_checked(self):
        # independent exhaustive check that 2 parts cannot partition K4
        assert brute_min_cover_of_k4_is_not_two_at_t1(_all_bicliques(Graph.complete(4)))
        assert min_biclique_partition(Graph.complete(4))[0] == 3

    def test_bp2_k4(self):
        value, witness = min_biclique_partition(Graph.complete(4), 2)
        assert value == 2
        cert = verify_biclique_system(Graph.complete(4), witness)
        assert cert.verdict

    def test_bp2_k5(self):
        value, witness = min_biclique_partition(Graph.complete(5), 2)
        assert value == 3
        assert verify_biclique_system(Graph.complete(5), witness).verdict

    def test_edgeless(self):
        value, witness = min_biclique_partition(Graph.empty(4))
        assert value == 0 and len(witness.parts) == 0

    def test_relaxing_multiplicity_never_hurts(self):
        for g in graphs_up_to(6):
            v1, _ = min_biclique_partition(g, 1)
            v2, _ = min_biclique_partition(g, 2)
            assert v2 <= v1

    def test_order_limit(self):
        with pytest.raises(ResourceLimitError):
            min_biclique_partition(Graph.complete(9))


def brute_rectangle_cover(matrix: BoolMatrix, value: int, rects) -> int:
    """Smallest sub-multiset of ``rects`` covering all value-cells, by direct
    enumeration over subset sizes."""
    cells = {(int(i), int(j)) for i, j in np.argwhere(matrix.entries == value)}
    if not cells:
        return 0
    for size in range(1, len(rects) + 1):
        for combo in combinations(rects, size):
            covered = set()
            for rows, cols in combo:
                covered.update((i, j) for i in rows for j in cols)
            if cells <= covered:
                return size
    raise AssertionError("maximal rectangles must cover everything")


class TestMinRectangleCover:
    def test_identity_3_zero_cover(self):
        # value frozen after computing it with the independent brute force:
        # each all-zero rectangle of I3 misses one of the 6 off-diagonal
        # cells' rows/columns, so three rectangles are needed
        from bicliquelab.oracles import _maximal_rectangles

        m = BoolMatrix(np.eye(3, dtype=np.uint8))
        rects = _maximal_rectangles(m.entries, 0, 1 << 20)
        assert brute_rectangle_cover(m, 0, rects) == 3
        value, witness = min_rectangle_cover(m, 0)
        assert value == 3
        self._check_witness(m, 0, witness)

    def test_all_ones(self):
        m = BoolMatrix(np.ones((3, 4), dtype=np.uint8))
        assert min_rectangle_cover(m, 1)[0] == 1
        assert min_rectangle_cover(m, 0)[0] == 0

    def test_transpose_symmetry(self):
        rng = random.Random(11)
        for _ in range(20):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            m = BoolMatrix(
                np.array(
                    [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)],
                    dtype=np.uint8,
                )
            )
            for value in (0, 1):
                assert (
                    min_rectangle_cover(m, value)[0]
                    == min_rectangle_cover(BoolMatrix(m.entries.T), value)[0]
                )

    def test_matches_brute_force(self):
        from bicliquelab.oracles import _maximal_rectangles

        rng = random.Random(3)
        for _ in range(15):
            m = BoolMatrix(
                np.array(
                    [[rng.randrange(2) for _ in range(4)] for _ in range(4)],
                    dtype=np.uint8,
                )
            )
            for value in (0, 1):
                rects = _maximal_rectangles(m.entries, value, 1 << 20)
                expected = brute_rectangle_cover(m, value, rects)
                got, witness = min_rectangle_cover(m, value)
                assert got == expected
                self._check_witness(m, value, witness)

    def test_entry_limit(self):
        m = BoolMatrix(np.zeros((9, 9), dtype=np.uint8))
        with pytest.raises(ResourceLimitError):
            min_rectangle_cover(m, 0)

    @staticmethod
    def _check_witness(matrix: BoolMatrix, value: int, witness) -> None:
        covered = set()
        for rows, cols in witness:
            for i in rows:
                for j in cols:
                    assert matrix.entries[i, j] == value
                    covered.add((i, j))
        cells = {(int(i), int(j)) for i, j in np.argwhere(matrix.entries == value)}
        assert covered == cells


def greedy_dsatur_colours(g: Graph) -> int:
    """Colours used by DSATUR's greedy pass (Brelaz 1979): colour next the
    uncoloured vertex with the most distinct neighbour colours, then the
    highest degree, then the lowest index, with the smallest free colour."""
    adj = g.adjacency
    colour = [-1] * g.order
    for _ in range(g.order):
        v = max(
            (u for u in range(g.order) if colour[u] < 0),
            key=lambda u: (
                len({colour[w] for w in range(g.order) if adj[u, w] and colour[w] >= 0}),
                int(adj[u].sum()),
                -u,
            ),
        )
        taken = {colour[w] for w in range(g.order) if adj[v, w]}
        colour[v] = next(c for c in range(g.order) if c not in taken)
    return max(colour, default=-1) + 1


# SHA-256 of the serialized witnesses below, recorded once.  The searches
# must find the same first optimum, not just an optimum of the same value.
WITNESS_SHA256 = {
    "chi": "ecb1a05df6c21814d7664b8824e20802647a88e78e804b1b4322c8f9f8b7786a",
    "bp": "ecf87c16c6c8ecbccc4c823cacfee723970c08d1097fa8550ccfe681ed9d92ff",
    "rect": "170654c52d5effbf842e4daffc2e51fca3b6b523d8350e21abd07fd308bd0238",
}


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(lines).encode("ascii")).hexdigest()


class TestWitnessDigests:
    """Witness bytes of the exact oracles on seeded inputs."""

    def test_chromatic_witnesses(self):
        rng = random.Random(0)
        lines, gaps = [], 0
        for n in range(1, 13):
            for _ in range(40):
                g = random_graph(n, rng.uniform(0.25, 0.75), rng)
                value, coloring = chromatic_number(g)
                gaps += greedy_dsatur_colours(g) > value
                lines.append(f"{n} {list(g.edges())} {value} {coloring}\n")
        assert gaps >= 3  # the k-colouring search, not only the greedy pass, is pinned
        assert _digest(lines) == WITNESS_SHA256["chi"]

    def test_biclique_partition_witnesses(self):
        rng = random.Random(1)
        lines = []
        for n in range(1, 8):
            for _ in range(8):
                g = random_graph(n, rng.uniform(0.2, 0.7), rng)
                for t in (1, 2):
                    value, system = min_biclique_partition(g, t)
                    lines.append(f"{n} {list(g.edges())} {t} {value}\n" + write_system(system))
        assert _digest(lines) == WITNESS_SHA256["bp"]

    def test_rectangle_cover_witnesses(self):
        rng = random.Random(2)
        lines = []
        for _ in range(60):
            rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
            entries = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
            m = BoolMatrix(np.array(entries, dtype=np.uint8))
            for value in (0, 1):
                size, witness = min_rectangle_cover(m, value)
                lines.append(f"{entries} {value} {size} {witness}\n")
        assert _digest(lines) == WITNESS_SHA256["rect"]


def _budget_hit():
    with pytest.raises(ResourceLimitError):
        independence_number(random_graph(40, 0.5, random.Random(3)), node_budget=5)


class TestSearchStateFreed:
    """A search's state is freed when it returns or raises: no recursive
    closure keeps it in a reference cycle for the cyclic collector."""

    SEARCHES = {
        "alpha": lambda: independence_number(random_graph(40, 0.5, random.Random(3))),
        "alpha-budget-hit": _budget_hit,
        "chi": lambda: chromatic_number(random_graph(12, 0.5, random.Random(4))),
        "bp": lambda: min_biclique_partition(random_graph(6, 0.6, random.Random(5)), 1),
        "rect": lambda: min_rectangle_cover(
            BoolMatrix(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)), 1
        ),
    }

    @pytest.mark.parametrize("name", sorted(SEARCHES))
    def test_no_unreachable_objects(self, name):
        gc.collect()
        gc.disable()
        try:
            self.SEARCHES[name]()
            assert gc.collect() == 0
        finally:
            gc.enable()


# Reference copies of the searches as they were before they kept their state
# incrementally: each node rescans what its parent knew.  The searches must
# return exactly what these return, refutations and search order included.


def reference_dsatur(masks: list[int], k: int) -> list[int] | None:
    """DSATUR that recounts every uncoloured vertex's saturation at every node."""
    n = len(masks)
    degree = [m.bit_count() for m in masks]
    colors = [-1] * n
    classes: list[int] = []

    def saturation(u: int) -> int:
        return sum(1 for members in classes if members & masks[u])

    def bt(uncolored: int) -> bool:
        if not uncolored:
            return True
        v = max(
            (u for u in range(n) if uncolored >> u & 1), key=lambda u: (saturation(u), degree[u], -u)
        )
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

    return colors if bt((1 << n) - 1) else None


def reference_all_bicliques(g: Graph) -> list[Biclique]:
    """Every biclique, by walking all 3^n left/right/out assignments in product order."""
    masks = g.neighbor_masks()
    out = []
    for assign in product((0, 1, 2), repeat=g.order):
        left = [v for v in range(g.order) if assign[v] == 0]
        right = [v for v in range(g.order) if assign[v] == 1]
        if not left or not right or left[0] > right[0]:
            continue
        right_mask = sum(1 << v for v in right)
        if all(masks[u] & right_mask == right_mask for u in left):
            out.append(Biclique(tuple(left), tuple(right)))
    return out


def reference_min_cover(sets: list[int], owners: list[list[int]], t: int | None) -> list[int]:
    """Iterative-deepening exact cover that keeps the multiplicity cap as a
    per-element count list, tested and updated one element at a time."""
    universe = (1 << len(owners)) - 1
    max_size = max(m.bit_count() for m in sets)
    counts = [0] * len(owners)

    def members(m: int) -> list[int]:
        return [j for j in range(len(owners)) if m >> j & 1]

    def dfs(covered: int, depth: int, limit: int, chosen: list[int]) -> list[int] | None:
        remaining = universe & ~covered
        if remaining == 0:
            return list(chosen)
        if depth == limit or depth + (remaining.bit_count() + max_size - 1) // max_size > limit:
            return None
        e = (remaining & -remaining).bit_length() - 1
        for i in owners[e]:
            m = sets[i]
            if t is not None and any(counts[j] >= t for j in members(m)):
                continue
            for j in members(m):
                counts[j] += 1
            chosen.append(i)
            res = dfs(covered | m, depth + 1, limit, chosen)
            chosen.pop()
            for j in members(m):
                counts[j] -= 1
            if res is not None:
                return res
        return None

    limit = 1
    while (res := dfs(0, 0, limit, [])) is None:
        limit += 1
    return res


def biclique_cover_sets(g: Graph) -> tuple[list[int], list[list[int]]]:
    """The edge sets of every biclique and each edge's owners, as min_biclique_partition builds them."""
    eidx = {e: i for i, e in enumerate(g.edges())}
    sets = [sum(1 << eidx[e] for e in b.edges()) for b in _all_bicliques(g)]
    return sets, [[i for i, m in enumerate(sets) if m >> e & 1] for e in range(len(eidx))]


@st.composite
def small_graphs(draw, min_order: int = 6, max_order: int = 8, max_edges: int | None = None):
    n = draw(st.integers(min_order, max_order))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return Graph.empty(n)
    return Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges)))


_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


class TestSearchesMatchReferences:
    """The incremental searches return byte for byte what the rescanning
    references return, on every graph up to 5 vertices and on random graphs
    of 6 to 8 vertices."""

    @staticmethod
    def _check_dsatur(g: Graph) -> None:
        masks = g.neighbor_masks()
        colorings = [_dsatur(masks, k) for k in range(g.order + 1)]
        assert colorings == [reference_dsatur(masks, k) for k in range(g.order + 1)]
        # refuted from the clique number up to chi - 1, found from chi on
        chi = chromatic_number(g)[0]
        assert [k for k, c in enumerate(colorings) if c is None] == list(range(chi))

    @staticmethod
    def _check_min_cover(g: Graph) -> None:
        if not g.edge_count():
            return
        sets, owners = biclique_cover_sets(g)
        for t in (1, 2, 3, None):
            assert _min_cover(sets, owners, t) == reference_min_cover(sets, owners, t)

    def test_every_small_graph(self):
        for g in graphs_up_to(5):
            self._check_dsatur(g)
            assert _all_bicliques(g) == reference_all_bicliques(g)
            self._check_min_cover(g)

    @_PROPERTY
    @given(small_graphs())
    def test_dsatur(self, g):
        self._check_dsatur(g)

    @_PROPERTY
    @given(small_graphs())
    def test_all_bicliques(self, g):
        assert _all_bicliques(g) == reference_all_bicliques(g)

    @_PROPERTY
    @given(small_graphs(max_edges=12))
    def test_min_cover(self, g):
        self._check_min_cover(g)


class TestIndependenceAtMost:
    @_PROPERTY
    @given(small_graphs(min_order=1, max_order=12))
    def test_agrees_with_independence_number(self, g):
        alpha = independence_number(g)[0]
        for bound in range(g.order + 1):
            ok, witness = independence_at_most(g, bound)
            assert ok == (alpha <= bound)
            if not ok:
                assert len(set(witness)) == bound + 1
                assert not any(g.has_edge(u, v) for u, v in combinations(witness, 2))
