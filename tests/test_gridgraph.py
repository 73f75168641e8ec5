"""The grid-graph family: construction, pieces, reductions, partition, powers."""

import functools
import random
from itertools import product

import numpy as np
import pytest

from bicliquelab.algebra import split_intersection
from bicliquelab.corpus import random_t_cover
from bicliquelab.cube import CubeSet, Subcube, admissible_set, decompose_admissible_set
from bicliquelab.errors import ResourceLimitError
from bicliquelab.graphs import (
    Biclique, BicliqueSystem, Graph, blowup, or_product, verify_biclique_system
)
from bicliquelab.gridgraph import (
    GridGraphSpec,
    grid_graph,
    grid_graph_partition,
    grid_graph_piece,
    power_graph_cover,
    projection_dichotomy,
    reduced_graph,
)
from bicliquelab.oracles import min_biclique_partition


def diff_pattern(x, y):
    """Coordinatewise disagreement pattern: bit i is 1 exactly when x_i != y_i."""
    return tuple(int(a != b) for a, b in zip(x, y, strict=True))


@pytest.mark.parametrize(
    "call",
    [
        lambda: Subcube.of(7, {1.7: 0.9}),
        lambda: split_intersection(BicliqueSystem(2, (Biclique((0,), (1,)),), 1), [1.9]),
        lambda: min_biclique_partition(Graph.complete(3), 1.5),
        lambda: random_t_cover(3, 1.5, random.Random(0)),
        lambda: power_graph_cover(2.0, 1),
        lambda: GridGraphSpec(2.0, 7, admissible_set()),
        lambda: CubeSet(2, frozenset({(1.0, 0)})),
    ],
    ids=["subcube-position", "part-index", "bp-multiplicity", "cover-multiplicity",
         "power-n", "spec-n", "cube-bit"],
)
def test_non_integer_index_refused(call):
    # truncating 1.7 to 1 would silently answer for a different index
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


class TestGridGraph:
    def test_n1_trivial(self):
        g = grid_graph(1)
        assert g.order == 1 and g.edge_count() == 0

    def test_n2_counts(self):
        # every admissible pattern contributes exactly (n-1)^weight = 1
        # neighbor at n=2, so the graph is |admissible set|-regular
        g = grid_graph(2)
        assert g.order == 128
        degrees = g.adjacency.sum(axis=1)
        assert (degrees == 120).all()
        assert g.edge_count() == 7680

    def test_degree_formula_n3(self):
        # independent derivation: degree = sum over patterns of 2^weight
        expected = sum(2 ** sum(s) for s in admissible_set().members)
        g = grid_graph(3)
        degrees = g.adjacency.sum(axis=1)
        assert (degrees == expected).all()

    def test_adjacency_matches_definition_spot_checks(self):
        adj = grid_graph(2).adjacency
        pts = list(product((1, 2), repeat=7))
        allowed = admissible_set()
        rng = np.random.default_rng(42)
        for _ in range(300):
            i, j = rng.integers(0, 128, size=2)
            expected = i != j and diff_pattern(pts[i], pts[j]) in allowed
            assert adj[i, j] == expected

    def test_all_ones_adjacent_to_all_twos(self):
        # vertices 0 and 127 are (1,) * 7 and (2,) * 7, the ends of product order
        assert grid_graph(2).adjacency[0, 127]

    def test_vertex_limit(self):
        with pytest.raises(ResourceLimitError):
            grid_graph(4)
        with pytest.raises(ResourceLimitError):
            grid_graph(2, vertex_limit=100)


class TestGridGraphSpec:
    def test_realize_matches_fast_path(self):
        # the pieces are built from their subcubes, not through realize;
        # their union must be the realized graph
        union = np.zeros_like(grid_graph_piece(2, decompose_admissible_set()[0]).rows)
        for piece in decompose_admissible_set():
            union |= grid_graph_piece(2, piece).rows
        spec = GridGraphSpec(2, 7, admissible_set())
        assert np.array_equal(spec.realize().rows, union)

    def test_small_arity(self):
        # arity 2, patterns {(1,1)}: adjacency iff both coordinates differ
        spec = GridGraphSpec(3, 2, CubeSet(2, frozenset({(1, 1)})))
        g = spec.realize()
        assert g.order == 9
        assert (g.adjacency.sum(axis=1) == 4).all()

    def test_empty_rule_is_edgeless(self):
        g = GridGraphSpec(3, 2, CubeSet(2, frozenset())).realize()
        assert g.order == 9 and g.edge_count() == 0

    def test_asymmetric_pattern_pins_bit_order(self):
        # (1, 0): differ at coordinate 1, agree at coordinate 2; read the
        # other way round it would be the transposed rule
        g = GridGraphSpec(3, 2, CubeSet(2, frozenset({(1, 0)}))).realize()
        pts = list(product(range(3), repeat=2))
        expected = np.array([[x[0] != y[0] and x[1] == y[1] for y in pts] for x in pts])
        assert np.array_equal(g.adjacency, expected)

    def test_rejects_zero_pattern(self):
        with pytest.raises(ValueError):
            GridGraphSpec(2, 2, CubeSet(2, frozenset({(0, 0)})))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            GridGraphSpec(2, 3, CubeSet(2, frozenset({(1, 1)})))


class TestPieces:
    def test_pieces_disjoint_and_cover(self):
        for n in (2,):
            g = grid_graph(n)
            total = np.zeros_like(g.adjacency, dtype=np.int16)
            edge_sum = 0
            for piece in decompose_admissible_set():
                pg = grid_graph_piece(n, piece)
                edge_sum += pg.edge_count()
                total += pg.adjacency
            assert (total <= 1).all()
            assert np.array_equal(total.astype(bool), g.adjacency)
            assert edge_sum == g.edge_count()

    def test_piece_edge_count_n2(self):
        # each of the 4 patterns in a piece contributes one neighbor at n=2
        for piece in decompose_admissible_set()[:5]:
            pg = grid_graph_piece(2, piece)
            assert pg.edge_count() == 128 * 4 // 2

    def test_single_vertex(self):
        piece = decompose_admissible_set()[0]
        assert grid_graph_piece(1, piece).edge_count() == 0

    def test_zero_pattern_subcube_rejected(self):
        from bicliquelab.cube import Subcube

        # every pin 0 admits the all-zero pattern, which would put a loop at every vertex
        with pytest.raises(ValueError, match="loops"):
            grid_graph_piece(2, Subcube.of(7, {1: 0, 2: 0}))


class TestReducedGraph:
    def test_n2_perfect_matching(self):
        for piece in decompose_admissible_set():
            red = reduced_graph(2, piece)
            assert red.graph.order == 32
            assert (red.graph.adjacency.sum(axis=1) == 1).all()

    def test_blowup_identity_n2(self):
        for piece in decompose_admissible_set():
            red = reduced_graph(2, piece)
            c = red.copies.ravel()
            pg = grid_graph_piece(2, piece)
            assert np.array_equal(pg.adjacency[np.ix_(c, c)], blowup(red.graph, 4).adjacency)

    def test_blowup_identity_n3_spot_checks(self):
        # full sweep at n=2 above; three pieces (one from each block) at n=3
        pieces = decompose_admissible_set()
        for piece in (pieces[0], pieces[13], pieces[29]):
            red = reduced_graph(3, piece)
            c = red.copies.ravel()
            pg = grid_graph_piece(3, piece)
            assert np.array_equal(pg.adjacency[np.ix_(c, c)], blowup(red.graph, 9).adjacency)

    def test_n1_single_vertex(self):
        red = reduced_graph(1, decompose_admissible_set()[0])
        assert red.graph.order == 1 and red.graph.edge_count() == 0

    def test_wrong_subcube_rejected(self):
        from bicliquelab.cube import Subcube

        with pytest.raises(ValueError):
            reduced_graph(2, Subcube.of(7, {1: 1}))


def _subcube_rule(points: np.ndarray, fixed) -> np.ndarray:
    """Reference piece adjacency: points differ at every fixed position pinned
    to 1 and agree at every fixed position pinned to 0 (positions 1-based)."""
    adj = np.ones((len(points), len(points)), dtype=bool)
    for pos, bit in fixed:
        col = points[:, pos - 1]
        adj &= (col[:, None] != col[None, :]) == bool(bit)
    return adj


def _mixed_radix(x, positions, n):
    idx = 0
    for p in positions:
        idx = idx * n + (x[p - 1] - 1)
    return idx


# SHA-256 of write_system(grid_graph_partition(n)), recorded before the
# pieces were built from their subcubes
PARTITION_SHA256 = {
    1: "8275008e90c7d983522f5c80e24f92ac25cc5c8181c04f31919ad37a97808bd0",
    2: "11b73ad468e7b935e92f177f8581f0a04ab13037bd2a9c21934ac3d8a68a573f",
    3: "256b2165471af9cdc3c243fd9327ccbf1218b427be816e64dc37371d48f9b18a",
}


@pytest.mark.parametrize("n", [1, 2, 3])
class TestPieceDifferential:
    """The pieces, their reductions and the partition against references
    written from the subcube rule on ``itertools.product`` points."""

    def test_piece_matches_subcube_rule(self, n):
        points = np.array(list(product(range(1, n + 1), repeat=7)))
        for piece in decompose_admissible_set():
            expected = _subcube_rule(points, piece.fixed)
            assert np.array_equal(grid_graph_piece(n, piece).adjacency, expected), piece

    def test_reduced_graph_matches_subcube_rule(self, n):
        points = np.array(list(product(range(1, n + 1), repeat=5)))
        for piece in decompose_admissible_set():
            reduced_fixed = [(i + 1, bit) for i, (_, bit) in enumerate(piece.fixed)]
            expected = _subcube_rule(points, reduced_fixed)
            assert np.array_equal(reduced_graph(n, piece).graph.adjacency, expected), piece

    def test_copies_match_per_point_formula(self, n):
        # point g of [n]^7 is copy (free index) of reduced vertex (fixed index)
        points = list(product(range(1, n + 1), repeat=7))
        for piece in decompose_admissible_set():
            fixed_pos = [p for p, _ in piece.fixed]
            copies = reduced_graph(n, piece).copies
            assert copies.shape == (n**5, n * n) and copies.dtype == np.int32, piece
            table = copies.ravel().tolist()
            for g, x in enumerate(points):
                v, c = _mixed_radix(x, fixed_pos, n), _mixed_radix(x, piece.free_positions, n)
                assert table[v * n * n + c] == g, (piece, x)

    def test_piece_matches_spec_route(self, n):
        for piece in decompose_admissible_set():
            spec = GridGraphSpec(n, 7, CubeSet(7, frozenset(piece.points())))
            assert grid_graph_piece(n, piece) == spec.realize(), piece

    def test_partition_bytes_unchanged(self, n):
        import hashlib

        from bicliquelab.formats import write_system

        text = write_system(grid_graph_partition(n))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == PARTITION_SHA256[n]


class TestPartition:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_partition_within_bound(self, n):
        g = grid_graph(n)
        system = grid_graph_partition(n)
        assert len(system.parts) <= 30 * (n ** 5 - 1)
        cert = verify_biclique_system(g, system)
        assert cert.verdict
        if n > 1:
            assert cert.witness == {"max_multiplicity": 1}

    def test_n1_empty(self):
        assert len(grid_graph_partition(1).parts) == 0


@functools.cache
def _lifted(n, t):
    """The t-cover's bounds and vertices, lifted whole by the formula: a side's
    vertex v becomes p * base^(t-c) + v * base^(t-c-1) + s for every p
    (outermost) and s (innermost), coordinate c by coordinate."""
    base, size = grid_graph_partition(n), n**7
    bounds, vertices = [0], []
    for coord in range(t):
        outer, inner = size**coord, size ** (t - coord - 1)
        for lo, hi in zip(base.bounds[:-1].tolist(), base.bounds[1:].tolist()):
            side = base.vertices[lo:hi].tolist()
            vertices += [
                p * size * inner + v * inner + s
                for p in range(outer) for v in side for s in range(inner)
            ]
            bounds.append(len(vertices))
    return bounds, np.array(vertices)


@pytest.fixture(scope="module")
def power2():
    return power_graph_cover(2, 2)


class TestPowerCover:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_t1_matches_base(self, n):
        # at t = 1 the one-column copy table is the identity; n = 1 returns before any lift
        g, cover = power_graph_cover(n, 1)
        assert g == grid_graph(n)
        assert cover.parts == grid_graph_partition(n).parts
        assert cover.multiplicity_bound == 1

    def test_t2_verifies_with_max_multiplicity_2(self, power2):
        g, cover = power2
        assert g.order == 16384
        assert len(cover.parts) == 2 * len(grid_graph_partition(2).parts)
        cert = verify_biclique_system(g, cover)
        assert cert.verdict
        assert cert.witness == {"max_multiplicity": 2}

    def test_power_is_or_product(self, power2):
        g, _ = power2
        base = grid_graph(2)
        assert g == or_product(base, base)

    def test_power_independence_exact(self, power2, monkeypatch):
        # the product bound is tight here: alpha(square) = alpha(base)^2;
        # the complement of the square is sparse (degree 63), so exact
        # search is cheap even at 16384 vertices
        from bicliquelab import oracles
        from bicliquelab.oracles import independence_number

        g, _ = power2
        base_alpha = independence_number(grid_graph(2))[0]
        monkeypatch.setattr(oracles, "ALPHA_ORDER_LIMIT", 20000)
        alpha, witness = independence_number(g)
        assert alpha == base_alpha ** 2 == 16
        adj = g.adjacency
        assert all(
            not adj[u, v] for i, u in enumerate(witness) for v in witness[i + 1 :]
        )

    @pytest.mark.parametrize("n, t", [(2, 1), (2, 2), (3, 1)])
    def test_lift_matches_the_formula(self, n, t):
        _, cover = power_graph_cover(n, t)
        bounds, vertices = _lifted(n, t)
        assert cover.bounds.tolist() == bounds
        assert cover.vertices.dtype == np.int32
        assert np.array_equal(cover.vertices, vertices)

    def test_limit(self):
        with pytest.raises(ResourceLimitError):
            power_graph_cover(2, 3)

    @pytest.mark.parametrize("n, t", [(2, 10_000_000), (3, 30_000_000), (10**700, 1)])
    def test_oversized_refused_without_forming_the_power(self, n, t):
        # 3 ** 210,000,000 alone takes minutes to form; the refusal comes by
        # bit lengths and names a lower bound past the limit
        with pytest.raises(ResourceLimitError) as exc:
            power_graph_cover(n, t)
        assert exc.value.limit_name == "power_vertex_limit"
        assert exc.value.requested > exc.value.limit

    @pytest.mark.parametrize("n, t, size", [(3, 2, 4_782_969), (5, 1, 78_125)])
    def test_refused_by_the_exact_size(self, n, t, size):
        # within the bit-length bound, so the exact size n^(7t) refuses
        with pytest.raises(ResourceLimitError) as exc:
            power_graph_cover(n, t)
        assert (exc.value.limit_name, exc.value.requested) == ("power_vertex_limit", size)

    @pytest.mark.parametrize("n, t", [(0, 1), (-1, 3), (-(10**700), 2), (2, 0)])
    def test_nonpositive_refused(self, n, t):
        with pytest.raises(ValueError, match="must be >= 1"):
            power_graph_cover(n, t)

    def test_n1_any_power_is_one_vertex_with_no_parts(self):
        # no loop over t: a billion-fold power costs what the first does
        g, cover = power_graph_cover(1, 10**9)
        assert g == Graph.empty(1)
        assert cover == BicliqueSystem(1, (), 10**9)
        assert power_graph_cover(1, 2) == (g, BicliqueSystem(1, (), 2))


class TestResourceLimitMessage:
    def test_any_size_prints(self):
        # Python refuses int-to-str past 4,300 digits, so a huge size prints by its bit length
        small, huge = ResourceLimitError("x", 10, 11), ResourceLimitError("x", 10, 10**7000)
        assert str(small) == "x exceeded: requested 11, limit 10"
        bits = (10**7000).bit_length()
        assert str(huge) == f"x exceeded: requested a {bits}-bit number, limit 10"
        assert huge.requested == 10**7000


class TestProjectionDichotomy:
    def test_single_head(self):
        assert projection_dichotomy([(1, 1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 2, 2, 2)])

    def test_all_differ_heads(self):
        assert projection_dichotomy([(1, 1, 1, 1, 1, 1, 1), (2, 2, 2, 2, 1, 1, 1)])

    def test_violation(self):
        assert not projection_dichotomy(
            [(1, 1, 1, 1, 1, 1, 1), (1, 2, 2, 2, 1, 1, 1)]
        )
