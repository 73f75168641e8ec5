"""Graph core: bicliques, systems, verification, stars, blowups, OR products."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicliquelab import graphs, gridgraph, packed
from bicliquelab.corpus import graphs_up_to, random_graph
from bicliquelab.graphs import (
    Biclique,
    BicliqueSystem,
    Certificate,
    Graph,
    blowup,
    or_product,
    star_partition,
    verify_biclique_system,
)

C5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])


class TestGraph:
    def test_validation_rejects_loop(self):
        with pytest.raises(ValueError):
            Graph(np.array([[True]]))

    def test_validation_rejects_asymmetry(self):
        bad = np.zeros((2, 2), dtype=bool)
        bad[0, 1] = True
        with pytest.raises(ValueError):
            Graph(bad)

    def test_complete(self):
        k4 = Graph.complete(4)
        assert k4.edge_count() == 6
        assert k4.neighbor_masks() == [0b1110, 0b1101, 0b1011, 0b0111]

    def test_complement(self):
        assert C5.complement() == Graph.from_edges(
            5, [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
        )

    def test_neighbor_masks(self):
        assert P3.neighbor_masks() == [0b010, 0b101, 0b010]

    @pytest.mark.parametrize("edge, message", [
        ((0, 3), r"edge \(0,3\) out of range for order 3"), ((1, 1), "loop at vertex 1"),
    ])
    def test_from_edges_refuses_bad_edges(self, edge, message):
        with pytest.raises(ValueError, match=message):
            Graph.from_edges(3, [edge])

    def test_from_edges_refuses_negative_order(self):
        with pytest.raises(ValueError, match="order -1 is negative"):
            Graph.from_edges(-1, [])
        with pytest.raises(TypeError):
            Graph.from_edges(2.0, [])

    @pytest.mark.parametrize("v", [-1, 3])
    def test_vertex_queries_check_range(self, v):
        with pytest.raises(IndexError, match=f"vertex {v} out of range for order 3"):
            P3.induced([v, 0])

    @pytest.mark.parametrize("vertices", [[0.9, 1.7], [True, False], np.array([0.0, 1.0])])
    def test_induced_refuses_non_integer_vertices(self, vertices):
        # 0.9 and 1.7 truncated would induce the edge (0, 1)
        with pytest.raises(TypeError, match="vertices must be integers"):
            Graph.from_edges(3, [(0, 1)]).induced(vertices)

    def test_induced_takes_integer_arrays(self):
        assert P3.induced(np.array([2, 1], dtype=np.uint8)) == Graph.from_edges(2, [(0, 1)])
        assert P3.induced([]).order == 0

    def test_adjacency_read_only(self):
        g = Graph.complete(3)
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = False
        with pytest.raises(ValueError):
            g.rows[0, 0] = 0


class TestBiclique:
    def test_sides_sorted(self):
        b = Biclique((2, 0), (3, 1))
        assert b.left == (0, 2) and b.right == (1, 3)

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            Biclique((), (1,))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Biclique((0, 1), (1, 2))

    def test_edges(self):
        assert sorted(Biclique((0,), (1, 2)).edges()) == [(0, 1), (0, 2)]

    @pytest.mark.parametrize("left, right", [((0.7,), (1,)), ((0,), (1.9,)), ((0, 2.0), (1,))])
    def test_non_integer_vertex_refused(self, left, right):
        # a truncated vertex would name a different biclique
        with pytest.raises(TypeError):
            BicliqueSystem(3, (Biclique(left, right),), 1)

    def test_numpy_vertices_become_ints(self):
        b = Biclique((np.int64(2), np.uint8(0)), (np.int32(1),))
        assert b == Biclique((0, 2), (1,))
        assert {type(v) for v in b.left + b.right} == {int}


class TestVerifyBicliqueSystem:
    def test_star_partition_of_triangle(self):
        sys_ = BicliqueSystem(3, (Biclique((0,), (1, 2)), Biclique((1,), (2,))), 1)
        cert = verify_biclique_system(Graph.complete(3), sys_)
        assert cert.verdict
        assert cert.witness == {"max_multiplicity": 1}

    def test_double_cover_of_k4(self):
        sys_ = BicliqueSystem(
            4, (Biclique((0, 1), (2, 3)), Biclique((0, 2), (1, 3))), 2
        )
        cert = verify_biclique_system(Graph.complete(4), sys_)
        assert cert.verdict
        assert cert.witness == {"max_multiplicity": 2}

    def test_incomplete_cover_witness(self):
        sys_ = BicliqueSystem(3, (Biclique((0,), (1, 2)),), 1)
        cert = verify_biclique_system(Graph.complete(3), sys_)
        assert not cert.verdict
        assert cert.witness["pair"] == [1, 2]
        assert cert.witness["multiplicity"] == 0

    def test_non_edge_cover_fails(self):
        sys_ = BicliqueSystem(3, (Biclique((0,), (1, 2)),), 1)
        cert = verify_biclique_system(P3, sys_)
        assert not cert.verdict
        assert cert.witness["kind"] == "part-not-biclique"

    def test_exceeding_multiplicity_fails(self):
        sys_ = BicliqueSystem(
            4, (Biclique((0, 1), (2, 3)), Biclique((0, 2), (1, 3))), 1
        )
        cert = verify_biclique_system(Graph.complete(4), sys_)
        assert not cert.verdict
        assert cert.witness["multiplicity"] == 2

    def test_order_mismatch_raises(self):
        sys_ = BicliqueSystem(3, (Biclique((0,), (1,)),), 1)
        with pytest.raises(ValueError):
            verify_biclique_system(Graph.complete(4), sys_)

    def test_negative_host_order_rejected(self):
        with pytest.raises(ValueError, match="host order"):
            BicliqueSystem(-3, (), 1)
        assert BicliqueSystem(0, (), 1).host_order == 0

    def test_catches_random_mutations(self):
        # drop a part, duplicate a part, add a non-edge part, delete a host
        # edge: every corruption of a valid partition must be rejected
        rng = random.Random(987)
        for _ in range(60):
            n = rng.randrange(2, 9)
            g = random_graph(n, 0.3 + 0.5 * rng.random(), rng)
            base = star_partition(g)
            if not base.parts:
                continue
            assert verify_biclique_system(g, base).verdict
            k = rng.randrange(len(base.parts))
            dropped = BicliqueSystem(n, tuple(base)[:k] + tuple(base)[k + 1 :], 1)
            assert not verify_biclique_system(g, dropped).verdict
            duplicated = BicliqueSystem(n, tuple(base) + (base[k],), 1)
            assert not verify_biclique_system(g, duplicated).verdict
            nonedges = np.argwhere(np.triu(~g.adjacency, 1)).tolist()
            if nonedges:
                u, v = rng.choice(nonedges)
                foreign = BicliqueSystem(n, tuple(base) + (Biclique((u,), (v,)),), 1)
                cert = verify_biclique_system(g, foreign)
                assert not cert.verdict
                assert cert.witness["kind"] == "part-not-biclique"
            u, v = rng.choice(list(g.edges()))
            adj = g.adjacency.copy()
            adj[u, v] = adj[v, u] = False
            assert not verify_biclique_system(Graph(adj), base).verdict

    @pytest.mark.parametrize("block", [1, 4])
    def test_catches_random_mutations_in_tiny_blocks(self, block, monkeypatch):
        # the same corruptions, with the verifier reading its incidences a few at a time
        monkeypatch.setattr(packed, "_BLOCK", block)
        self.test_catches_random_mutations()

    def test_multiplicity_past_int16(self):
        # 65,537 copies of one edge: a 16-bit counter would wrap to 1
        parts = (Biclique((0,), (1,)),) * 65537
        cert = verify_biclique_system(Graph.complete(2), BicliqueSystem(2, parts, 1))
        assert not cert.verdict
        assert cert.witness == {
            "kind": "bad-multiplicity",
            "pair": [0, 1],
            "multiplicity": 65537,
            "is_edge": True,
        }
        cert = verify_biclique_system(Graph.complete(2), BicliqueSystem(2, parts, 70000))
        assert cert.verdict
        assert cert.witness == {"max_multiplicity": 65537}

    def test_verdict_order_independent(self):
        rng = random.Random(7)
        g = random_graph(7, 0.5, rng)
        sys_ = star_partition(g)
        shuffled = list(sys_.parts)
        rng.shuffle(shuffled)
        cert_a = verify_biclique_system(g, sys_)
        cert_b = verify_biclique_system(g, BicliqueSystem(7, tuple(shuffled), 1))
        assert cert_a.verdict == cert_b.verdict


class TestStarPartition:
    def test_complete_graph_size(self):
        assert len(star_partition(Graph.complete(4)).parts) == 3

    def test_edgeless(self):
        assert len(star_partition(Graph.empty(5)).parts) == 0

    def test_path(self):
        parts = tuple(star_partition(P3))
        assert parts == (Biclique((0,), (1,)), Biclique((1,), (2,)))
        # the one-part alternative also verifies
        alt = BicliqueSystem(3, (Biclique((1,), (0, 2)),), 1)
        assert verify_biclique_system(P3, alt).verdict

    def test_always_exact_partition(self):
        for g in graphs_up_to(6):
            cert = verify_biclique_system(g, star_partition(g))
            assert cert.verdict
            assert len(star_partition(g).parts) <= max(g.order - 1, 0)


class TestBlowup:
    def test_edge_becomes_complete_bipartite(self):
        four_cycle = blowup(Graph.complete(2), 2)
        assert four_cycle == Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])

    def test_identity_blowup(self):
        g = C5
        assert blowup(g, 1) == g

    def test_non_integer_factor_refused(self):
        # a truncated factor would build a smaller blowup
        with pytest.raises(TypeError):
            blowup(C5, 2.5)
        assert blowup(C5, np.int64(2)) == blowup(C5, 2)

    def test_partition_lifts_through_blowup(self):
        rng = random.Random(13)
        for g in [Graph.complete(4), C5, random_graph(6, 0.5, rng)]:
            base = star_partition(g)
            for m in (2, 3):
                lifted = BicliqueSystem(
                    g.order * m,
                    tuple(
                        Biclique(
                            tuple(v * m + c for v in b.left for c in range(m)),
                            tuple(v * m + c for v in b.right for c in range(m)),
                        )
                        for b in base.parts
                    ),
                    1,
                )
                assert verify_biclique_system(blowup(g, m), lifted).verdict


class TestOrProduct:
    def test_k2_by_edgeless(self):
        # both coordinates of the first factor adjacent: K4 minus the
        # within-copy matching
        got = or_product(Graph.complete(2), Graph.empty(2))
        assert got == Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])

    def test_edgeless_by_edgeless(self):
        assert or_product(Graph.empty(3), Graph.empty(4)) == Graph.empty(12)

    def test_index_map(self):
        g, h = P3.adjacency, Graph.complete(2).adjacency
        prod = or_product(P3, Graph.complete(2)).adjacency
        for a in range(3):
            for b in range(2):
                for a2 in range(3):
                    for b2 in range(2):
                        expected = g[a, a2] or h[b, b2]
                        if (a, b) != (a2, b2):
                            assert prod[a * 2 + b, a2 * 2 + b2] == expected


    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.integers(0, 70), st.integers(0, 70), st.integers(0, 2**32))
    def test_matches_the_definition(self, a, b, seed):
        # orders that are and are not multiples of 8 and 64, on either side
        rng = random.Random(seed)
        g, h = random_graph(a, rng.random(), rng), random_graph(b, rng.random(), rng)
        prod = or_product(g, h)
        ga, ha = g.adjacency, h.adjacency
        # (x, y) ~ (x', y') iff x ~ x' in g or y ~ y' in h, at index x * b + y
        expected = (ga[:, None, :, None] | ha[None, :, None, :]).reshape(a * b, a * b)
        assert np.array_equal(prod.adjacency, expected)
        assert_zero_padding(prod)

    def test_many_bands(self, monkeypatch):
        # 9 * 5 = 45 unpacked bytes per row of g: bands of 2, 2, 2, 2 and 1 rows
        rng = random.Random(3003)
        g, h = random_graph(9, 0.5, rng), random_graph(5, 0.5, rng)
        whole = or_product(g, h)
        monkeypatch.setattr(graphs, "_BAND_BYTES", 100)
        assert or_product(g, h) == whole
        ga, ha = g.adjacency, h.adjacency
        assert np.array_equal(
            whole.adjacency, (ga[:, None, :, None] | ha[None, :, None, :]).reshape(45, 45)
        )


def _dense_adjacency(n, p, rng):
    """A random symmetric, irreflexive bool matrix: the test-side reference."""
    coins = np.array([[rng.random() < p for _ in range(n)] for _ in range(n)], dtype=bool)
    upper = np.triu(coins.reshape(n, n), 1)
    return upper | upper.T


def assert_zero_padding(g):
    """The packed rows have the documented shape and no bit set past the last vertex."""
    n = g.order
    assert g.rows.shape == (n, (n + 63) // 64)
    assert g.rows.dtype == np.dtype("<u8")
    bits = np.unpackbits(g.rows.view(np.uint8), axis=1, bitorder="little")
    assert not bits[:, n:].any()


class TestPackedRows:
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
    def test_set_bits_matches_a_dense_reference(self, n):
        rng = random.Random(n)
        for dtype in (np.int16, np.int32, np.int64):
            pairs = rng.sample([(u, v) for u in range(n) for v in range(n)], rng.randrange(n * n + 1))
            r, c = np.array(pairs, dtype=dtype).reshape(-1, 2).T  # distinct (row, column) pairs
            dense = np.zeros((n, n), dtype=bool)
            dense[r, c] = True
            rows = packed.zero_rows(n, n)
            packed.set_bits(rows, r, c)
            assert np.array_equal(packed.unpack_rows(rows, n), dense)
            assert np.array_equal(rows, packed.pack_rows(dense))
            assert_zero_padding(Graph._trusted(rows))
        assert packed.zero_rows(2, 3, n).shape == (2, 3, (n + 63) // 64)


class TestPackedGraphDifferential:
    """Every ``Graph`` query agrees with the same query on a dense bool matrix.

    Each test also runs with tiny row bands, so that the banded unpacking
    behind ``edges()`` and ``star_partition`` sees many bands.
    """

    SIZES = (0, 1, 2, 63, 64, 65, 127, 128, 129)

    @pytest.fixture(autouse=True, params=["default", "tiny-bands"])
    def _band_size(self, request, monkeypatch):
        if request.param == "tiny-bands":
            monkeypatch.setattr(graphs, "_BAND_BYTES", 256)

    def _cases(self, seed):
        rng = random.Random(seed)
        sizes = list(self.SIZES) + [rng.randrange(3, 200) for _ in range(6)]
        for n in sizes:
            for p in (0.0, 1.0, rng.random()):
                yield _dense_adjacency(n, p, rng), rng

    def test_queries(self):
        for adj, rng in self._cases(20100224):
            n = len(adj)
            g = Graph(adj)
            assert g.order == n
            assert g.adjacency.dtype == bool
            assert np.array_equal(g.adjacency, adj)
            assert g.edge_count() == int(adj.sum()) // 2
            assert list(g.edges()) == [
                (u, v) for u in range(n) for v in range(u + 1, n) if adj[u, v]
            ]
            assert tuple(star_partition(g)) == tuple(
                Biclique((u,), tuple(np.flatnonzero(adj[u, u + 1 :]) + u + 1))
                for u in range(n)
                if adj[u, u + 1 :].any()
            )
            assert g.neighbor_masks() == [
                sum(1 << int(u) for u in np.flatnonzero(adj[v])) for v in range(n)
            ]
            assert_zero_padding(g)

    def test_constructions(self):
        for adj, rng in self._cases(4687):
            n = len(adj)
            g = Graph(adj)
            comp = ~adj
            np.fill_diagonal(comp, False)
            assert np.array_equal(g.complement().adjacency, comp)
            assert_zero_padding(g.complement())
            assert g.complement().complement() == g
            vs = rng.sample(range(n), rng.randrange(n + 1))
            assert np.array_equal(g.induced(vs).adjacency, adj[np.ix_(vs, vs)])
            assert_zero_padding(g.induced(vs))
            edges = [(u, v) for u in range(n) for v in range(n) if u < v and adj[u, v]]
            rng.shuffle(edges)
            either_way = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
            assert Graph.from_edges(n, either_way) == g
            # numpy integers past bit 63 must not wrap
            assert Graph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2)) == g
        for n in self.SIZES:
            full = ~np.eye(n, dtype=bool)
            assert np.array_equal(Graph.complete(n).adjacency, full)
            assert np.array_equal(Graph.empty(n).adjacency, np.zeros((n, n), dtype=bool))
            assert Graph.empty(n).complement() == Graph.complete(n)
            assert_zero_padding(Graph.complete(n))

    def test_equality(self):
        for adj, rng in self._cases(1002):
            n = len(adj)
            g = Graph(adj)
            assert g == Graph(adj.copy())
            assert g != adj
            if n >= 2:
                u, v = rng.sample(range(n), 2)
                flipped = adj.copy()
                flipped[u, v] = flipped[v, u] = not adj[u, v]
                assert g != Graph(flipped)
            grown = np.zeros((n + 1, n + 1), dtype=bool)
            grown[:n, :n] = adj
            assert g != Graph(grown)

    def test_or_product(self):
        rng = random.Random(961)
        shapes = [(0, 5), (5, 0), (1, 1), (1, 65), (65, 1), (9, 7), (8, 8), (3, 43), (11, 12)]
        for a, b in shapes:
            ga, ha = _dense_adjacency(a, rng.random(), rng), _dense_adjacency(b, rng.random(), rng)
            expected = (ga[:, None, :, None] | ha[None, :, None, :]).reshape(a * b, a * b)
            prod = or_product(Graph(ga), Graph(ha))
            assert np.array_equal(prod.adjacency, expected)
            assert_zero_padding(prod)

    def test_blowup(self):
        rng = random.Random(13)
        for n in (0, 1, 2, 7, 21, 64, 65):
            adj = _dense_adjacency(n, rng.random(), rng)
            for m in (1, 2, 3, 9):
                expected = np.kron(adj, np.ones((m, m), dtype=bool))
                blown = blowup(Graph(adj), m)
                assert np.array_equal(blown.adjacency, expected)
                assert_zero_padding(blown)


class TestCertificate:
    def test_fail_requires_witness(self):
        with pytest.raises(ValueError):
            Certificate(claim="x", verdict=False, witness=None)


def naive_verify(graph, system):
    """Pure-Python reference for ``verify_biclique_system``.

    Applies the verifier's witness order with plain loops and a pair-count
    dict: parts in order (first non-edge of the sorted block), then
    row-major over all ordered pairs.
    """
    n = graph.order
    t = system.multiplicity_bound
    params = {"host_order": n, "parts": len(system.parts), "multiplicity_bound": t}
    edge = set(graph.edges())
    edge |= {(v, u) for u, v in edge}
    count = {}
    for i, b in enumerate(system.parts):
        for u in b.left:
            for w in b.right:
                if (u, w) not in edge:
                    return Certificate(
                        "biclique-system",
                        params,
                        False,
                        {"kind": "part-not-biclique", "part": i + 1, "pair": [u, w]},
                    )
                count[u, w] = count.get((u, w), 0) + 1
                count[w, u] = count.get((w, u), 0) + 1
    for u in range(n):
        for v in range(n):
            c = count.get((u, v), 0)
            is_edge = (u, v) in edge
            if (is_edge and not 1 <= c <= t) or (not is_edge and c):
                witness = {
                    "kind": "bad-multiplicity",
                    "pair": [u, v],
                    "multiplicity": c,
                    "is_edge": is_edge,
                }
                return Certificate("biclique-system", params, False, witness)
    return Certificate(
        "biclique-system", params, True, {"max_multiplicity": max(count.values(), default=0)}
    )


def _random_cover(n, t, rng):
    """A random system over n vertices with its host graph.

    The host is the union of the system's bicliques plus random extra
    edges; some edges are therefore covered more than once and some not
    at all, so each t sees passes and failures.
    """
    adj = np.zeros((n, n), dtype=bool)
    parts = []
    if n >= 2:
        for _ in range(rng.randrange(1, 7)):
            vs = rng.sample(range(n), rng.randrange(2, min(n, 12) + 1))
            cut = rng.randrange(1, len(vs))
            b = Biclique(tuple(vs[:cut]), tuple(vs[cut:]))
            adj[np.ix_(b.left, b.right)] = adj[np.ix_(b.right, b.left)] = True
            parts.append(b)
        for _ in range(rng.randrange(0, 3 * n)):
            u, v = rng.sample(range(n), 2)
            adj[u, v] = adj[v, u] = True
    return Graph(adj), BicliqueSystem(n, tuple(parts), t)


def _one_part_per_edge(graph, t, rng):
    parts = []
    for u, v in graph.edges():
        parts.append(Biclique((u,), (v,)) if rng.random() < 0.5 else Biclique((v,), (u,)))
    rng.shuffle(parts)
    return BicliqueSystem(graph.order, tuple(parts), t)


def _deep_cover(n, t, rng):
    """A system where two hub rows lie in hundreds of parts and the other
    rows in a few, with its host graph (the union of its parts).

    The hubs' shared edge is covered 256 times and each hub's edges to the
    other vertices 100-300 times in all, so counts land on both sides of a
    bound t near 256.
    """
    hubs = rng.sample(range(n), 2)
    rest = [v for v in range(n) if v not in hubs]
    parts = [Biclique((hubs[0],), (hubs[1],))] * 256
    for hub in hubs:
        parts += [Biclique((hub,), (rng.choice(rest),)) for _ in range(rng.randrange(100, 300))]
    for _ in range(len(rest) // 2):
        vs = rng.sample(rest, rng.randrange(2, 5))
        parts.append(Biclique(tuple(vs[:1]), tuple(vs[1:])))
    rng.shuffle(parts)
    edges = {(min(u, v), max(u, v)) for b in parts for u in b.left for v in b.right}
    return Graph.from_edges(n, sorted(edges)), BicliqueSystem(n, tuple(parts), t)


def _mutants(graph, system, rng):
    """Drop, duplicate, foreign vertex, non-edge part, deleted host edge."""
    n, parts, t = system.host_order, list(system.parts), system.multiplicity_bound
    out = []
    if parts:
        k = rng.randrange(len(parts))
        out.append((graph, BicliqueSystem(n, tuple(parts[:k] + parts[k + 1 :]), t)))
        # t, 2t or 4t extra copies: some counts pass a power of two
        copies = [parts[k]] * rng.choice((t, 2 * t, 4 * t))
        out.append((graph, BicliqueSystem(n, tuple(parts + copies), t)))
        b = parts[k]
        outside = sorted(set(range(n)) - set(b.left) - set(b.right))
        if outside:
            grown = Biclique(b.left + (rng.choice(outside),), b.right)
            out.append((graph, BicliqueSystem(n, tuple(parts[:k] + [grown] + parts[k + 1 :]), t)))
    nonedges = np.argwhere(np.triu(~graph.adjacency, 1)).tolist()
    if nonedges:
        u, v = rng.choice(nonedges)
        at = rng.randrange(len(parts) + 1)
        out.append((graph, BicliqueSystem(n, tuple(parts[:at] + [Biclique((u,), (v,))] + parts[at:]), t)))
    edges = list(graph.edges())
    if edges:
        u, v = rng.choice(edges)
        adj = graph.adjacency.copy()
        adj[u, v] = adj[v, u] = False
        out.append((Graph(adj), system))
    return out


@st.composite
def _graphs_with_systems(draw):
    """A system of up to six bicliques over range(n), n <= 12, and a host
    graph: half the time the system's pairs plus drawn extra edges, else
    drawn edges alone, so that passes, bad multiplicities and parts that are
    not bicliques all occur."""
    n = draw(st.integers(0, 12))
    parts = []
    if n >= 2:
        for _ in range(draw(st.integers(0, 6))):
            vs = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
            cut = draw(st.integers(1, len(vs) - 1))
            parts.append(Biclique(tuple(vs[:cut]), tuple(vs[cut:])))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = {p for p in pairs if draw(st.booleans())}
    if draw(st.booleans()):
        edges |= {(min(u, w), max(u, w)) for b in parts for u in b.left for w in b.right}
    system = BicliqueSystem(n, parts, draw(st.integers(1, 3)))
    return Graph.from_edges(n, sorted(edges)), system


class TestVerifyProperty:
    """A property version of ``TestVerifyDifferential``: the verdict and the
    witness agree with ``naive_verify``'s pair count on drawn systems."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(_graphs_with_systems())
    def test_agrees_with_naive_pair_count(self, case):
        graph, system = case
        assert verify_biclique_system(graph, system) == naive_verify(graph, system)


class TestVerifyDifferential:
    """``verify_biclique_system`` agrees with ``naive_verify``, witness included.

    Each test also runs with tiny row bands and part chunks, so that small
    graphs take the many-band and many-chunk paths of the packed kernel, and
    with tiny incidence blocks, so that sides straddle blocks.
    """

    SIZES = (0, 1, 2, 63, 64, 65, 127, 128, 129)

    @pytest.fixture(autouse=True, params=["default", "tiny-bands", "tiny-blocks"])
    def _kernel_sizes(self, request, monkeypatch):
        if request.param == "tiny-bands":
            monkeypatch.setattr(graphs, "_BAND_BYTES", 256)
            monkeypatch.setattr(graphs, "_MASK_BYTES", 1024)
        if request.param == "tiny-blocks":
            monkeypatch.setattr(packed, "_BLOCK", 13)

    def _check(self, graph, system):
        assert verify_biclique_system(graph, system) == naive_verify(graph, system)

    def _check_with_mutants(self, graph, system, rng):
        self._check(graph, system)
        for g, s in _mutants(graph, system, rng):
            self._check(g, s)

    def test_random_systems(self):
        rng = random.Random(20100224)
        sizes = list(self.SIZES) + [rng.randrange(3, 140) for _ in range(12)]
        for n in sizes:
            # t = 4, 7, 8 give bias 3, 0, 7: carries ripple through three or four planes
            for t in (1, 2, 3, 4, 7, 8):
                graph, system = _random_cover(n, t, rng)
                self._check_with_mutants(graph, system, rng)

    def test_one_part_per_edge(self):
        rng = random.Random(4687)
        sizes = list(self.SIZES) + [rng.randrange(3, 140) for _ in range(6)]
        for n in sizes:
            graph = random_graph(n, 0.02 + 0.1 * rng.random(), rng)
            for t in (1, 2, 3):
                self._check_with_mutants(graph, _one_part_per_edge(graph, t, rng), rng)

    def test_deep_rows(self):
        # the hub rows run hundreds of rounds past the other rows; t = 255,
        # 256, 257 take 8, 9 and 9 planes, with bias 0, 255 and 254
        rng = random.Random(2561)
        for n in (3, 65, 130):
            for t in (255, 256, 257):
                graph, system = _deep_cover(n, t, rng)
                self._check_with_mutants(graph, system, rng)
        # hundreds of shallow rows share one wide band with the hubs
        self._check(*_deep_cover(700, 256, random.Random(4099)))

    def test_star_partitions(self):
        rng = random.Random(1002)
        for n in self.SIZES:
            graph = random_graph(n, 0.1 + 0.6 * rng.random(), rng)
            system = star_partition(graph)
            for t in (1, 2, 3):
                s = BicliqueSystem(n, system.parts, t)
                self._check_with_mutants(graph, s, rng)

    def test_recount_names_the_same_witnesses(self, monkeypatch):
        # with every pair sum forced short, first_bad_pair names each witness
        # that the first count names when its sum adds up
        rng = random.Random(3271)
        cases = []
        for n in list(self.SIZES) + [rng.randrange(3, 140) for _ in range(4)]:
            for t in (1, 2, 3, 4, 7, 8):
                graph, system = _random_cover(n, t, rng)
                cases += [(graph, system)] + _mutants(graph, system, rng)
        default = [verify_biclique_system(g, s) for g, s in cases]
        count_pairs = graphs.count_pairs

        def short(*args):
            for stray, bad, high, total in count_pairs(*args):
                yield stray, bad, high, total - 1

        monkeypatch.setattr(graphs, "count_pairs", short)
        assert [verify_biclique_system(g, s) for g, s in cases] == default
        assert default == [naive_verify(g, s) for g, s in cases]

    def test_star_partitions_count_each_pair_in_its_lower_row(self, monkeypatch):
        # a leaf's one opposite vertex is its star's centre, a lower vertex, so
        # every leaf incidence is dropped and no row counts left of its diagonal;
        # the mutants' first bad pair (a, b) has rows with edges to lower
        # vertices before it, and its mirror (b, a) in its band by default, so
        # only the diagonal mask keeps their zero counts from being the witness
        seen = []
        count_band = packed._count_band

        def spy(counter, counts, mask_ids, masks, sticky):
            seen.append(int(counts.sum()))
            count_band(counter, counts, mask_ids, masks, sticky)

        monkeypatch.setattr(packed, "_count_band", spy)
        # 1,500 vertices in 24 words take two bands by default (1,365 rows
        # each); with tiny bands 150 vertices take fifteen
        n = 1500 if graphs._BAND_BYTES > 256 else 150
        band = graphs._BAND_BYTES // (8 * ((n + 63) // 64))
        graph = random_graph(n, 15 / n, random.Random(1449))
        stars = list(star_partition(graph).parts)
        self._check(graph, BicliqueSystem(n, stars, 1))
        assert len(seen) > 1 and sum(seen) < sum(len(b.left) + len(b.right) for b in stars)
        a, b = next((a, b) for a, b in graph.edges() if a >= 64 and a // band == b // band)
        k = next(i for i, star in enumerate(stars) if star.left == (a,))
        rest = tuple(v for v in stars[k].right if v != b)
        missing = stars[:k] + ([Biclique((a,), rest)] if rest else []) + stars[k + 1 :]
        for mutant in (missing, stars + [Biclique((a,), (b,))]):  # (a, b) covered 0 and 2 times
            system = BicliqueSystem(n, mutant, 1)
            assert verify_biclique_system(graph, system).witness["pair"] == [a, b]
            self._check(graph, system)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 7, 8])
def test_count_band_adds_two_masks_per_ripple(t):
    # count_pairs gives t = 1, 2, 3, 4, 7, 8 a covered plane and d = 0, 1, 2,
    # 2, 3, 3 planes mod 2**d; first_bad_pair gives them d = 1, 2, 2, 3, 3, 4
    # planes mod 2**d and a sticky plane for the top carry.  Rows of odd and
    # even counts take ripples of a mask and a zero and of two masks, counts
    # pass 2**(d + 1) so the top carry is dropped or kept more than once, and
    # a second call starts from the first one's counts, so k = a & b meets
    # plane 0 holding either bit
    rng = np.random.default_rng(t)
    masks = rng.integers(0, np.iinfo(np.uint64).max, (9, 3), np.uint64, endpoint=True)
    for sticky in (False, True):
        depth = t.bit_length() if sticky else (t - 1).bit_length()
        top = (1 << depth) + 2
        # in counter itself (rows in order, none empty), then in a copy
        for counts in (np.array([top, top, top - 1, 2, 2, 1, 1]), rng.integers(0, top + 1, 40)):
            counter = np.zeros((depth + 1, len(counts), 3), dtype=np.uint64)
            total = np.zeros((len(counts), 192), dtype=int)
            for _ in range(2):
                ids = rng.integers(0, len(masks), counts.sum()).astype(np.int16)
                packed._count_band(counter, counts, ids, masks, sticky)
                bits = packed.unpack_rows(masks[ids], 192).astype(int)
                ends = np.cumsum(counts)
                total += [bits[end - count : end].sum(axis=0) for end, count in zip(ends, counts)]
                extra, planes = (counter[-1], counter[:-1]) if sticky else (counter[0], counter[1:])
                value = np.zeros_like(total)
                for k, plane in enumerate(planes):
                    value += packed.unpack_rows(plane, 192).astype(int) << k
                assert np.array_equal(value, total % (1 << depth))
                # overflow: the count reached 2**depth; covered: it reached 1
                reached = total >= (1 << depth if sticky else 1)
                assert np.array_equal(packed.unpack_rows(extra, 192), reached)


class TestRecount:
    """A pair covered more than 2**d times, d = (t - 1).bit_length(), reads
    low in the first count, so the read counts sum short of the parts' sum
    of |L| * |R| and ``first_bad_pair`` recounts with a sticky overflow
    plane; a system whose sum adds up is counted once."""

    # multiplicities 2**d + 1 and 2**(d + 1) at each t (2 is both at t = 1)
    OVER = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (3, 8), (4, 5), (4, 8)]

    @pytest.fixture(autouse=True)
    def _spies(self, monkeypatch):
        # the recount's calls, and the planes of every counter made
        self.recounts, self.planes = 0, set()
        first_bad_pair, count_band = graphs.first_bad_pair, packed._count_band

        def recount(*args):
            self.recounts += 1
            return first_bad_pair(*args)

        def spy(counter, counts, mask_ids, masks, sticky):
            self.planes.add((sticky, len(counter)))
            count_band(counter, counts, mask_ids, masks, sticky)

        monkeypatch.setattr(graphs, "first_bad_pair", recount)
        monkeypatch.setattr(packed, "_count_band", spy)

    @staticmethod
    def _case(t, m, uncovered=None):
        # a path on 130 vertices (three words a row) and the edges (66, 129)
        # and (1, 100), each covered once, except (66, 129), covered m times,
        # and ``uncovered``, not at all
        graph = Graph.from_edges(130, [(v, v + 1) for v in range(129)] + [(66, 129), (1, 100)])
        parts = [Biclique((u,), (v,)) for u, v in graph.edges() if (u, v) != uncovered]
        parts += [Biclique((129,), (66,))] * (m - 1)
        return graph, BicliqueSystem(130, parts, t)

    @pytest.mark.parametrize("t, m", OVER)
    def test_pair_alone(self, t, m):
        graph, system = self._case(t, m)
        certificate = verify_biclique_system(graph, system)
        assert certificate.witness == {
            "kind": "bad-multiplicity", "pair": [66, 129], "multiplicity": m, "is_edge": True
        }
        assert certificate == naive_verify(graph, system)
        assert self.recounts == 1
        # the recount holds t.bit_length() + 1 planes: two at t = 1, three at t = 2
        assert self.planes == {(False, (t - 1).bit_length() + 1), (True, t.bit_length() + 1)}

    @pytest.mark.parametrize("t, m", OVER)
    def test_pair_behind_an_uncovered_edge(self, t, m):
        graph, system = self._case(t, m, uncovered=(1, 100))
        certificate = verify_biclique_system(graph, system)
        assert certificate.witness == {
            "kind": "bad-multiplicity", "pair": [1, 100], "multiplicity": 0, "is_edge": True
        }
        assert certificate == naive_verify(graph, system)
        assert self.recounts == 1

    @pytest.mark.parametrize("t, m", OVER)
    def test_pair_before_an_uncovered_edge(self, t, m):
        # the first count names the uncovered edge; only the recount sees the pair
        graph, system = self._case(t, m, uncovered=(100, 101))
        certificate = verify_biclique_system(graph, system)
        assert certificate.witness == {
            "kind": "bad-multiplicity", "pair": [66, 129], "multiplicity": m, "is_edge": True
        }
        assert certificate == naive_verify(graph, system)
        assert self.recounts == 1

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_sums_that_add_up_count_once(self, t):
        # passes, and failures with every count read exactly: an uncovered
        # edge, and a pair covered 2**d times when that is above t
        m = 1 << (t - 1).bit_length()
        for uncovered, extra in ((None, 1), ((1, 100), 1), (None, m)):
            graph, system = self._case(t, extra, uncovered)
            certificate = verify_biclique_system(graph, system)
            assert certificate == naive_verify(graph, system)
            assert certificate.verdict == (uncovered is None and extra <= t)
        graph = gridgraph.grid_graph(2)
        assert verify_biclique_system(graph, gridgraph.grid_graph_partition(2)).verdict
        assert self.recounts == 0
        assert self.planes == {(False, (t - 1).bit_length() + 1), (False, 1)}


def test_int32_side_ids_past_2_15_sides(monkeypatch):
    # 16,800 parts make 33,600 sides in one chunk, so side ids take int32,
    # not int16; blocks of 1,000 incidences cut through sides
    dtypes = set()
    count_band = packed._count_band

    def spy(counter, counts, mask_ids, masks, sticky):
        dtypes.add(mask_ids.dtype)
        count_band(counter, counts, mask_ids, masks, sticky)

    monkeypatch.setattr(packed, "_count_band", spy)
    monkeypatch.setattr(packed, "_BLOCK", 1000)
    rng = random.Random(3215)
    graph = random_graph(9, 0.6, rng)
    parts = [b for b in _one_part_per_edge(graph, 1, rng).parts for _ in range(2)]
    parts = (parts * (16_800 // len(parts) + 1))[:16_800]
    rng.shuffle(parts)
    for t in (rng.randrange(500, 800), 16_800):
        system = BicliqueSystem(9, parts, t)
        assert verify_biclique_system(graph, system) == naive_verify(graph, system)
        for g, s in _mutants(graph, system, rng):
            assert verify_biclique_system(g, s) == naive_verify(g, s)
    assert dtypes == {np.dtype(np.int32)}


class TestStreamedCounter:
    """``count_pairs`` reads out each band once its last chunk is added: with
    one chunk of parts a band's counter lives only until its read-out, with
    several every band waits for the last chunk.  Both give the same bands."""

    @staticmethod
    def _bands(graph, system, band_bytes, mask_bytes):
        t = system.multiplicity_bound
        args = (graph.rows, system.bounds, system.vertices, t, band_bytes, mask_bytes)
        return list(packed.count_pairs(*args))

    def _check(self, graph, system):
        # mask_bytes = 1 makes a chunk of each part
        for band_bytes in (graphs._BAND_BYTES, 64):
            one_chunk = self._bands(graph, system, band_bytes, graphs._MASK_BYTES)
            assert one_chunk == self._bands(graph, system, band_bytes, 1)

    def test_host_orders_zero_and_one(self):
        for n in (0, 1):
            for t in (1, 2):
                self._check(Graph.empty(n), BicliqueSystem(n, (), t))

    def test_random_systems_and_mutants(self):
        # passing covers, and mutants with a pair over t or a non-biclique part
        rng = random.Random(1515)
        for n in (2, 5, 64, 65, 130):
            for t in (1, 2, 3, 8):
                graph, system = _random_cover(n, t, rng)
                self._check(graph, system)
                for host, mutant in _mutants(graph, system, rng):
                    self._check(host, mutant)

    def test_verify_holds_one_band_of_counters(self):
        # every band's counter of the t = 2 OR-square cover together is
        # 2 planes * 16384**2 / 16 bytes = 32 MiB; streamed, verify stays far below
        graph, cover = gridgraph.power_graph_cover(2, 2)
        tracemalloc.start()
        try:
            assert verify_biclique_system(graph, cover).verdict
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 << 20

    def test_verify_frees_each_band_before_the_next(self):
        # the n = 3 partition fits one chunk of masks, so each band's counter
        # dies at its read-out; holding a read-out while the next band is
        # counted, or the band's incidences sorted by round, reads 7.44 MiB
        graph, partition = gridgraph.grid_graph(3), gridgraph.grid_graph_partition(3)
        tracemalloc.start()
        try:
            assert verify_biclique_system(graph, partition).verdict
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20

    def test_verify_frees_each_chunk_before_the_next(self, monkeypatch):
        # the n = 3 partition's 4,860 parts in chunks of 1,872: three mask
        # tables of 1 MiB each (35 words per side), beside 0.6 MiB of
        # counters for every band; small bands and blocks keep the rest
        # small, so holding two tables at once takes the peak past 3 MiB
        graph, partition = gridgraph.grid_graph(3), gridgraph.grid_graph_partition(3)
        monkeypatch.setattr(graphs, "_MASK_BYTES", 1 << 20)
        monkeypatch.setattr(graphs, "_BAND_BYTES", 1 << 14)
        monkeypatch.setattr(packed, "_BLOCK", 1 << 12)
        chunks = []
        chunk_layout = packed._chunk_layout

        def spy(n, bounds, vertices):
            chunks.append(len(bounds) // 2)  # the chunk's part count; the layout is not kept
            return chunk_layout(n, bounds, vertices)

        monkeypatch.setattr(packed, "_chunk_layout", spy)
        tracemalloc.start()
        try:
            assert verify_biclique_system(graph, partition).verdict
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunks == [1872, 1872, 1116]
        assert peak < 2.5 * 2**20
