"""Graph core: bicliques, systems, verification, stars, blowups, OR products."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicliquelab import graphs, packed
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

    def test_has_edge_checks_both_ends(self):
        for u, v in ((-1, 1), (3, 1), (1, -1), (1, 3)):
            with pytest.raises(IndexError):
                P3.has_edge(u, v)

    @pytest.mark.parametrize("v", [-1, 3])
    def test_vertex_queries_check_range(self, v):
        with pytest.raises(IndexError, match=f"vertex {v} out of range for order 3"):
            P3.induced([v, 0])

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
            nonedges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not g.has_edge(u, v)
            ]
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
        g, h = P3, Graph.complete(2)
        prod = or_product(g, h)
        for a in range(3):
            for b in range(2):
                for a2 in range(3):
                    for b2 in range(2):
                        expected = g.has_edge(a, a2) or h.has_edge(b, b2)
                        if (a, b) != (a2, b2):
                            assert prod.has_edge(a * 2 + b, a2 * 2 + b2) == expected


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
            pairs = [(u, v) for u in range(n) for v in range(n)]
            for u, v in rng.sample(pairs, min(len(pairs), 500)):
                assert g.has_edge(u, v) == bool(adj[u, v])
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
    nonedges = [(u, v) for u in range(n) for v in range(u + 1, n) if not graph.has_edge(u, v)]
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
    graphs take the many-band and many-chunk paths of the packed kernel.
    """

    SIZES = (0, 1, 2, 63, 64, 65, 127, 128, 129)

    @pytest.fixture(autouse=True, params=["default", "tiny-bands"])
    def _kernel_sizes(self, request, monkeypatch):
        if request.param == "tiny-bands":
            monkeypatch.setattr(graphs, "_BAND_BYTES", 256)
            monkeypatch.setattr(graphs, "_MASK_BYTES", 1024)

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
        # the deep rows' late rounds go to the tail step; t = 255, 256, 257
        # take 8, 9 and 9 planes, with bias 0, 255 and 254
        rng = random.Random(2561)
        for n in (3, 65, 130):
            for t in (255, 256, 257):
                graph, system = _deep_cover(n, t, rng)
                self._check_with_mutants(graph, system, rng)

    def test_tail_starts_partway_through_a_band(self, monkeypatch):
        # shallow rows finish in the rounds and the hubs in the tail step,
        # all in one band's counter
        switches = []
        tail_round = packed._tail_round

        def spy(active, *args):
            switches.append((tail_round(active, *args), len(active)))
            return switches[-1][0]

        monkeypatch.setattr(packed, "_tail_round", spy)
        # hundreds of shallow rows keep the first rounds cheaper than the
        # tail step, even in one wide band
        graph, system = _deep_cover(700, 256, random.Random(4099))
        self._check(graph, system)
        assert any(0 < tail < rounds for tail, rounds in switches)

    def test_star_partitions(self):
        rng = random.Random(1002)
        for n in self.SIZES:
            graph = random_graph(n, 0.1 + 0.6 * rng.random(), rng)
            system = star_partition(graph)
            for t in (1, 2, 3):
                s = BicliqueSystem(n, system.parts, t)
                self._check_with_mutants(graph, s, rng)
