"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every check is exact; the elapsed-time ceilings
are part of the criteria and asserted.
"""

import math
import random
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from bicliquelab import algebra, clis, corpus, gridgraph, oracles
from bicliquelab.cli import RunConfig, cmd_demo
from bicliquelab.cube import admissible_set, decompose_admissible_set, verify_subcube_partition
from bicliquelab.formats import write_certificate
from bicliquelab.graphs import Graph, blowup, or_product, star_partition, verify_biclique_system


@contextmanager
def criterion(num: int, name: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < limit_seconds else "FAIL (over time)"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict} ({elapsed:.2f}s, limit {limit_seconds:.0f}s)")
    assert elapsed < limit_seconds, f"criterion {num} exceeded {limit_seconds}s"


def test_01_subcube_decomposition():
    with criterion(1, "subcube-decomposition", 1.0):
        target = admissible_set()
        parts = decompose_admissible_set()
        assert len(target) == 120
        assert len(parts) == 30
        assert all(p.free_dim == 2 for p in parts)
        cert = verify_subcube_partition(target, parts)
        assert cert.verdict
        # block sizes 12 / 4 / 14, distinguished by how many of the four
        # leading coordinates each part fixes
        lead = [sum(1 for pos, _ in p.fixed if pos <= 4) for p in parts]
        assert lead[:12] == [3] * 12 and lead[12:16] == [2] * 4 and lead[16:] == [4] * 14


def test_02_edge_disjoint_pieces():
    with criterion(2, "edge-disjoint-pieces", 30.0):
        for n in (2, 3):
            g = gridgraph.grid_graph(n)
            total = np.zeros(g.adjacency.shape, dtype=np.int16)
            edge_sum = 0
            for piece in decompose_admissible_set():
                pg = gridgraph.grid_graph_piece(n, piece)
                total += pg.adjacency
                edge_sum += pg.edge_count()
            assert int(total.max()) <= 1, "pieces overlap"
            assert np.array_equal(total.astype(bool), g.adjacency)
            assert edge_sum == g.edge_count()
        g2 = gridgraph.grid_graph(2)
        assert g2.order == 128
        assert (g2.adjacency.sum(axis=1) == 120).all()
        assert g2.edge_count() == 7680


def test_03_explicit_partition():
    with criterion(3, "explicit-partition", 120.0):
        for n in (1, 2, 3):
            g = gridgraph.grid_graph(n)
            system = gridgraph.grid_graph_partition(n)
            assert len(system.parts) <= 30 * (n ** 5 - 1)
            assert verify_biclique_system(g, system).verdict
        for piece in decompose_admissible_set():
            reduced = gridgraph.reduced_graph(2, piece)
            c = reduced.copies.ravel()
            pg = gridgraph.grid_graph_piece(2, piece)
            assert np.array_equal(pg.adjacency[np.ix_(c, c)], blowup(reduced.graph, 4).adjacency)


def test_04_independence_structure():
    with criterion(4, "independence-structure", 120.0):
        for n, cap in ((2, 6), (3, 9)):
            g = gridgraph.grid_graph(n)
            alpha, witness = oracles.independence_number(g)
            assert alpha <= cap, f"alpha(G({n})) = {alpha} > {cap}"
            assert len(witness) == alpha
            adj = g.adjacency
            assert all(not adj[u, v] for u, v in combinations(witness, 2))
            points = (np.transpose(np.unravel_index(witness, (n,) * 7)) + 1).tolist()
            assert gridgraph.projection_dichotomy(points)
            # the cutoff route proves the same bound independently of the
            # exact search's incumbent bookkeeping
            ok, _ = oracles.independence_at_most(g, 3 * n)
            assert ok
            # two-sided exactness: nothing of size alpha+1 exists, and the
            # cutoff search primed one lower re-finds a set of size alpha
            ok_at_alpha, _ = oracles.independence_at_most(g, alpha)
            refuted, bigger = oracles.independence_at_most(g, alpha - 1)
            assert ok_at_alpha and not refuted and len(bigger) == alpha


def test_05_graham_pollak_floor():
    with criterion(5, "graham-pollak-floor", 60.0):
        for k in range(2, 7):
            value, witness = oracles.min_biclique_partition(Graph.complete(k))
            assert value == k - 1
            assert verify_biclique_system(Graph.complete(k), witness).verdict
            assert len(star_partition(Graph.complete(k)).parts) == k - 1


def test_06_cover_identity_and_rank():
    with criterion(6, "cover-identity-and-rank", 120.0):
        rng = random.Random(20260810)
        reruns = []
        for i in range(50):
            k = rng.randrange(2, 9)
            t = rng.randrange(1, 4)
            cover = corpus.random_t_cover(k, t, rng)
            assert verify_biclique_system(Graph.complete(k), cover).verdict
            good = algebra.verify_cover_identity(cover, sign_rule="odd-positive")
            assert good.verdict, f"identity failed on cover {i}"
            bad = algebra.verify_cover_identity(cover, sign_rule="even-positive")
            assert not bad.verdict, f"flipped sign passed on cover {i}"
            cert = algebra.rank_certificate(cover)
            assert cert.verdict, f"rank certificate failed on cover {i}"
            assert k <= algebra.peck_bound(len(cover.parts), t)
            if i < 5:
                reruns.append((cover, write_certificate(cert)))
        for cover, blob in reruns:
            assert write_certificate(algebra.rank_certificate(cover)) == blob


def test_07_bp2_floor():
    with criterion(7, "bp2-floor", 120.0):
        v4, w4 = oracles.min_biclique_partition(Graph.complete(4), 2)
        assert v4 == 2
        assert verify_biclique_system(Graph.complete(4), w4).verdict
        assert algebra.peck_bound(2, 2) == 5 and 4 <= 5
        v5, w5 = oracles.min_biclique_partition(Graph.complete(5), 2)
        assert v5 == 3  # recorded exact value
        assert verify_biclique_system(Graph.complete(5), w5).verdict
        # consistency: the counting bound admits 5 vertices at the exact size
        assert 5 <= algebra.peck_bound(v5, 2)


def test_08_or_product_claims():
    with criterion(8, "or-product-claims", 600.0):
        small = corpus.graphs_up_to(5)
        for g in small:
            ag = oracles.independence_number(g)[0]
            for h in small:
                ah = oracles.independence_number(h)[0]
                prod = or_product(g, h)
                assert oracles.independence_number(prod)[0] <= ag * ah
        rng = random.Random(88)
        for _ in range(100):
            g = corpus.random_graph(rng.randrange(1, 9), rng.random(), rng)
            h = corpus.random_graph(rng.randrange(1, 9), rng.random(), rng)
            bound = (
                oracles.independence_number(g)[0] * oracles.independence_number(h)[0]
            )
            assert oracles.independence_number(or_product(g, h))[0] <= bound
        power, cover = gridgraph.power_graph_cover(2, 2)
        assert power.order == 16384
        cert = verify_biclique_system(power, cover)
        assert cert.verdict
        assert cert.witness == {"max_multiplicity": 2}


def test_09_forward_reduction():
    with criterion(9, "forward-reduction", 300.0):
        for g in corpus.graphs_up_to(6):
            partition = star_partition(g)
            # instance construction re-validates cliques, independent sets,
            # and intersection sizes; re-check the zero diagonal here
            inst = clis.canonical_instance(partition)
            assert all(inst.matrix.entries[j, j] == 0 for j in range(g.order))
            assert clis.chi_lower_bound_check(g, partition).verdict


def test_10_protocol():
    with criterion(10, "protocol", 300.0):
        rng = random.Random(314159)
        for _ in range(50):
            m = rng.randrange(1, 13)
            gamma = corpus.random_graph(m, rng.choice((0.3, 0.5, 0.7)), rng)
            inst = clis.full_instance(gamma)
            name_bits = math.ceil(math.log2(m)) if m > 1 else 0
            cap = (2 + 2 * name_bits) * (math.floor(math.log2(m)) + 1)
            for ci, c in enumerate(inst.cliques):
                cset = set(c)
                for ii, s in enumerate(inst.independents):
                    tr = clis.yannakakis_protocol(inst, ci, ii)
                    assert tr.answer == len(cset & set(s))
                    assert tr.total_bits <= cap


def test_11_reverse_reduction():
    with criterion(11, "reverse-reduction", 600.0):
        for gamma in corpus.graphs_up_to(5):
            pair_graph, system = clis.build_pair_graph(gamma)
            assert len(system.parts) <= gamma.order
            cert = verify_biclique_system(pair_graph, system)
            assert cert.verdict
            assert cert.witness["max_multiplicity"] <= 2
        for gamma in corpus.graphs_up_to(4):
            pair_graph, _ = clis.build_pair_graph(gamma)
            inst = clis.full_instance(gamma)
            c0, _ = oracles.min_rectangle_cover(inst.matrix, 0)
            chi, _ = oracles.chromatic_number(pair_graph)
            assert c0 <= chi


def test_12_end_to_end_demo():
    with criterion(12, "end-to-end-demo", 180.0):
        config = RunConfig()
        for n, expectations in (
            (2, ["edge-count 7680", "independence-number 4", "chromatic-lower-bound 32",
                 "partition-size 480", "check piece-edges-match pass",
                 "check piece-edges-disjoint pass", "check projection-dichotomy pass",
                 "check partition-exact-once pass"]),
            (3, ["vertex-count 2187", "independence-number 9", "chromatic-lower-bound 243",
                 "partition-size 4860", "check piece-edges-match pass",
                 "check piece-edges-disjoint pass", "check projection-dichotomy pass",
                 "check partition-exact-once pass"]),
        ):
            first, ok1 = cmd_demo(n, config)
            second, ok2 = cmd_demo(n, config)
            assert ok1 and ok2
            assert first == second, "report not byte-identical across reruns"
            for needle in expectations:
                assert needle in first, f"demo n={n} missing {needle!r}"
            assert f"partition-size-bound {30 * (n ** 5 - 1)}" in first
