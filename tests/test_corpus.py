"""Graph corpus enumeration and the random cover generator."""

import random
from itertools import combinations, permutations

import numpy as np
import pytest

from bicliquelab import corpus
from bicliquelab.corpus import all_graphs, graphs_up_to, random_graph, random_t_cover
from bicliquelab.errors import ResourceLimitError
from bicliquelab.graphs import Graph, verify_biclique_system

# classic counts of isomorphism classes on n labeled vertices
CLASS_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}


class TestAllGraphs:
    @pytest.mark.parametrize("n,count", sorted(CLASS_COUNTS.items()))
    def test_class_counts(self, n, count):
        assert len(all_graphs(n)) == count

    def test_no_two_representatives_isomorphic(self):
        for n in range(1, 5):
            graphs = all_graphs(n)
            for a, b in combinations(graphs, 2):
                assert not _isomorphic(a, b)

    def test_up_to(self):
        assert len(graphs_up_to(4)) == 1 + 2 + 4 + 11

    @pytest.mark.parametrize("enumerate_graphs", [all_graphs, graphs_up_to])
    def test_past_the_order_limit_refused_before_enumerating(self, enumerate_graphs, monkeypatch):
        # the orbit walk at 8 vertices would not fit in memory, and graphs_up_to
        # would first walk sizes 1 to 7; neither may start
        def walk(n):
            raise AssertionError(f"enumerated {n} vertices")

        monkeypatch.setattr(corpus, "_class_masks", walk)
        with pytest.raises(ResourceLimitError) as exc:
            enumerate_graphs(corpus.CORPUS_ORDER_LIMIT + 1)
        assert (exc.value.limit_name, exc.value.limit, exc.value.requested) == (
            "corpus_order_limit", 7, 8
        )


def _isomorphic(a: Graph, b: Graph) -> bool:
    if a.order != b.order or a.edge_count() != b.edge_count():
        return False
    adj_a, adj_b = a.adjacency, b.adjacency
    return any(
        np.array_equal(adj_a, adj_b[np.ix_(perm, perm)]) for perm in permutations(range(a.order))
    )


class TestRandomGraph:
    def test_extremes(self):
        rng = random.Random(0)
        assert random_graph(5, 0.0, rng) == Graph.empty(5)
        assert random_graph(5, 1.0, rng) == Graph.complete(5)

    def test_deterministic_given_seed(self):
        assert random_graph(8, 0.5, random.Random(4)) == random_graph(
            8, 0.5, random.Random(4)
        )


class TestRandomTCover:
    def test_valid_over_many_seeds(self):
        rng = random.Random(77)
        for _ in range(40):
            k = rng.randrange(2, 9)
            t = rng.randrange(1, 4)
            cover = random_t_cover(k, t, rng)
            assert cover.multiplicity_bound == t
            assert verify_biclique_system(Graph.complete(k), cover).verdict

    def test_t1_is_partition(self):
        rng = random.Random(5)
        cover = random_t_cover(6, 1, rng)
        cert = verify_biclique_system(Graph.complete(6), cover)
        assert cert.verdict and cert.witness == {"max_multiplicity": 1}

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            random_t_cover(1, 2, random.Random(0))

    @pytest.mark.parametrize("t", [0, -2])
    def test_t_below_one_rejected(self, t):
        with pytest.raises(ValueError, match=f"multiplicity bound t = {t} is below 1"):
            random_t_cover(3, t, random.Random(0))
