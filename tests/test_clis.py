"""Forward and reverse reductions plus the halving protocol."""

import math
import random

import numpy as np
import pytest

from bicliquelab import clis, oracles
from bicliquelab.clis import (
    ClisInstance,
    Transcript,
    all_cliques,
    all_independent_sets,
    biclique_graph,
    build_pair_graph,
    canonical_instance,
    chi_lower_bound_check,
    full_instance,
    yannakakis_protocol,
)
from bicliquelab.corpus import graphs_up_to, random_graph
from bicliquelab.errors import ResourceLimitError, WellDefinednessError
from bicliquelab.graphs import Biclique, BicliqueSystem, Graph, star_partition, verify_biclique_system
from bicliquelab.oracles import chromatic_number, min_rectangle_cover

K3_PARTITION = BicliqueSystem(3, (Biclique((0,), (1, 2)), Biclique((1,), (2,))), 1)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_pairs(graph):
    """The (clique, independent set) pairs with no common vertex, sorted:
    the reference for the pair graph's vertices."""
    return sorted(
        (c, s)
        for c in all_cliques(graph)
        for s in all_independent_sets(graph)
        if not set(c) & set(s)
    )


def reference_protocol(inst, clique_index, independent_index):
    """The halving protocol with one block of code per speaker, as it was
    first written: the reference for ``yannakakis_protocol``'s one loop."""
    clique_order = sorted(inst.cliques[clique_index])
    indep_order = sorted(inst.independents[independent_index])
    clique, indep = set(clique_order), set(indep_order)
    m = inst.graph.order
    masks = inst.neighbor_masks
    width = math.ceil(math.log2(m)) if m > 1 else 0
    live = (1 << m) - 1
    rounds = []

    def say(speaker, vertex):
        if vertex is None:
            rounds.append((speaker, "0"))
        else:
            rounds.append((speaker, "1" + (format(vertex, "b").zfill(width) if width else "")))

    def finish(answer):
        return Transcript(tuple(rounds), answer, sum(len(bits) for _, bits in rounds))

    while True:
        if not live:
            return finish(0)
        h = live.bit_count()
        alice_sent = False
        pick = next(
            (v for v in clique_order if live >> v & 1 and 2 * (masks[v] & live).bit_count() <= h),
            None,
        )
        if pick is not None:
            alice_sent = True
            say("A", pick)
            if pick in indep:
                return finish(1)
            live &= masks[pick]
            if not live:
                return finish(0)
            h = live.bit_count()
        else:
            say("A", None)
        pick = next(
            (v for v in indep_order if live >> v & 1 and 2 * (masks[v] & live).bit_count() >= h),
            None,
        )
        if pick is not None:
            say("B", pick)
            if pick in clique:
                return finish(1)
            live &= ~masks[pick]
        else:
            say("B", None)
            if not alice_sent:
                return finish(0)


class TestBicliqueGraph:
    def test_triangle_partition_gives_edge(self):
        # both vectors hold 1 at vertex 2
        assert biclique_graph(K3_PARTITION) == Graph.complete(2)

    def test_single_part_gives_k1(self):
        system = BicliqueSystem(2, (Biclique((0,), (1,)),), 1)
        assert biclique_graph(system).order == 1

    def test_ambiguous_pair_defaults_to_nonedge(self):
        two_edges = BicliqueSystem(
            4, (Biclique((0,), (1,)), Biclique((2,), (3,))), 1
        )
        assert biclique_graph(two_edges) == Graph.empty(2)

    def test_ambiguous_pairs_as_edges_give_the_same_instance(self):
        # no canonical clique or independent set holds a pair sharing neither
        # a 1 nor a 0, so adding every such pair as an edge changes no family
        widened = 0
        for g in graphs_up_to(5):
            partition = star_partition(g)
            inst = canonical_instance(partition)
            lefts = [set(b.left) for b in partition]
            rights = [set(b.right) for b in partition]
            ambiguous = [
                (i, j)
                for i in range(len(partition))
                for j in range(i + 1, len(partition))
                if not (lefts[i] & lefts[j] or rights[i] & rights[j])
            ]
            gamma = Graph.from_edges(len(partition), [*inst.graph.edges(), *ambiguous])
            wide = ClisInstance(gamma, inst.cliques, inst.independents)
            assert wide.matrix == inst.matrix
            widened += gamma != inst.graph
        assert widened  # some star partition has such a pair

    def test_contradiction_raises(self):
        # both parts put 0 at vertex 0 and 1 at vertex 1: edge (0,1) covered twice
        bad = BicliqueSystem(3, (Biclique((0,), (1,)), Biclique((0,), (1, 2))), 1)
        for build in (biclique_graph, canonical_instance):
            with pytest.raises(WellDefinednessError) as err:
                build(bad)
            assert err.value.part_a == 1 and err.value.part_b == 2
            assert (err.value.shared_one, err.value.shared_zero) == (1, 0)

    def test_requires_partition_bound(self):
        # the forward reduction is defined for exact partitions (t=1) only
        cover = BicliqueSystem(2, (Biclique((0,), (1,)),), 2)
        for build in (biclique_graph, canonical_instance):
            with pytest.raises(ValueError):
                build(cover)

    def test_never_raises_on_verified_partitions(self):
        rng = random.Random(41)
        for g in graphs_up_to(5):
            system = star_partition(g)
            assert verify_biclique_system(g, system).verdict
            biclique_graph(system)  # must not raise


class TestCanonicalInstance:
    def test_triangle_families(self):
        # vectors 011 and *01: vertex 2's column holds 1 in both, vertex 0's
        # column holds 0 only in the first, vertex 1's only in the second
        inst = canonical_instance(K3_PARTITION)
        assert inst.cliques == ((), (0,), (0, 1))
        assert inst.independents == ((0,), (1,), ())
        assert inst.matrix.entries.shape == (3, 3)
        assert all(inst.matrix.entries[j, j] == 0 for j in range(3))

    def test_zero_diagonal_and_validity_sweep(self):
        for g in graphs_up_to(6):
            inst = canonical_instance(star_partition(g))
            n = g.order
            assert all(inst.matrix.entries[j, j] == 0 for j in range(n))
            # cliques/independents re-validated by the ClisInstance constructor

    def test_random_7_and_8_vertex_graphs(self):
        rng = random.Random(64)
        for _ in range(40):
            g = random_graph(rng.choice((7, 8)), rng.random(), rng)
            inst = canonical_instance(star_partition(g))
            assert all(inst.matrix.entries[j, j] == 0 for j in range(g.order))

    def test_edgeless(self):
        inst = canonical_instance(BicliqueSystem(3, (), 1))
        assert inst.cliques == ((), (), ())
        assert inst.matrix.entries.shape[0] == 3


class TestClisInstance:
    def test_repeated_vertex_refused_in_either_family(self):
        with pytest.raises(ValueError, match="not a clique"):
            ClisInstance(Graph.empty(2), ((0, 0),), ((),))
        with pytest.raises(ValueError, match="not an independent set"):
            ClisInstance(Graph.empty(2), ((),), ((0, 0),))

    def test_vertex_out_of_range_refused(self):
        with pytest.raises(ValueError, match="not a clique"):
            ClisInstance(Graph.empty(2), ((2,),), ())
        with pytest.raises(ValueError, match="not an independent set"):
            ClisInstance(Graph.empty(2), (), ((0, 2),))

    def test_matrix_derived_from_families(self):
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        inst = ClisInstance(path, ((0, 1), (2,), ()), ((0, 2), (1,)))
        assert inst.matrix.entries.tolist() == [[1, 1], [1, 0], [0, 0]]


class TestChiLowerBound:
    def test_triangle(self):
        cert = chi_lower_bound_check(Graph.complete(3), K3_PARTITION)
        assert cert.verdict
        assert cert.parameters["zero_cover"] >= 3

    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        cert = chi_lower_bound_check(g, star_partition(g))
        assert cert.verdict
        assert cert.parameters["chromatic"] == 2

    def test_edgeless_degenerate(self):
        g = Graph.empty(3)
        cert = chi_lower_bound_check(g, BicliqueSystem(3, (), 1))
        assert cert.verdict
        assert cert.parameters["chromatic"] == 1

    def test_corpus_sweep_small(self):
        for g in graphs_up_to(5):
            cert = chi_lower_bound_check(g, star_partition(g))
            assert cert.verdict

    def test_order_limit(self):
        g = Graph.empty(9)
        with pytest.raises(ResourceLimitError):
            chi_lower_bound_check(g, BicliqueSystem(9, (), 1))

    def test_empty_system_of_a_triangle_fails(self):
        # with no parts the intersection matrix is all zero: one rectangle
        # covers it, and its diagonal {0, 1, 2} is not independent
        cert = chi_lower_bound_check(Graph.complete(3), BicliqueSystem(3, (), 1))
        assert not cert.verdict
        assert cert.witness == {"kind": "rectangle-set-not-independent", "vertices": [0, 1, 2]}


class TestFamilies:
    def test_cliques_of_triangle(self):
        got = all_cliques(Graph.complete(3))
        assert got == [(), (0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,)]

    def test_independents_are_complement_cliques(self):
        g = cycle(5)
        assert all_independent_sets(g) == all_cliques(g.complement())

    def test_full_instance_entries(self):
        inst = full_instance(cycle(4))
        for p, c in enumerate(inst.cliques):
            for q, s in enumerate(inst.independents):
                assert inst.matrix.entries[p, q] == len(set(c) & set(s))


class TestProtocol:
    def test_shared_single_vertex_on_edgeless(self):
        inst = full_instance(Graph.empty(1))
        ci = inst.cliques.index((0,))
        ii = inst.independents.index((0,))
        tr = yannakakis_protocol(inst, ci, ii)
        assert tr.answer == 1

    def test_exhaustive_small_graphs(self):
        for g in graphs_up_to(4):
            inst = full_instance(g)
            for ci, c in enumerate(inst.cliques):
                for ii, s in enumerate(inst.independents):
                    tr = yannakakis_protocol(inst, ci, ii)
                    assert tr.answer == len(set(c) & set(s))

    def test_random_graphs_answers_and_bits(self):
        rng = random.Random(2718)
        for _ in range(12):
            m = rng.randrange(1, 11)
            g = random_graph(m, rng.random(), rng)
            inst = full_instance(g)
            name = math.ceil(math.log2(m)) if m > 1 else 0
            bits_cap = (2 + 2 * name) * (math.floor(math.log2(m)) + 1)
            for ci, c in enumerate(inst.cliques):
                for ii, s in enumerate(inst.independents):
                    tr = yannakakis_protocol(inst, ci, ii)
                    assert tr.answer == len(set(c) & set(s))
                    assert tr.total_bits <= bits_cap
                    assert tr.total_bits == sum(len(b) for _, b in tr.rounds)

    def test_up_to_16_vertices(self):
        rng = random.Random(1618)
        for m in (13, 14, 16):
            g = random_graph(m, 0.5, rng)
            inst = full_instance(g)
            name = math.ceil(math.log2(m))
            bits_cap = (2 + 2 * name) * (math.floor(math.log2(m)) + 1)
            for ci, c in enumerate(inst.cliques):
                cset = set(c)
                for ii, s in enumerate(inst.independents):
                    tr = yannakakis_protocol(inst, ci, ii)
                    assert tr.answer == len(cset & set(s))
                    assert tr.total_bits <= bits_cap

    def test_transcript_structure(self):
        inst = full_instance(Graph.complete(3))
        ci = inst.cliques.index((0, 1, 2))
        ii = inst.independents.index((0,))
        tr = yannakakis_protocol(inst, ci, ii)
        assert tr.answer == 1
        assert all(speaker in ("A", "B") for speaker, _ in tr.rounds)
        assert all(set(bits) <= {"0", "1"} for _, bits in tr.rounds)

    @pytest.mark.parametrize("m, width", [(4, 2), (5, 3), (8, 3), (9, 4)])
    def test_send_names_take_ceil_log2_m_bits(self, m, width):
        # a send is a 1 flag and the vertex name; a pass is the 0 flag alone
        inst = full_instance(random_graph(m, 0.5, random.Random(m)))
        sends = [
            bits
            for ci in range(len(inst.cliques))
            for ii in range(len(inst.independents))
            for _, bits in yannakakis_protocol(inst, ci, ii).rounds
            if bits != "0"
        ]
        assert sends and {len(bits) for bits in sends} == {1 + width}

    def test_invalid_index(self):
        inst = full_instance(Graph.empty(1))
        with pytest.raises(ValueError):
            yannakakis_protocol(inst, 99, 0)

    def test_index_past_either_end_refused(self):
        # -1 once played the last clique or independent set instead of being refused
        inst = full_instance(random_graph(6, 0.5, random.Random(1)))
        cliques, independents = len(inst.cliques), len(inst.independents)
        assert cliques == 20
        ranges = rf"outside \[0, {cliques}\) x \[0, {independents}\)"
        for i, j in ((-1, 0), (cliques, 0), (0, -1), (0, independents), (-1, -1)):
            with pytest.raises(ValueError, match=rf"\({i}, {j}\) {ranges}"):
                yannakakis_protocol(inst, i, j)
        for indices in ((1.0, 0), (0, 1.0)):
            with pytest.raises(TypeError):
                yannakakis_protocol(inst, *indices)
        last = (cliques - 1, independents - 1)
        assert yannakakis_protocol(inst, *map(np.int64, last)) == yannakakis_protocol(inst, *last)

    def test_transcripts_match_reference(self):
        # every family pair of 40 seeded random graphs on 1-8 vertices and of
        # every graph on up to 4 vertices: rounds, answer and bits
        rng = random.Random(1979)
        graphs = [random_graph(rng.randrange(1, 9), rng.random(), rng) for _ in range(40)]
        runs = 0
        for g in graphs + graphs_up_to(4):
            inst = full_instance(g)
            for ci in range(len(inst.cliques)):
                for ii in range(len(inst.independents)):
                    assert yannakakis_protocol(inst, ci, ii) == reference_protocol(inst, ci, ii)
                    runs += 1
        assert runs > 10_000


class TestPairGraph:
    def test_k1(self):
        gamma = Graph.empty(1)
        pair_graph, system = build_pair_graph(gamma)
        # pairs: ((),()), ((),(0,)), ((0,),())
        assert pair_graph.order == 3
        assert pair_graph.edge_count() == 1
        assert len(system.parts) <= 1
        assert verify_biclique_system(pair_graph, system).verdict

    def test_k2(self):
        gamma = Graph.complete(2)
        pair_graph, system = build_pair_graph(gamma)
        assert len(system.parts) <= 2
        cert = verify_biclique_system(pair_graph, system)
        assert cert.verdict

    def test_sides_disjoint_and_sizes(self):
        for gamma in graphs_up_to(4):
            pair_graph, system = build_pair_graph(gamma)
            assert len(system.parts) <= gamma.order
            for b in system.parts:
                assert not set(b.left) & set(b.right)
            cert = verify_biclique_system(pair_graph, system)
            assert cert.verdict
            assert cert.witness["max_multiplicity"] <= 2

    def test_vertex_order_lexicographic(self):
        # pair-graph vertex i is the i-th disjoint pair in lexicographic order
        gamma = Graph.complete(2)
        pairs = disjoint_pairs(gamma)
        _, system = build_pair_graph(gamma)
        assert list(system) == [
            Biclique(
                tuple(i for i, (c, _) in enumerate(pairs) if v in c),
                tuple(i for i, (_, s) in enumerate(pairs) if v in s),
            )
            for v in range(gamma.order)
        ]

    def test_zero_cover_at_most_chromatic(self):
        for gamma in graphs_up_to(3):
            pair_graph, _ = build_pair_graph(gamma)
            inst = full_instance(gamma)
            c0, _ = min_rectangle_cover(inst.matrix, 0)
            chi, _ = chromatic_number(pair_graph)
            assert c0 <= chi

    def test_pentagon_zero_cover_at_most_chromatic(self, monkeypatch):
        gamma = cycle(5)
        pair_graph, system = build_pair_graph(gamma)
        assert verify_biclique_system(pair_graph, system).verdict
        inst = full_instance(gamma)
        # every disjoint pair is a 0-entry, so the count is |V(pair graph)|
        monkeypatch.setattr(oracles, "RECT_ENTRY_LIMIT", 256)
        monkeypatch.setattr(oracles, "CHI_ORDER_LIMIT", 256)
        c0, _ = min_rectangle_cover(inst.matrix, 0)
        chi, _ = chromatic_number(pair_graph)
        assert c0 <= chi

    def test_pair_limit(self, monkeypatch):
        monkeypatch.setattr(clis, "PAIR_LIMIT", 10)
        with pytest.raises(ResourceLimitError):
            build_pair_graph(Graph.empty(4))

    def test_pair_limit_refuses_before_enumerating(self, monkeypatch):
        # 2**18 independent sets and 2,621,440 pairs: the refusal comes once
        # the independent sets pass the limit, not after forming the pairs
        monkeypatch.setattr(clis, "PAIR_LIMIT", 10)
        with pytest.raises(ResourceLimitError) as exc:
            build_pair_graph(Graph.empty(18))
        assert exc.value.limit_name == "pair_limit"
        assert exc.value.requested == 11

    def test_pair_count_is_exact(self, monkeypatch):
        # when both families fit, the refusal names the exact pair count,
        # and a limit equal to that count is admitted
        for gamma in graphs_up_to(4):
            count = len(disjoint_pairs(gamma))
            monkeypatch.setattr(clis, "PAIR_LIMIT", count)
            pair_graph, _ = build_pair_graph(gamma)
            assert pair_graph.order == count
            families = len(all_cliques(gamma)), len(all_independent_sets(gamma))
            if max(families) < count:
                monkeypatch.setattr(clis, "PAIR_LIMIT", count - 1)
                with pytest.raises(ResourceLimitError) as exc:
                    build_pair_graph(gamma)
                assert exc.value.requested == count

    def test_suite_inputs_fit_the_pair_limit(self):
        # no flag raises PAIR_LIMIT: the clis suite's largest pair graph is far below it
        assert max(len(disjoint_pairs(g)) for g in graphs_up_to(4)) == 48 < clis.PAIR_LIMIT
