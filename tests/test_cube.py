"""Cube points, subcubes, the 120-point admissible set, and its decomposition."""

from itertools import product

import numpy as np
import pytest

from bicliquelab.cube import (
    CubeSet,
    Subcube,
    admissible_set,
    decompose_admissible_set,
    edge_triple_subcubes,
    three_cube_nonconstant,
    verify_subcube_partition,
)


def brute_force_admissible():
    """Re-derive the set straight from its definition, literal removals."""
    removed = set()
    for suffix in product((0, 1), repeat=3):
        if suffix not in ((0, 0, 0), (1, 1, 1)):
            removed.add((1, 1, 1, 1) + suffix)
    removed.add((0, 0, 0, 0, 0, 0, 0))
    removed.add((0, 0, 0, 0, 1, 1, 1))
    return {p for p in product((0, 1), repeat=7) if p not in removed}


class TestSubcube:
    def test_size_and_member_count(self):
        sc = Subcube.of(7, {1: 0, 2: 1})
        assert sc.free_dim == 5
        assert len(list(sc.points())) == 32

    def test_bad_position(self):
        with pytest.raises(ValueError):
            Subcube.of(3, {4: 0})

    def test_bad_value(self):
        with pytest.raises(ValueError):
            Subcube.of(3, {1: 2})

    @pytest.mark.parametrize(
        "fixed, position",
        [(((1, 0), (1, 1), (2, 0)), 1), (((2, 0), (1, 1), (2, 0)), 2), (((3, 1), (3, 1)), 3)],
    )
    def test_repeated_position(self, fixed, position):
        # keeping only the last pin would name a different subcube
        with pytest.raises(ValueError, match=f"position {position} given more than once"):
            Subcube(7, fixed)

    def test_non_integer_dim_refused(self):
        # a float dim would build a subcube whose points() fail
        with pytest.raises(TypeError):
            Subcube(2.0, ((1, 0),))
        assert type(Subcube(np.int64(2), ((1, 0),)).dim) is int


class TestAdmissibleSet:
    def test_size_120(self):
        assert len(admissible_set()) == 120

    def test_matches_literal_definition(self):
        assert admissible_set().members == frozenset(brute_force_admissible())

    def test_all_ones_in(self):
        assert (1,) * 7 in admissible_set()

    def test_all_zeros_out(self):
        assert (0,) * 7 not in admissible_set()

    def test_mixed_suffix_prefix_out(self):
        # (0,0,1) is a nonconstant suffix, so 1111 x it was removed
        assert (1, 1, 1, 1, 0, 0, 1) not in admissible_set()

    def test_lower_prefix_point_out(self):
        assert (0, 0, 0, 0, 1, 1, 1) not in admissible_set()


class TestDecomposition:
    def test_count_and_blocks(self):
        parts = decompose_admissible_set()
        assert len(parts) == 30
        # first 12 pair-block parts, 4 constant-suffix parts, 14 slab parts
        assert all(p.free_dim == 2 for p in parts)
        assert all(len(list(p.points())) == 4 for p in parts)
        # block structure: the slab parts fix all four leading coordinates
        lead_fixed = [
            sum(1 for pos, _ in p.fixed if pos <= 4) for p in parts
        ]
        assert lead_fixed[:12] == [3] * 12
        assert lead_fixed[12:16] == [2] * 4
        assert lead_fixed[16:] == [4] * 14

    def test_partitions_admissible_set(self):
        cert = verify_subcube_partition(admissible_set(), decompose_admissible_set())
        assert cert.verdict
        assert cert.witness == {"covered": 120}

    def test_deterministic(self):
        assert decompose_admissible_set() == decompose_admissible_set()

    def test_edge_triple_partitions_q3_minus(self):
        cert = verify_subcube_partition(three_cube_nonconstant(), edge_triple_subcubes())
        assert cert.verdict


class TestVerifySubcubePartition:
    def test_halving_a_square(self):
        target = CubeSet(2, frozenset(product((0, 1), repeat=2)))
        halves = [Subcube.of(2, {1: 0}), Subcube.of(2, {1: 1})]
        assert verify_subcube_partition(target, halves).verdict

    def test_deleted_part_reports_uncovered_points(self):
        parts = decompose_admissible_set()
        cert = verify_subcube_partition(admissible_set(), parts[:-1])
        assert not cert.verdict
        assert cert.witness["kind"] == "uncovered"
        assert len(cert.witness["points"]) == 4

    def test_double_cover_detected(self):
        target = CubeSet(2, frozenset(product((0, 1), repeat=2)))
        cert = verify_subcube_partition(
            target, [Subcube.of(2, {1: 0}), Subcube.of(2, {2: 0}), Subcube.of(2, {1: 1})]
        )
        assert not cert.verdict
        assert cert.witness["kind"] == "double-cover"

    def test_outside_target_detected(self):
        target = CubeSet(2, frozenset({(0, 0), (0, 1)}))
        cert = verify_subcube_partition(target, [Subcube.of(2, {1: 1})])
        assert not cert.verdict
        assert cert.witness["kind"] == "outside-target"

    def test_dim_mismatch_rejected(self):
        target = CubeSet(2, frozenset({(0, 0)}))
        with pytest.raises(ValueError):
            verify_subcube_partition(target, [Subcube.of(3, {1: 0})])

    def test_non_integer_target_dim_refused(self):
        # certificates hold no floats
        square = frozenset(product((0, 1), repeat=2))
        with pytest.raises(TypeError):
            CubeSet(2.0, square)
        cert = verify_subcube_partition(CubeSet(np.int64(2), square), [Subcube(2, ())])
        assert type(cert.parameters["dim"]) is int
