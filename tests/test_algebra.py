"""Exact rational machinery: counting bound, intersections, splits, certificates."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicliquelab import algebra
from bicliquelab.algebra import (
    SIGN_RULES,
    peck_bound,
    rank_certificate,
    split_intersection,
    verify_cover_identity,
)
from bicliquelab.corpus import random_t_cover
from bicliquelab.errors import ResourceLimitError
from bicliquelab.graphs import (
    Biclique,
    BicliqueSystem,
    Certificate,
    Graph,
    star_partition,
    verify_biclique_system,
)

K4_TWO_COVER = BicliqueSystem(
    4, (Biclique((0, 1), (2, 3)), Biclique((0, 2), (1, 3))), 2
)


@st.composite
def _matrices(draw, entries):
    """Matrices up to 7x7, square about half the time, sometimes with a
    duplicated row or a zeroed column so that rank deficiency is common."""
    rows = draw(st.integers(0, 7))
    cols = (rows if draw(st.booleans()) else draw(st.integers(0, 7))) if rows else 0
    m = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(rows)))[:2]
        m[dst] = list(m[src])
    if cols and draw(st.booleans()):
        zero = draw(st.integers(0, cols - 1))
        for row in m:
            row[zero] = 0
    return m


_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


class TestBareissProperty:
    def _check(self, m, scale=1):
        """``_bareiss`` on the integer matrix scale * m against the Fraction
        elimination of m: the same rank, and scale^rows times the determinant."""
        rank, det = _frac_eliminate(m)
        got_rank, got_det = algebra._bareiss([[int(scale * x) for x in row] for row in m])
        assert got_rank == rank
        assert got_det == (0 if det is None else det * scale ** len(m))

    @_PROPERTY
    @given(_matrices(st.integers(-3, 3)))
    def test_integer_matrices(self, m):
        self._check(m)

    @_PROPERTY
    @given(_matrices(st.builds(Fraction, st.integers(-18, 18), st.integers(1, 6))))
    def test_fraction_matrices(self, m):
        self._check(m, scale=60)  # every denominator divides 60


class TestPeckBound:
    def test_t1_recovers_graham_pollak(self):
        for d in range(101):
            assert peck_bound(d, 1) == d + 1

    def test_explicit_value(self):
        assert peck_bound(4, 2) == 1 + 4 + 2 * 6

    def test_degenerate(self):
        assert peck_bound(0, 1) == 1
        assert peck_bound(0, 5) == 1


def intersection_graph(cover, indices):
    """Graph of the pairs covered by every part named in ``indices`` (1-based),
    the reference that ``TestSplitIntersection`` compares the split against."""
    idx = algebra._check_indices(cover, indices)
    edges = set.intersection(*(set(cover[i - 1].edges()) for i in idx))
    return Graph.from_edges(cover.host_order, sorted(edges))


class TestIntersectionGraph:
    """The reference above, on intersections worked out by hand."""

    def test_single_index_is_the_biclique(self):
        g = intersection_graph(K4_TWO_COVER, (1,))
        assert sorted(g.edges()) == sorted(K4_TWO_COVER.parts[0].edges())

    def test_disjoint_bicliques_empty(self):
        cover = BicliqueSystem(4, (Biclique((0,), (1,)), Biclique((2,), (3,))), 1)
        assert intersection_graph(cover, (1, 2)).edge_count() == 0

    def test_k4_two_cover_overlap(self):
        g = intersection_graph(K4_TWO_COVER, (1, 2))
        assert sorted(g.edges()) == [(0, 3), (1, 2)]

    def test_bad_index(self):
        with pytest.raises(ValueError):
            intersection_graph(K4_TWO_COVER, (0,))
        with pytest.raises(ValueError):
            intersection_graph(K4_TWO_COVER, (3,))
        with pytest.raises(ValueError):
            intersection_graph(K4_TWO_COVER, ())


class TestSplitIntersection:
    def test_single_index(self):
        parts = split_intersection(K4_TWO_COVER, (1,))
        assert parts == [K4_TWO_COVER.parts[0]]

    def test_k4_overlap_split(self):
        parts = split_intersection(K4_TWO_COVER, (1, 2))
        assert len(parts) <= 2
        edges = sorted(e for b in parts for e in b.edges())
        assert edges == [(0, 3), (1, 2)]
        # part 2, the largest index, orients the pieces
        assert parts == [Biclique((0,), (3,)), Biclique((2,), (1,))]

    def test_empty_intersection(self):
        cover = BicliqueSystem(4, (Biclique((0,), (1,)), Biclique((2,), (3,))), 1)
        assert split_intersection(cover, (1, 2)) == []

    def test_disjoint_union_property_random(self):
        rng = random.Random(17)
        for _ in range(25):
            k = rng.randrange(2, 7)
            t = rng.randrange(1, 4)
            cover = random_t_cover(k, t, rng)
            d = len(cover.parts)
            for s in (1, 2, 3):
                if s > d:
                    continue
                for subset in list(combinations(range(1, d + 1), s))[:12]:
                    inter = intersection_graph(cover, subset)
                    pieces = split_intersection(cover, subset)
                    assert len(pieces) <= 1 << (s - 1)
                    seen = []
                    for b in pieces:
                        seen.extend(b.edges())
                    # pairwise edge-disjoint and union equals intersection
                    assert len(seen) == len(set(seen))
                    assert sorted(set(seen)) == sorted(inter.edges())


class TestCoverIdentity:
    def test_star_partition_passes(self):
        cert = verify_cover_identity(star_partition(Graph.complete(4)))
        assert cert.verdict
        assert cert.parameters["max_discrepancy"] == "0"

    def test_k4_two_cover_standard_sign(self):
        assert verify_cover_identity(K4_TWO_COVER).verdict

    def test_k4_two_cover_flipped_sign_fails(self):
        cert = verify_cover_identity(K4_TWO_COVER, sign_rule="even-positive")
        assert not cert.verdict
        assert cert.witness["entry"] is not None

    def test_invalid_cover_rejected(self):
        broken = BicliqueSystem(3, (Biclique((0,), (1,)),), 1)
        with pytest.raises(ValueError):
            verify_cover_identity(broken)

    def test_unknown_sign_rule(self):
        with pytest.raises(ValueError):
            verify_cover_identity(K4_TWO_COVER, sign_rule="bogus")

    def test_unknown_sign_rule_without_parts(self):
        # no index set is enumerated here, so the rule must be checked up front
        with pytest.raises(ValueError, match="unknown sign rule"):
            verify_cover_identity(BicliqueSystem(1, (), 1), sign_rule="bogus")


class TestRankCertificate:
    def test_star_partition_k3_tight(self):
        cert = rank_certificate(star_partition(Graph.complete(3)))
        assert cert.verdict
        assert cert.parameters["k"] == 3
        assert cert.parameters["bound"] == 3  # tight at the smallest case

    def test_k4_two_cover(self):
        cert = rank_certificate(K4_TWO_COVER)
        assert cert.verdict
        assert cert.parameters["bound"] == peck_bound(2, 2) == 5

    def test_single_edge(self):
        cover = BicliqueSystem(2, (Biclique((0,), (1,)),), 1)
        cert = rank_certificate(cover)
        assert cert.verdict
        assert cert.parameters["k"] == 2 and cert.parameters["bound"] == 2

    def test_bit_stable_rerun(self):
        from bicliquelab.formats import write_certificate

        rng = random.Random(23)
        cover = random_t_cover(6, 2, rng)
        first = write_certificate(rank_certificate(cover))
        second = write_certificate(rank_certificate(cover))
        assert first == second


class TestIndexSetGuard:
    """min(t, d) >= 61 could wrap the int64 sums; it is refused up front."""

    class Enumerated(Exception):
        pass

    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        def refuse(*args):
            raise self.Enumerated

        monkeypatch.setattr(algebra, "combinations", refuse)

    @pytest.mark.parametrize("check", [verify_cover_identity, rank_certificate])
    def test_61_fold_edge_refused_before_enumeration(self, check, no_enumeration):
        cover = BicliqueSystem(2, (Biclique((0,), (1,)),) * 61, 61)
        with pytest.raises(ResourceLimitError) as info:
            check(cover)
        assert info.value.limit == 60 and info.value.requested == 61

    @pytest.mark.parametrize("check", [verify_cover_identity, rank_certificate])
    def test_60_fold_edge_admitted(self, check, no_enumeration):
        cover = BicliqueSystem(2, (Biclique((0,), (1,)),) * 60, 61)
        with pytest.raises(self.Enumerated):
            check(cover)


class TestRandomCovers:
    def test_full_pipeline(self):
        rng = random.Random(31)
        for _ in range(20):
            k = rng.randrange(2, 9)
            t = rng.randrange(1, 4)
            cover = random_t_cover(k, t, rng)
            assert verify_biclique_system(Graph.complete(k), cover).verdict
            assert verify_cover_identity(cover).verdict
            assert not verify_cover_identity(cover, sign_rule="even-positive").verdict
            cert = rank_certificate(cover)
            assert cert.verdict
            assert k <= peck_bound(len(cover.parts), t)


# --- Differential reference ---------------------------------------------------
#
# Both certificates rebuilt from their definitions with Fraction arithmetic and
# plain sets, sharing no helper with bicliquelab.algebra.  Certificates are
# compared as whole write_certificate bytes.


def _frac_eliminate(rows):
    """Rank and (for square input) determinant by Fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    rank, det = 0, Fraction(1)
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        det *= m[rank][col]
        for r in range(rank + 1, n_rows):
            f = m[r][col] / m[rank][col]
            for c in range(col, n_cols):
                m[r][c] -= f * m[rank][c]
        rank += 1
    return rank, (det if n_rows == n_cols else None)


def _ref_sign(s, rule):
    odd = s % 2 == 1
    return 1 if odd == (rule == "odd-positive") else -1


def _ref_pairs(left, right):
    return {(min(u, w), max(u, w)) for u in left for w in right}


def _ref_cover_identity(cover, sign_rule):
    k, d, t = cover.host_order, len(cover.parts), cover.multiplicity_bound
    pair_sets = [_ref_pairs(b.left, b.right) for b in cover.parts]
    total = [[Fraction(0)] * k for _ in range(k)]
    for s in range(1, min(t, d) + 1):
        for subset in combinations(range(d), s):
            for u, w in set.intersection(*(pair_sets[i] for i in subset)):
                total[u][w] += _ref_sign(s, sign_rule)
                total[w][u] += _ref_sign(s, sign_rule)
    diff = [[Fraction(int(i != j)) - total[i][j] for j in range(k)] for i in range(k)]
    worst = max((abs(x) for row in diff for x in row), default=Fraction(0))
    params = {"k": k, "d": d, "t": t, "sign_rule": sign_rule, "max_discrepancy": str(worst)}
    if worst == 0:
        return Certificate("cover-identity", params, True, {"max_discrepancy": "0"})
    i, j = next((i, j) for i in range(k) for j in range(k) if diff[i][j] != 0)
    return Certificate(
        "cover-identity", params, False, {"entry": [i, j], "discrepancy": str(diff[i][j])}
    )


def _ref_pieces(cover, subset):
    """The s-fold intersection split on the largest index: each binary word
    over the other indices picks left or right sides; empty results drop."""
    *rest, last = subset
    out = []
    for word in product((0, 1), repeat=len(rest)):
        x, y = set(cover.parts[last].left), set(cover.parts[last].right)
        for bit, j in zip(word, rest):
            b = cover.parts[j]
            x &= set(b.right if bit else b.left)
            y &= set(b.left if bit else b.right)
        if x and y:
            out.append((x, y))
    return out


def _ref_rank_certificate(cover):
    k, d, t = cover.host_order, len(cover.parts), cover.multiplicity_bound
    bound = 1 + sum(2 ** (s - 1) * comb(d, s) for s in range(1, t + 1))
    residual = [[Fraction(int(i != j)) for j in range(k)] for i in range(k)]
    pieces = 0
    ranks_ok = True
    for s in range(1, min(t, d) + 1):
        for subset in combinations(range(d), s):
            for x, y in _ref_pieces(cover, subset):
                half = [[Fraction(int(i in x and j in y)) for j in range(k)] for i in range(k)]
                ranks_ok &= _frac_eliminate(half)[0] == 1
                pieces += 1
                for i in x:
                    for j in y:
                        residual[i][j] -= 2 * _ref_sign(s, "odd-positive")
    antisymmetric = all(residual[i][j] == -residual[j][i] for i in range(k) for j in range(k))
    regular = [[residual[i][j] + int(i == j) for j in range(k)] for i in range(k)]
    full_rank = _frac_eliminate(regular)[0] == k
    params = {"k": k, "d": d, "t": t, "pieces": pieces, "max_pieces": bound - 1, "bound": bound}
    if ranks_ok and antisymmetric and full_rank and k <= bound:
        return Certificate("rank-bound", params, True, {"rank": k, "bound": bound})
    return Certificate(
        "rank-bound",
        params,
        False,
        {
            "rank_one_pieces_ok": ranks_ok,
            "residual_antisymmetric": antisymmetric,
            "identity_plus_residual_full_rank": full_rank,
            "bound_holds": k <= bound,
        },
    )


def _shaped_cover(k, t, extras, rng):
    """A star partition of K_k in random vertex order plus ``extras`` random
    3-by-3 bicliques that keep every multiplicity at most t."""
    order = list(range(k))
    rng.shuffle(order)
    parts = [Biclique((v,), tuple(order[i + 1 :])) for i, v in enumerate(order[:-1])]
    count = {pair: 1 for pair in combinations(range(k), 2)}
    while len(parts) < k - 1 + extras:
        chosen = rng.sample(range(k), 6)
        pairs = _ref_pairs(chosen[:3], chosen[3:])
        if all(count[p] < t for p in pairs):
            for p in pairs:
                count[p] += 1
            parts.append(Biclique(tuple(chosen[:3]), tuple(chosen[3:])))
    return BicliqueSystem(k, tuple(parts), t)


class TestAlgebraDifferential:
    def _assert_same(self, cover):
        from bicliquelab.formats import write_certificate

        for rule in SIGN_RULES:
            assert write_certificate(verify_cover_identity(cover, sign_rule=rule)) == (
                write_certificate(_ref_cover_identity(cover, rule))
            )
        assert write_certificate(rank_certificate(cover)) == (
            write_certificate(_ref_rank_certificate(cover))
        )

    def test_random_t_covers(self):
        rng = random.Random(41)
        for k in range(2, 9):
            for t in (1, 2, 3):
                for _ in range(3):
                    self._assert_same(random_t_cover(k, t, rng))

    def test_exact_small_shaped_covers(self):
        rng = random.Random(43)
        for k, t, extras in ((10, 3, 2), (11, 2, 2), (12, 2, 2), (10, 3, 4), (12, 3, 3)):
            self._assert_same(_shaped_cover(k, t, extras, rng))

    def test_t_above_d(self):
        self._assert_same(BicliqueSystem(2, (Biclique((0,), (1,)),), 3))
        self._assert_same(BicliqueSystem(3, star_partition(Graph.complete(3)).parts, 5))
        self._assert_same(BicliqueSystem(2, (Biclique((0,), (1,)),) * 2, 4))

    def test_tiny_hosts(self):
        self._assert_same(BicliqueSystem(0, (), 1))
        self._assert_same(BicliqueSystem(1, (), 2))
        self._assert_same(BicliqueSystem(2, (Biclique((1,), (0,)),), 1))
        self._assert_same(K4_TWO_COVER)

    def test_reference_flags_a_broken_identity(self):
        # The reference is not vacuous: the flipped sign fails with a witness.
        cert = _ref_cover_identity(K4_TWO_COVER, "even-positive")
        assert not cert.verdict and cert.witness == {"entry": [0, 1], "discrepancy": "2"}
