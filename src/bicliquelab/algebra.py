"""Exact integer machinery behind the t-cover counting bound for complete graphs.

Given a t-biclique cover of the complete graph on k vertices by d parts,
the all-ones-minus-identity matrix decomposes by inclusion-exclusion over
intersections of up to t parts; each intersection splits into at most
2^(s-1) bicliques; and replacing every biclique matrix by its rank-one half
leaves an antisymmetric residual.  Since identity-plus-antisymmetric is
nonsingular over the rationals, k is at most one more than the number of
rank-one pieces, i.e. k <= peck_bound(d, t).  Everything here verifies those
steps entrywise with exact integer arithmetic (int64 sums with a guarded
bound, fraction-free elimination on Python ints); nothing floats.

Part indices are 1-based throughout this module (certificates print them,
and the distinguished index of an index set is its largest element).
"""

from __future__ import annotations

import operator
from itertools import combinations, islice, product
from math import comb
from typing import Iterable

import numpy as np

from .errors import ResourceLimitError
from .graphs import Biclique, BicliqueSystem, Certificate, Graph, verify_biclique_system
from .packed import pack_rows, unpack_rows, zero_rows

SIGN_RULES = ("odd-positive", "even-positive")


def _bareiss(m: list[list[int]]) -> tuple[int, int]:
    """Rank of an integer matrix and, if it is square, its determinant (0
    for non-square input), by fraction-free elimination (Bareiss 1968).

    Overwrites ``m``.  After the r-th pivot every entry below it is an
    (r+1)-minor of the input, so each division by the previous pivot is
    exact and all arithmetic stays on Python ints.
    """
    rows, cols = len(m), len(m[0]) if m else 0
    rank, prev, sign = 0, 1, 1
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        top = m[rank]
        pv = top[col]
        for r in range(rank + 1, rows):
            row = m[r]
            f = row[col]
            for c in range(col + 1, cols):
                row[c] = (row[c] * pv - f * top[c]) // prev
        prev = pv
        rank += 1
    return rank, (sign * prev if rank == rows == cols else 0)


def peck_bound(d: int, t: int) -> int:
    """Largest complete-graph order a size-d t-biclique cover can support:
    1 + sum over s=1..t of 2^(s-1) * C(d, s).  At t=1 this is d+1."""
    if d < 0 or t < 1:
        raise ValueError("need d >= 0 and t >= 1")
    return 1 + sum((1 << (s - 1)) * comb(d, s) for s in range(1, t + 1))


def _check_indices(cover: BicliqueSystem, indices: Iterable[int]) -> tuple[int, ...]:
    idx = tuple(sorted(set(map(operator.index, indices))))
    if not idx:
        raise ValueError("index set must be nonempty")
    if idx[0] < 1 or idx[-1] > len(cover):
        raise ValueError(f"part indices must lie in 1..{len(cover)}, got {idx}")
    return idx


def split_intersection(cover: BicliqueSystem, indices: Iterable[int]) -> list[Biclique]:
    """Split an intersection of s parts into at most 2^(s-1) disjoint bicliques.

    The largest index plays the distinguished role: each binary word z over
    the remaining s-1 indices picks, per index, either its left or right
    side; the left sides intersected with the distinguished left form one
    part of a biclique, the mirrored choice intersected with the
    distinguished right forms the other.  Empty-sided candidates are
    dropped.  The surviving bicliques are pairwise edge-disjoint and union
    to the intersection graph.
    """
    *rest, last = (cover[i - 1] for i in _check_indices(cover, indices))
    out: list[Biclique] = []
    for z in product((0, 1), repeat=len(rest)):
        x = set(last.left)
        y = set(last.right)
        for bit, b in zip(z, rest):
            if bit == 0:
                x &= set(b.left)
                y &= set(b.right)
            else:
                x &= set(b.right)
                y &= set(b.left)
        if x and y:
            out.append(Biclique(tuple(sorted(x)), tuple(sorted(y))))
    return out


# Largest min(t, d) the certificates accept.  A pair covered c <= min(t, d)
# times lies in at most 2^c - 1 of the enumerated index sets and each set
# contributes at most 2 per entry, so every integer entry below is bounded
# by 2^(min(t, d)+1) and int64 cannot wrap.
_MAX_SUBSET_SIZE = 60
_CHUNK_BYTES = 1 << 20  # index sets per batch: about this many bytes


def _subset_size(cover: BicliqueSystem) -> int:
    """min(t, d), the largest index-set size enumerated; refused past
    _MAX_SUBSET_SIZE before anything is enumerated or allocated."""
    size = min(cover.multiplicity_bound, len(cover))
    if size > _MAX_SUBSET_SIZE:
        raise ResourceLimitError("certificate index-set size min(t, d)", _MAX_SUBSET_SIZE, size)
    return size


def _ones_minus_identity(k: int) -> np.ndarray:
    return 1 - np.eye(k, dtype=np.int64)


def _require_valid_cover(cover: BicliqueSystem) -> Certificate:
    host = Graph.complete(cover.host_order)
    cert = verify_biclique_system(host, cover)
    if not cert.verdict:
        raise ValueError(f"not a valid t-biclique cover of the complete graph: {cert.witness}")
    return cert


def _sign(s: int, rule: str) -> int:
    """Sign of a size-s index set under ``rule``, one of ``SIGN_RULES``."""
    return 1 if s % 2 == (rule == "odd-positive") else -1


def verify_cover_identity(
    cover: BicliqueSystem, *, sign_rule: str = "odd-positive"
) -> Certificate:
    """Check entrywise that ones-minus-identity equals the signed sum of
    intersection adjacency matrices over all nonempty index sets of size <= t.

    The default sign rule gives size-s intersections sign (-1)^(s+1), the
    standard inclusion-exclusion convention; ``even-positive`` is the
    negated convention and fails on every nonempty cover.  The certificate
    records the rule used and the maximum absolute entry discrepancy.

    Each index set's intersection is the AND of its parts' symmetric 0/1
    pair indicators (packed rows, d*k*ceil(k/64) words), summed with its
    sign into an int64 matrix, a bounded batch of index sets at a time.
    Every entry is bounded by 2^(min(t, d)+1); min(t, d) > 60 raises
    ``ResourceLimitError`` before any index set is enumerated.  An unknown
    ``sign_rule`` raises ``ValueError`` before any work, even on a cover
    with no parts.
    """
    if sign_rule not in SIGN_RULES:
        raise ValueError(f"unknown sign rule {sign_rule!r}; expected one of {SIGN_RULES}")
    size = _subset_size(cover)
    _require_valid_cover(cover)
    k = cover.host_order
    d = len(cover)
    t = cover.multiplicity_bound
    # row u of part i's indicator, as a packed row
    covers = zero_rows(d, k, k)
    for i, b in enumerate(cover):
        pairs = np.zeros((k, k), dtype=bool)
        pairs[np.ix_(b.left, b.right)] = True
        covers[i] = pack_rows(pairs | pairs.T)
    total = np.zeros((k, k), dtype=np.int64)
    for s in range(1, size + 1):
        sign = _sign(s, sign_rule)
        subsets = combinations(range(d), s)
        batch = max(1, _CHUNK_BYTES // (k * k + 8 * s + 64))  # unpacked rows + index tuple
        while block := list(islice(subsets, batch)):
            idx = np.array(block, dtype=np.intp)
            common = covers[idx[:, 0]]
            for j in range(1, s):
                common &= covers[idx[:, j]]
            total += sign * unpack_rows(common, k).sum(axis=0, dtype=np.int64)
    diff = _ones_minus_identity(k) - total
    discrepancy = int(np.abs(diff).max(initial=0))
    params = {
        "k": k,
        "d": d,
        "t": t,
        "sign_rule": sign_rule,
        "max_discrepancy": str(discrepancy),
    }
    if discrepancy == 0:
        return Certificate(
            claim="cover-identity", parameters=params, verdict=True,
            witness={"max_discrepancy": "0"},
        )
    i, j = divmod(int(np.flatnonzero(diff)[0]), k)
    return Certificate(
        claim="cover-identity",
        parameters=params,
        verdict=False,
        witness={"entry": [i, j], "discrepancy": str(int(diff[i, j]))},
    )


def rank_certificate(cover: BicliqueSystem) -> Certificate:
    """Build the rank-one pieces and the antisymmetric residual, and certify
    k <= peck_bound(d, t) by exact rank computations.

    Checks: (i) every rank-one half actually has rank 1, (ii) the residual
    after subtracting the doubled halves from ones-minus-identity is
    antisymmetric, (iii) identity-plus-residual is nonsingular over the
    rationals (exact rank k), (iv) the counting bound holds.  Bit-stable
    across reruns: all arithmetic is exact.

    Halves are integer 0/1 matrices and both rank checks run fraction-free
    elimination on Python ints.  The residual is held in int64, every entry
    bounded by 2^(min(t, d)+1); min(t, d) > 60 raises ``ResourceLimitError``
    before any index set is enumerated.
    """
    size = _subset_size(cover)
    _require_valid_cover(cover)
    k = cover.host_order
    d = len(cover)
    t = cover.multiplicity_bound
    bound = peck_bound(d, t)

    pieces = 0
    ranks_ok = True
    signed_sum = np.zeros((k, k), dtype=np.int64)
    for s in range(1, size + 1):
        sign = _sign(s, "odd-positive")
        for subset in combinations(range(1, d + 1), s):
            for piece in split_intersection(cover, subset):
                half = np.zeros((k, k), dtype=np.int64)
                half[np.ix_(piece.left, piece.right)] = 1
                ranks_ok &= _bareiss(half.tolist())[0] == 1
                signed_sum += 2 * sign * half
                pieces += 1

    residual = _ones_minus_identity(k) - signed_sum
    antisymmetric = bool(np.array_equal(residual, -residual.T))
    regular = np.eye(k, dtype=np.int64) + residual
    full_rank = _bareiss(regular.tolist())[0] == k
    bound_holds = k <= bound
    params = {
        "k": k,
        "d": d,
        "t": t,
        "pieces": pieces,
        "max_pieces": bound - 1,
        "bound": bound,
    }
    verdict = ranks_ok and antisymmetric and full_rank and bound_holds
    if verdict:
        return Certificate(
            claim="rank-bound",
            parameters=params,
            verdict=True,
            witness={"rank": k, "bound": bound},
        )
    return Certificate(
        claim="rank-bound",
        parameters=params,
        verdict=False,
        witness={
            "rank_one_pieces_ok": ranks_ok,
            "residual_antisymmetric": antisymmetric,
            "identity_plus_residual_full_rank": full_rank,
            "bound_holds": bound_holds,
        },
    )
