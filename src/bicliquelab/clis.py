"""Reductions between biclique partitions and the clique-vs-independent-set game.

Forward direction: a biclique partition of a graph G gives each biclique a
characteristic vector over {0,1,*} (position j holds 0 if vertex j is on the
left side, 1 if on the right, * otherwise), a conflict graph on the
bicliques (``biclique_graph``: adjacent when two vectors share a 1, a
non-edge otherwise), and canonical clique/independent-set families whose
intersection matrix has zero diagonal; covering that matrix's 0-entries by
monochromatic rectangles is at least as hard as properly coloring G.

Reverse direction: from any graph, the disjoint (clique, independent-set)
pairs form a new graph carrying an explicit 2-cover with one biclique per
original vertex.

Also implements the halving communication protocol for the game itself,
with bit-exact accounting: every message is one flag bit plus, for sends,
a fixed-width vertex name of ceil(log2 m) bits.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain, combinations, cycle, islice

import numpy as np

from .errors import ResourceLimitError, WellDefinednessError
from .graphs import Biclique, BicliqueSystem, Certificate, Graph, verify_biclique_system
from .oracles import BoolMatrix, chromatic_number, min_rectangle_cover
from .packed import iter_bits, mask_of

PAIR_LIMIT = 5000  # most pairs build_pair_graph forms
CHI_CHECK_ORDER_LIMIT = 8  # largest host order chi_lower_bound_check solves


def _side_masks(partition: BicliqueSystem) -> tuple[list[int], list[int]]:
    """Each part's left and right side as vertex masks (bit v = vertex v)."""
    if partition.multiplicity_bound != 1:
        raise ValueError("characteristic vectors are defined for exact partitions (t=1)")
    parts = list(partition)
    return [mask_of(b.left) for b in parts], [mask_of(b.right) for b in parts]


def biclique_graph(partition: BicliqueSystem) -> Graph:
    """The graph on the partition's bicliques: adjacent when two vectors share
    a 1-coordinate, non-adjacent otherwise.

    A pair sharing a 1 and a 0 certifies the input was not a valid partition
    (that edge would be covered twice) and raises :class:`WellDefinednessError`
    with the lowest shared vertex of each kind.  A pair sharing neither is a
    non-edge; no certificate depends on that, as members of a canonical clique
    share a 1 and members of a canonical independent set share a 0.
    """
    lefts, rights = _side_masks(partition)
    m = len(lefts)
    edges = []
    for i in range(m):
        for j in range(i + 1, m):
            one = rights[i] & rights[j]
            zero = lefts[i] & lefts[j]
            if one and zero:
                raise WellDefinednessError(
                    i + 1, j + 1, next(iter_bits(one)), next(iter_bits(zero))
                )
            if one:
                edges.append((i, j))
    return Graph.from_edges(m, edges)


@dataclass(frozen=True)
class ClisInstance:
    """A clique-vs-independent-set instance: a public graph, ordered families
    of cliques and independent sets, and the 0/1 matrix of intersection sizes.

    Construction checks that each listed clique is pairwise adjacent and
    each independent set pairwise non-adjacent, with no vertex repeated or
    out of range, and derives ``matrix`` from the families' masks.  A
    clique and an independent set share at most one vertex, so every entry
    is 0 or 1.
    """

    graph: Graph
    cliques: tuple[tuple[int, ...], ...]
    independents: tuple[tuple[int, ...], ...]
    matrix: BoolMatrix = field(init=False)
    neighbor_masks: list[int] = field(init=False, repr=False, compare=False)
    clique_masks: list[int] = field(init=False, repr=False, compare=False)
    independent_masks: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        masks = self.graph.neighbor_masks()
        rows = []
        for c in self.cliques:
            members = _members(c, len(masks))
            if members is None or any(members & ~masks[u] != 1 << u for u in c):
                raise ValueError(f"{c} is not a clique")
            rows.append(members)
        cols = []
        for s in self.independents:
            members = _members(s, len(masks))
            if members is None or any(members & masks[u] for u in s):
                raise ValueError(f"{s} is not an independent set")
            cols.append(members)
        entries = np.array([(r & c).bit_count() for r in rows for c in cols], dtype=np.uint8)
        object.__setattr__(self, "matrix", BoolMatrix(entries.reshape(len(rows), len(cols))))
        object.__setattr__(self, "neighbor_masks", masks)
        object.__setattr__(self, "clique_masks", rows)
        object.__setattr__(self, "independent_masks", cols)


def _members(vertices: tuple[int, ...], n: int) -> int | None:
    """The vertices as a mask, or None if one repeats or lies past n - 1."""
    mask = mask_of(vertices)
    return mask if mask.bit_count() == len(vertices) and not mask >> n else None


def all_cliques(graph: Graph) -> list[tuple[int, ...]]:
    """Every clique of the graph, empty set and singletons included, sorted
    lexicographically."""
    return sorted(_cliques(graph))


def _cliques(graph: Graph) -> Iterator[tuple[int, ...]]:
    """Every clique of the graph once, the empty one first; the search holds
    no more cliques than it has yielded, so a caller may stop it early."""
    masks = graph.neighbor_masks()
    yield ()
    stack = [((), (1 << graph.order) - 1)]  # a clique and the vertices that extend it
    while stack:
        base, cand = stack.pop()
        for v in iter_bits(cand):
            clique = base + (v,)
            yield clique
            # extend only by higher vertices, so each clique is built once
            stack.append((clique, cand & masks[v] & -(2 << v)))


def all_independent_sets(graph: Graph) -> list[tuple[int, ...]]:
    """Every independent set of the graph (cliques of the complement)."""
    return all_cliques(graph.complement())


def full_instance(graph: Graph) -> ClisInstance:
    """The instance over *all* cliques and independent sets of the graph."""
    return ClisInstance(graph, tuple(all_cliques(graph)), tuple(all_independent_sets(graph)))


def canonical_instance(partition: BicliqueSystem) -> ClisInstance:
    """The instance induced by a partition: for each host vertex j, the
    bicliques whose vector holds 1 at j form a clique, those holding 0 an
    independent set.  The intersection matrix has zero diagonal.
    """
    gamma = biclique_graph(partition)
    lefts, rights = _side_masks(partition)
    hosts = range(partition.host_order)
    cliques = tuple(tuple(q for q, right in enumerate(rights) if right >> j & 1) for j in hosts)
    independents = tuple(tuple(q for q, left in enumerate(lefts) if left >> j & 1) for j in hosts)
    inst = ClisInstance(gamma, cliques, independents)
    if inst.matrix.entries.diagonal().any():
        raise AssertionError("diagonal must be zero: no vector holds 0 and 1 at once")
    return inst


def chi_lower_bound_check(graph: Graph, partition: BicliqueSystem) -> Certificate:
    """Certify that covering the canonical matrix's 0-entries takes at least
    as many rectangles as properly coloring the host graph.

    Besides comparing the exact numbers, this maps every rectangle touching
    the diagonal to the vertex set of its diagonal entries and re-checks
    the combinatorial content: each such set is independent in the host
    graph and together they cover all vertices.
    """
    n = graph.order
    if n > CHI_CHECK_ORDER_LIMIT:
        raise ResourceLimitError("chi_check_order_limit", CHI_CHECK_ORDER_LIMIT, n)
    inst = canonical_instance(partition)
    cover_size, rects = min_rectangle_cover(inst.matrix, 0)
    chi, _ = chromatic_number(graph)
    params = {"order": n, "zero_cover": cover_size, "chromatic": chi}

    diag_sets = 0
    covered = 0
    masks = graph.neighbor_masks()
    for rows, cols in rects:
        diag = mask_of(rows) & mask_of(cols)
        if not diag:
            continue
        if any(diag & masks[u] for u in iter_bits(diag)):
            return Certificate(
                claim="chi-lower-bound",
                parameters=params,
                verdict=False,
                witness={
                    "kind": "rectangle-set-not-independent",
                    "vertices": list(iter_bits(diag)),
                },
            )
        diag_sets += 1
        covered |= diag
    if covered != (1 << n) - 1:
        return Certificate(
            claim="chi-lower-bound",
            parameters=params,
            verdict=False,
            witness={
                "kind": "diagonal-not-covered",
                "missing": list(iter_bits(~covered & (1 << n) - 1)),
            },
        )
    if cover_size < chi:
        return Certificate(
            claim="chi-lower-bound",
            parameters=params,
            verdict=False,
            witness={"kind": "bound-violated", "zero_cover": cover_size, "chromatic": chi},
        )
    return Certificate(
        claim="chi-lower-bound",
        parameters=params,
        verdict=True,
        witness={"independent_sets_from_rectangles": diag_sets},
    )


@dataclass(frozen=True)
class Transcript:
    """A protocol run: per-round messages, the announced answer, and the
    total message bits (pass/send flags plus fixed-width vertex names; the
    final answer announcement is not billed)."""

    rounds: tuple[tuple[str, str], ...]
    answer: int
    total_bits: int


def yannakakis_protocol(inst: ClisInstance, clique_index: int, independent_index: int) -> Transcript:
    """Simulate the halving protocol on a live induced subgraph.

    Each round Alice looks for a clique vertex of degree at most half the
    live order; if she finds one (lowest index wins) she names it, the
    answer is 1 the moment the named vertex lies in Bob's set, and
    otherwise the live set shrinks to the vertex's closed neighborhood
    minus the vertex itself, which is legitimate because continuing the
    protocol tells both players the test failed.  Bob mirrors her with an
    independent-set vertex of degree at least half, keeping the vertex and
    its non-neighbors.  An empty live set or a double pass means the sets
    are disjoint.  Each restriction at least halves the live set, so there
    are at most floor(log2 m) + 1 rounds.
    """
    cliques, independents = inst.clique_masks, inst.independent_masks
    i, j = operator.index(clique_index), operator.index(independent_index)
    if not (0 <= i < len(cliques) and 0 <= j < len(independents)):
        raise ValueError(f"indices ({i}, {j}) outside [0, {len(cliques)}) x [0, {len(independents)})")
    clique, indep = cliques[i], independents[j]
    m = inst.graph.order
    masks = inst.neighbor_masks
    width = max(m - 1, 0).bit_length()  # ceil(log2 m) bits name any of m vertices
    live = (1 << m) - 1  # bitmask of the live vertices
    rounds: list[tuple[str, str]] = []
    # per speaker: the names allowed, the set where a name answers 1, the sign
    # s with s * (2 * live degree - live order) <= 0, and the mask XORed onto
    # the neighbours to give the half kept (Bob's keeps the named vertex)
    speakers = (("A", clique, indep, 1, 0), ("B", indep, clique, -1, -1))
    answer, alice_passed = 0, False
    for speaker, names, hits, sign, keep in cycle(speakers):
        if not live:
            break
        h = live.bit_count()
        pick = next(
            (
                v
                for v in iter_bits(names & live)
                if sign * (2 * (masks[v] & live).bit_count() - h) <= 0
            ),
            None,
        )
        if pick is None:
            rounds.append((speaker, "0"))
            if alice_passed:
                break
            alice_passed = speaker == "A"
            continue
        rounds.append((speaker, "1" + (format(pick, "b").zfill(width) if width else "")))
        if hits >> pick & 1:
            answer = 1
            break
        live &= masks[pick] ^ keep
        alice_passed = False
    return Transcript(tuple(rounds), answer, sum(len(bits) for _, bits in rounds))


def build_pair_graph(graph: Graph) -> tuple[Graph, BicliqueSystem]:
    """The graph on disjoint (clique, independent-set) pairs, with its 2-cover.

    Pairs are adjacent when either clique meets the other's independent
    set.  For each original vertex v, the pairs whose clique contains v and
    the pairs whose independent set contains v span a biclique; every edge
    lies in one or two of these (one per witnessing vertex, and a crossing
    can have at most one witness per direction), so the system is a valid
    2-cover of size at most the original order.  The graph is built from
    the pair definition, not from the bicliques, so the closing
    verification compares two routes.

    ``PAIR_LIMIT`` is applied before any pair is formed.  The empty clique
    pairs with every independent set and the empty independent set with
    every clique, so a family larger than the limit is refused as soon as
    its enumeration passes the limit (the error then names that family's
    size, a lower bound on the pairs).  Otherwise the pairs are counted
    exactly first: a clique and an independent set share at most one
    vertex, so |C|·|I| − Σ_v c_v·i_v pairs are disjoint, where c_v and i_v
    count the cliques and the independent sets that hold v.
    """
    families = []
    for g in (graph, graph.complement()):
        family = list(islice(_cliques(g), PAIR_LIMIT + 1))
        if len(family) > PAIR_LIMIT:
            raise ResourceLimitError("pair_limit", PAIR_LIMIT, len(family))
        families.append(family)
    cliques, independents = families
    in_cliques, in_independents = (Counter(chain.from_iterable(f)) for f in families)
    count = len(cliques) * len(independents) - sum(
        k * in_independents[v] for v, k in in_cliques.items()
    )
    if count > PAIR_LIMIT:
        raise ResourceLimitError("pair_limit", PAIR_LIMIT, count)
    # the disjoint pairs, sorted, each with its clique's and its independent set's mask
    cm, im = ([(f, mask_of(f)) for f in family] for family in families)
    pairs = sorted((c, s, m, sm) for c, m in cm for s, sm in im if not m & sm)
    _, _, cl, ind = zip(*pairs)  # never empty: the empty clique and set are disjoint
    edges = [(a, b) for a, b in combinations(range(count), 2) if cl[a] & ind[b] or cl[b] & ind[a]]
    pair_graph = Graph.from_edges(count, edges)

    parts = []
    for v in range(graph.order):
        left = tuple(i for i in range(count) if cl[i] >> v & 1)
        right = tuple(i for i in range(count) if ind[i] >> v & 1)
        if left and right:
            parts.append(Biclique(left, right))
    system = BicliqueSystem(count, tuple(parts), 2)
    cert = verify_biclique_system(pair_graph, system)
    if not cert.verdict:
        raise AssertionError(f"pair-graph 2-cover failed self-verification: {cert.witness}")
    return pair_graph, system
