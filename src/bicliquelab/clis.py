"""Reductions between biclique partitions and the clique-vs-independent-set game.

Forward direction: a biclique partition of a graph G induces characteristic
vectors over {0,1,*}, a conflict structure on the bicliques (the graph
``biclique_graph`` builds), and canonical clique/independent-set families
whose intersection matrix has zero diagonal; covering that matrix's
0-entries by monochromatic rectangles is at least as hard as properly
coloring G.

Reverse direction: from any graph, the disjoint (clique, independent-set)
pairs form a new graph carrying an explicit 2-cover with one biclique per
original vertex.

Also implements the halving communication protocol for the game itself,
with bit-exact accounting: every message is one flag bit plus, for sends,
a fixed-width vertex name of ceil(log2 m) bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, WellDefinednessError
from .graphs import Biclique, BicliqueSystem, Certificate, Graph, pack_rows, verify_biclique_system
from .oracles import BoolMatrix, chromatic_number, min_rectangle_cover

# A characteristic vector is a string over {0,1,*}: position j holds 0 if
# vertex j is in the biclique's left part, 1 if in the right part, * otherwise.
CharVector = str


def characteristic_vectors(partition: BicliqueSystem) -> list[CharVector]:
    """One vector per biclique of a declared partition (multiplicity bound 1)."""
    if partition.multiplicity_bound != 1:
        raise ValueError("characteristic vectors are defined for exact partitions (t=1)")
    n = partition.host_order
    out = []
    for b in partition:
        v = ["*"] * n
        for u in b.left:
            v[u] = "0"
        for w in b.right:
            v[w] = "1"
        out.append("".join(v))
    return out


def biclique_graph(partition: BicliqueSystem, *, ambiguous_edge: bool = False) -> Graph:
    """The graph on the partition's bicliques: adjacent when two vectors share
    a 1-coordinate, non-adjacent when they share a 0-coordinate.

    A pair sharing both certifies the input was not a valid partition (the
    corresponding edge would be covered twice) and raises
    :class:`WellDefinednessError`.  Pairs sharing neither are resolved by
    ``ambiguous_edge`` (default: non-edge).
    """
    vectors = characteristic_vectors(partition)
    m = len(vectors)
    adj = np.zeros((m, m), dtype=bool)
    for i in range(m):
        vi = vectors[i]
        for j in range(i + 1, m):
            vj = vectors[j]
            one = next((p for p in range(len(vi)) if vi[p] == vj[p] == "1"), None)
            zero = next((p for p in range(len(vi)) if vi[p] == vj[p] == "0"), None)
            if one is not None and zero is not None:
                raise WellDefinednessError(i + 1, j + 1, one, zero)
            edge = one is not None or (zero is None and ambiguous_edge)
            adj[i, j] = adj[j, i] = edge
    return Graph._trusted(pack_rows(adj))


@dataclass(frozen=True)
class ClisInstance:
    """A clique-vs-independent-set instance: a public graph, ordered families
    of cliques and independent sets, and the 0/1 matrix of intersection sizes.

    Construction re-checks everything: each listed clique is pairwise
    adjacent, each independent set pairwise non-adjacent, every
    intersection has size at most one, and the matrix matches.
    """

    graph: Graph
    cliques: tuple[tuple[int, ...], ...]
    independents: tuple[tuple[int, ...], ...]
    matrix: BoolMatrix

    def __post_init__(self):
        masks = self.graph.neighbor_masks()
        for c in self.cliques:
            members = _mask_of(c)
            if len(set(c)) != len(c) or any(members & ~masks[u] != 1 << u for u in c):
                raise ValueError(f"{c} is not a clique")
        for s in self.independents:
            members = _mask_of(s)
            if any(members & masks[u] for u in s):
                raise ValueError(f"{s} is not an independent set")
        if (self.matrix.rows, self.matrix.cols) != (len(self.cliques), len(self.independents)):
            raise ValueError("matrix shape does not match the families")
        for p, c in enumerate(self.cliques):
            cs = set(c)
            for q, s in enumerate(self.independents):
                inter = len(cs & set(s))
                if inter > 1:
                    raise ValueError(
                        f"clique {p} and independent set {q} share {inter} > 1 vertices"
                    )
                if inter != int(self.matrix.entries[p, q]):
                    raise ValueError(f"matrix entry ({p},{q}) disagrees with |C & I|")


def _mask_of(vertices) -> int:
    """The vertex set as a Python int bitmask (bit v = vertex v)."""
    return sum(1 << v for v in set(vertices))


def _subsets_closed_under(adjsets: list[set[int]], n: int) -> list[tuple[int, ...]]:
    """All vertex sets pairwise related by ``adjsets`` (includes the empty set),
    sorted lexicographically."""
    out: list[tuple[int, ...]] = [()]

    def grow(base: list[int], candidates: set[int]) -> None:
        for v in sorted(candidates):
            cur = base + [v]
            out.append(tuple(cur))
            grow(cur, candidates & adjsets[v] & set(range(v + 1, n)))

    grow([], set(range(n)))
    return sorted(out)


def all_cliques(graph: Graph) -> list[tuple[int, ...]]:
    """Every clique of the graph, empty set and singletons included."""
    n = graph.order
    return _subsets_closed_under([set(graph.neighbors(v)) for v in range(n)], n)


def all_independent_sets(graph: Graph) -> list[tuple[int, ...]]:
    """Every independent set of the graph (cliques of the complement)."""
    return all_cliques(graph.complement())


def full_instance(graph: Graph) -> ClisInstance:
    """The instance over *all* cliques and independent sets of the graph."""
    cliques = all_cliques(graph)
    independents = all_independent_sets(graph)
    mat = np.zeros((len(cliques), len(independents)), dtype=np.uint8)
    for p, c in enumerate(cliques):
        cs = set(c)
        for q, s in enumerate(independents):
            mat[p, q] = len(cs & set(s))
    return ClisInstance(graph, tuple(cliques), tuple(independents), BoolMatrix(mat))


def canonical_instance(partition: BicliqueSystem, *, ambiguous_edge: bool = False) -> ClisInstance:
    """The instance induced by a partition: for each host vertex j, the
    bicliques whose vector holds 1 at j form a clique, those holding 0 an
    independent set.  The intersection matrix has zero diagonal.
    """
    gamma = biclique_graph(partition, ambiguous_edge=ambiguous_edge)
    vectors = characteristic_vectors(partition)
    n = partition.host_order
    cliques = tuple(
        tuple(q for q, v in enumerate(vectors) if v[j] == "1") for j in range(n)
    )
    independents = tuple(
        tuple(q for q, v in enumerate(vectors) if v[j] == "0") for j in range(n)
    )
    mat = np.zeros((n, n), dtype=np.uint8)
    for p in range(n):
        cs = set(cliques[p])
        for q in range(n):
            inter = len(cs & set(independents[q]))
            if inter > 1:
                raise ValueError(
                    f"vertices {p},{q}: edge covered {inter} times; not a partition"
                )
            mat[p, q] = inter
    if any(mat[j, j] for j in range(n)):
        raise AssertionError("diagonal must be zero: no vector holds 0 and 1 at once")
    return ClisInstance(gamma, cliques, independents, BoolMatrix(mat))


def chi_lower_bound_check(
    graph: Graph,
    partition: BicliqueSystem,
    *,
    order_limit: int = 8,
    ambiguous_edge: bool = False,
) -> Certificate:
    """Certify that covering the canonical matrix's 0-entries takes at least
    as many rectangles as properly coloring the host graph.

    Besides comparing the exact numbers, this maps every rectangle touching
    the diagonal to the vertex set of its diagonal entries and re-checks
    the combinatorial content: each such set is independent in the host
    graph and together they cover all vertices.
    """
    n = graph.order
    if n > order_limit:
        raise ResourceLimitError("chi_check_order_limit", order_limit, n)
    inst = canonical_instance(partition, ambiguous_edge=ambiguous_edge)
    cover_size, rects = min_rectangle_cover(inst.matrix, 0)
    chi, _ = chromatic_number(graph)
    params = {"order": n, "zero_cover": cover_size, "chromatic": chi}

    diag_sets = []
    covered_diag: set[int] = set()
    masks = graph.neighbor_masks()
    for rows, cols in rects:
        diag = sorted(set(rows) & set(cols))
        if not diag:
            continue
        if any(_mask_of(diag) & masks[u] for u in diag):
            return Certificate(
                claim="chi-lower-bound",
                parameters=params,
                verdict=False,
                witness={"kind": "rectangle-set-not-independent", "vertices": diag},
            )
        diag_sets.append(diag)
        covered_diag.update(diag)
    if covered_diag != set(range(n)):
        return Certificate(
            claim="chi-lower-bound",
            parameters=params,
            verdict=False,
            witness={
                "kind": "diagonal-not-covered",
                "missing": sorted(set(range(n)) - covered_diag),
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
        witness={"independent_sets_from_rectangles": len(diag_sets)},
    )


@dataclass(frozen=True)
class Transcript:
    """A protocol run: per-round messages, the announced answer, and the
    total message bits (pass/send flags plus fixed-width vertex names; the
    final answer announcement is not billed)."""

    rounds: tuple[tuple[str, str], ...]
    answer: int
    total_bits: int


def _name_bits(m: int) -> int:
    return math.ceil(math.log2(m)) if m > 1 else 0


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
    try:
        clique = set(inst.cliques[clique_index])
        indep = set(inst.independents[independent_index])
    except IndexError as exc:
        raise ValueError(f"invalid family index: {exc}") from exc
    m = inst.graph.order
    masks = inst.graph.neighbor_masks()
    width = _name_bits(m)
    live = (1 << m) - 1  # bitmask of the live vertices
    rounds: list[tuple[str, str]] = []
    total = 0

    def say(speaker: str, vertex: int | None) -> None:
        nonlocal total
        if vertex is None:
            rounds.append((speaker, "0"))
            total += 1
        else:
            name = format(vertex, "b").zfill(width) if width else ""
            rounds.append((speaker, "1" + name))
            total += 1 + width

    def finish(answer: int) -> Transcript:
        return Transcript(tuple(rounds), answer, total)

    clique_order, indep_order = sorted(clique), sorted(indep)
    while True:
        if not live:
            return finish(0)
        h = live.bit_count()
        alice_sent = False
        pick = next(
            (
                v
                for v in clique_order
                if live >> v & 1 and 2 * (masks[v] & live).bit_count() <= h
            ),
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
            (
                v
                for v in indep_order
                if live >> v & 1 and 2 * (masks[v] & live).bit_count() >= h
            ),
            None,
        )
        if pick is not None:
            say("B", pick)
            if pick in clique:
                return finish(1)
            live &= ~masks[pick]  # keeps pick itself: it is not its own neighbor
        else:
            say("B", None)
            if not alice_sent:
                return finish(0)


def disjoint_pairs(graph: Graph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (clique, independent set) pairs with empty intersection, sorted
    lexicographically; these are the vertices of the pair graph."""
    cliques = all_cliques(graph)
    independents = all_independent_sets(graph)
    return sorted(
        (c, s) for c in cliques for s in independents if not set(c) & set(s)
    )


def build_pair_graph(
    graph: Graph, *, pair_limit: int = 5000
) -> tuple[Graph, BicliqueSystem]:
    """The graph on disjoint (clique, independent-set) pairs, with its 2-cover.

    Pairs are adjacent when either clique meets the other's independent
    set.  For each original vertex v, the pairs whose clique contains v and
    the pairs whose independent set contains v span a biclique; every edge
    lies in one or two of these (one per witnessing vertex, and a crossing
    can have at most one witness per direction), so the system is a valid
    2-cover of size at most the original order.
    """
    pairs = disjoint_pairs(graph)
    if len(pairs) > pair_limit:
        raise ResourceLimitError("pair_limit", pair_limit, len(pairs))
    count = len(pairs)
    sets = [(set(c), set(s)) for c, s in pairs]
    adj = np.zeros((count, count), dtype=bool)
    for a in range(count):
        ca, ia = sets[a]
        for b in range(a + 1, count):
            cb, ib = sets[b]
            if (ca & ib) or (cb & ia):
                adj[a, b] = adj[b, a] = True
    pair_graph = Graph._trusted(pack_rows(adj))

    parts = []
    for v in range(graph.order):
        left = tuple(i for i, (c, _) in enumerate(sets) if v in c)
        right = tuple(i for i, (_, s) in enumerate(sets) if v in s)
        if set(left) & set(right):
            raise AssertionError("a pair cannot hold the same vertex on both sides")
        if left and right:
            parts.append(Biclique(left, right))
    system = BicliqueSystem(count, tuple(parts), 2)
    cert = verify_biclique_system(pair_graph, system)
    if not cert.verdict:
        raise AssertionError(f"pair-graph 2-cover failed self-verification: {cert.witness}")
    return pair_graph, system
