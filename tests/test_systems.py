"""Biclique-system storage: every producer's parts and text, pinned by digest.

The digests were recorded on the Biclique-tuple storage, so a change of
storage must keep each producer's part order, sorted sides and
``write_system`` bytes, and ``read_system``'s verdict, line and message on
malformed text.
"""

import hashlib
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicliquelab import clis, corpus, graphs, oracles
from bicliquelab.errors import FormatError, PartError
from bicliquelab.formats import read_system, write_system
from bicliquelab.graphs import Biclique, BicliqueSystem, star_partition
from bicliquelab.gridgraph import grid_graph_partition, power_graph_cover


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _star_partitions():
    rng = random.Random(3110)
    out = []
    for n in (0, 1, 2, 5, 20, 63, 64, 65, 130):
        for p in (0.0, 0.3, 1.0):
            out.append(star_partition(corpus.random_graph(n, p, rng)))
    return out


def _oracle_systems():
    rng = random.Random(77)
    out = []
    for n in (0, 1, 2, 4, 5, 6):
        graph = corpus.random_graph(n, 0.6, rng)
        for t in (1, 2):
            out.append(oracles.min_biclique_partition(graph, t)[1])
    return out


def _corpus_systems():
    rng = random.Random(2024)
    out = [corpus.random_partition(k, rng) for k in (1, 2, 5, 9)]
    out += [corpus.random_t_cover(k, t, rng) for k in (2, 5, 8) for t in (1, 2, 3)]
    out += [clis.build_pair_graph(g)[1] for g in corpus.graphs_up_to(4)]
    return out


PRODUCERS = {
    "grid_partition_n1": lambda: [grid_graph_partition(1)],
    "grid_partition_n2": lambda: [grid_graph_partition(2)],
    "grid_partition_n3": lambda: [grid_graph_partition(3)],
    "power_cover_n1_t2": lambda: [power_graph_cover(1, 2)[1]],
    "power_cover_n2_t1": lambda: [power_graph_cover(2, 1)[1]],
    "star_partitions": _star_partitions,
    "oracle_systems": _oracle_systems,
    "corpus_systems": _corpus_systems,
}

# (SHA-256 of the concatenated write_system texts, SHA-256 of the repr of
# every system's (host_order, multiplicity_bound, [(left, right), ...]))
PRODUCER_DIGESTS = {
    "corpus_systems": (
        "c793d2a98158e17b88f273fca1eb0a46b76a3d35b0455427e1e6e2b1c97483e7",
        "207f503f9a7df4401698f81055242ddce9043d5bbb33edd5e6e2f72ec13ba368",
    ),
    "grid_partition_n1": (
        "8275008e90c7d983522f5c80e24f92ac25cc5c8181c04f31919ad37a97808bd0",
        "14d9f3fcc36191b69c6a61f34b674eee051247504d22ea5e0028ae8ee732f24e",
    ),
    "grid_partition_n2": (
        "11b73ad468e7b935e92f177f8581f0a04ab13037bd2a9c21934ac3d8a68a573f",
        "48b479ea51bd1116440aa3322a7269acf0e0d0b9a7d37b11ce2e180a0fc37a49",
    ),
    "grid_partition_n3": (
        "256b2165471af9cdc3c243fd9327ccbf1218b427be816e64dc37371d48f9b18a",
        "ace2f302e528df376802991dfc861f8adcf7e98a9a9eb3c9f9f8d8e6f5e36d04",
    ),
    "oracle_systems": (
        "6ff41a29a573e1c80f5f64f352cda6aacfb445e48e142474ea458a10205cb994",
        "0ee6069db5e8cab1dd2a05b28604e0ff5c281ca10c6cad69b4c0b6cf82cb8e33",
    ),
    "power_cover_n1_t2": (
        "156b16dbe79a32238578c8285a5afdfbed904f4d59acd266b2ebb622adf7b067",
        "1e89787eed8fe3c60769bf44ddf8b802a3bdc05c47c2ca776f9838bdd36004d1",
    ),
    "power_cover_n2_t1": (
        "11b73ad468e7b935e92f177f8581f0a04ab13037bd2a9c21934ac3d8a68a573f",
        "48b479ea51bd1116440aa3322a7269acf0e0d0b9a7d37b11ce2e180a0fc37a49",
    ),
    "star_partitions": (
        "afb5b958c84a6d71c2b12fbb905bff4136a5963fe875005a33bb30e5fdd42196",
        "bba610951ccb9fe09d1ead7ba7b93f2e3a501ecdb03179d187629c0b8dab1125",
    ),
}


def _digests(systems):
    text = "".join(write_system(s) for s in systems)
    parts = repr([(s.host_order, s.multiplicity_bound, [(b.left, b.right) for b in s.parts])
                  for s in systems])
    return _sha(text), _sha(parts)


MALFORMED = (
    "",
    "\n",
    "foo 1 2 3\n",
    "bicliquesystem 3 1\n",
    "bicliquesystem a 1 1\n",
    "bicliquesystem 3 1 1\npart 0 1 2\n",
    "bicliquesystem 3 1 1\nedge 0 : 1\n",
    "bicliquesystem 3 1 1\npart 0 x : 1\n",
    "bicliquesystem 3 1 1\npart 0 : 1 : 2\n",
    "bicliquesystem 3 1 1\npart : 1\n",
    "bicliquesystem 3 1 1\npart 0 :\n",
    "bicliquesystem 3 1 1\npart : \n",
    "bicliquesystem 3 1 1\npart 0 0 : 1\n",
    "bicliquesystem 3 1 1\npart 0 : 1 1\n",
    "bicliquesystem 5 1 1\npart 0 1 2 : 2 1\n",
    "bicliquesystem 5 1 1\npart 9 17 : 17 9\n",
    "bicliquesystem 5 1 1\npart 0 0 : 0\n",
    "bicliquesystem 5 1 1\npart : 0 0\n",
    "bicliquesystem 5 1 1\npart -1 : 2\n",
    "bicliquesystem 5 1 1\npart -1 : -1\n",
    "bicliquesystem 5 1 1\npart 3 -2 -2 : 4\n",
    "bicliquesystem 3 1 1\npart 0 : 5\n",
    "bicliquesystem 3 1 1\npart 0 : 5000000000\n",
    "bicliquesystem 3 1 1\npart 5000000000 6000000000 : 1\n",
    "bicliquesystem 3 1 1\npart 5000000000 : 5000000000\n",
    "bicliquesystem 3 3 1\npart 0 : 1\npart 0 : 7\npart 2 1 : 1\n",
    "bicliquesystem 3 3 1\npart 0 : 1\npart 1 1 : 2\npart 2 1 x\n",
    "bicliquesystem 3 3 1\npart 0 : 1\npart 1 : 2\npart 2 1 x\n",
    "bicliquesystem 3 2 1\npart 0 : 1\n",
    "bicliquesystem 3 2 1\npart 0 : 9\n",
    "bicliquesystem 3 0 1\npart 0 : 1\n",
    "bicliquesystem -3 0 1\n",
    "bicliquesystem -3 1 1\npart 0 : 1\n",
    "bicliquesystem 3 0 0\n",
    "bicliquesystem 3 1 0\npart 0 : 9\n",
    # accepted: unsorted sides, blank lines, signs, underscores, padding
    "bicliquesystem 5 2 2\n\npart 2 1 : 4 0 3\n   \npart 4 : 1\n",
    "bicliquesystem 3 1 1\npart +1 : 0\n",
    "bicliquesystem 11 1 1\npart 1_0 : 0\n",
    "  bicliquesystem 3 1 1  \n  part 0 : 1 2  \n",
    "bicliquesystem 4 3 7\npart 0 1 : 2 3\npart 0 2 : 1 3\npart 3 : 0\n",
    "bicliquesystem 0 0 1\n",
    # rejected: a vertex equal to the host order, a bad part before the last
    # one, unsorted sides whose values are too far apart for offset keys
    "bicliquesystem 3 1 1\npart 0 : 3\n",
    "bicliquesystem 3 2 1\npart 0 0 : 1\npart 0 : 1\n",
    "bicliquesystem 5 1 1\npart 9223372036854775807 -5 : -5\n",
    "bicliquesystem 5 1 1\n"
    "part 9223372036854775807 -9223372036854775808 : 3 -9223372036854775808\n",
)

# per text: ("FormatError", line, message) or ("system", write_system digest)
MALFORMED_OUTCOMES = {
    0: ("FormatError", 1, "line 1: empty input"),
    1: ("FormatError", 1, "line 1: bad header ''"),
    2: ("FormatError", 1, "line 1: bad header 'foo 1 2 3'"),
    3: ("FormatError", 1, "line 1: bad header 'bicliquesystem 3 1'"),
    4: ("FormatError", 1, "line 1: non-integer header fields in 'bicliquesystem a 1 1'"),
    5: ("FormatError", 2, "line 2: bad part line 'part 0 1 2'"),
    6: ("FormatError", 2, "line 2: bad part line 'edge 0 : 1'"),
    7: ("FormatError", 2, "line 2: non-integer vertex in 'part 0 x : 1'"),
    8: ("FormatError", 2, "line 2: non-integer vertex in 'part 0 : 1 : 2'"),
    9: ("FormatError", 2, "line 2: biclique sides must be nonempty"),
    10: ("FormatError", 2, "line 2: biclique sides must be nonempty"),
    11: ("FormatError", 2, "line 2: biclique sides must be nonempty"),
    12: ("FormatError", 2, "line 2: biclique sides must not repeat vertices"),
    13: ("FormatError", 2, "line 2: biclique sides must not repeat vertices"),
    14: ("FormatError", 2, "line 2: biclique sides overlap: {1, 2}"),
    15: ("FormatError", 2, "line 2: biclique sides overlap: {9, 17}"),
    16: ("FormatError", 2, "line 2: biclique sides must not repeat vertices"),
    17: ("FormatError", 2, "line 2: biclique sides must be nonempty"),
    18: ("FormatError", 2, "line 2: negative vertex index"),
    19: ("FormatError", 2, "line 2: biclique sides overlap: {-1}"),
    20: ("FormatError", 2, "line 2: biclique sides must not repeat vertices"),
    21: ("FormatError", 1, "line 1: part 1 uses vertex 5 outside host order 3"),
    22: ("FormatError", 1, "line 1: part 1 uses vertex 5000000000 outside host order 3"),
    23: ("FormatError", 1, "line 1: part 1 uses vertex 6000000000 outside host order 3"),
    24: ("FormatError", 2, "line 2: biclique sides overlap: {5000000000}"),
    25: ("FormatError", 4, "line 4: biclique sides overlap: {1}"),
    26: ("FormatError", 3, "line 3: biclique sides must not repeat vertices"),
    27: ("FormatError", 4, "line 4: bad part line 'part 2 1 x'"),
    28: ("FormatError", 3, "line 3: header promised 2 parts, found 1"),
    29: ("FormatError", 3, "line 3: header promised 2 parts, found 1"),
    30: ("FormatError", 3, "line 3: header promised 0 parts, found 1"),
    31: ("FormatError", 1, "line 1: negative host order -3"),
    32: ("FormatError", 1, "line 1: negative host order -3"),
    33: ("FormatError", 1, "line 1: multiplicity bound must be >= 1"),
    34: ("FormatError", 1, "line 1: multiplicity bound must be >= 1"),
    35: ("system", "95aa1939419c9fc93dbd21ae8be4e971418cc60a6a77dce28abc30bccb1dc7e3"),
    36: ("system", "e77d3207ebefd2256cc43be7ac7f66ab370ca00a822b0b874170cc4130170fbe"),
    37: ("system", "ba4e71e2890ff94c170580d5e628f30bab4fe092678649bb2ae7655b5431b881"),
    38: ("system", "bd2ddc40b830a2d7495da2ac2e6b6cff850cbedee0d4b46fba92638b785ac079"),
    39: ("system", "effacea0e5d03b8a599f8d4082ea5d3fb9a70d265e07099a4396eb9a2c194ace"),
    40: ("system", "55e50fe83828bdea82fcbdca3f75c1178454bc019a9bcf6898b39209b966b949"),
    41: ("FormatError", 1, "line 1: part 1 uses vertex 3 outside host order 3"),
    42: ("FormatError", 2, "line 2: biclique sides must not repeat vertices"),
    43: ("FormatError", 2, "line 2: biclique sides overlap: {-5}"),
    44: ("FormatError", 2, "line 2: biclique sides overlap: {-9223372036854775808}"),
}


def _outcome(text):
    try:
        system = read_system(text)
    except FormatError as exc:
        return ("FormatError", exc.line, str(exc))
    return ("system", _sha(write_system(system)))


class TestSystemDifferential:
    @pytest.mark.parametrize("name", sorted(PRODUCERS))
    def test_producer_digests(self, name):
        systems = PRODUCERS[name]()
        assert _digests(systems) == PRODUCER_DIGESTS[name]
        for s in systems:
            assert read_system(write_system(s)) == s
            for b in s.parts:
                assert all(type(v) is int for v in b.left + b.right)

    def test_power_cover_t2_text(self):
        _, cover = power_graph_cover(2, 2)
        assert _sha(write_system(cover)) == (
            "53975fc6ad8adec6ac19cbe7449b081e481cdf271166c9c26b933f7f6b52e222"
        )

    @pytest.mark.parametrize("index", range(len(MALFORMED)))
    def test_read_system_outcomes(self, index):
        assert _outcome(MALFORMED[index]) == MALFORMED_OUTCOMES[index]

    def test_read_system_checks_parts_once(self):
        check = graphs._first_bad_part.__code__
        calls = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code is check:
                calls.append(event)

        text = write_system(grid_graph_partition(2))
        sys.setprofile(count)
        try:
            read_system(text)
        finally:
            sys.setprofile(None)
        assert len(calls) == 1


class TestFromArrays:
    def test_takes_over_a_writable_int32_array(self):
        vertices = np.array([2, 0, 1, 3], dtype=np.int32)
        system = BicliqueSystem.from_arrays(4, [0, 2, 4], vertices)
        assert system.vertices is vertices and not vertices.flags.writeable
        assert system[0] == Biclique((0, 2), (1, 3))

    def test_copies_a_read_only_array(self):
        vertices = np.array([2, 0, 1], dtype=np.int32)
        vertices.flags.writeable = False
        system = BicliqueSystem.from_arrays(3, [0, 2, 3], vertices)
        assert vertices.tolist() == [2, 0, 1]
        assert system.vertices.tolist() == [0, 2, 1]

    @pytest.mark.parametrize(
        "offsets, vertices",  # offsets: the side bounds into vertices
        [
            ([0, 1, 2], [0, 1, 2]),  # vertices past the last part
            ([1, 2, 3], [0, 1, 2]),  # first part does not start at 0
            ([0, 2, 1, 2, 3], [0, 1, 2]),  # a side ends before it starts
            ([0, 1], [0, 1]),  # even length: a part without its right side
            ([], []),  # no final end
            ([[0, 1, 2]], [0, 1]),  # bounds not one-dimensional
            ([0, 1, 2], [0.0, 1.0]),  # not integers
            ([0, 1, 2], [[0, 1]]),  # not one-dimensional
            ([0.0, 1.9, 2.2], [0, 1]),  # bounds not integers
        ],
    )
    def test_malformed_arrays_rejected(self, offsets, vertices):
        with pytest.raises(ValueError):
            BicliqueSystem.from_arrays(5, offsets, np.array(vertices), 1)

    @pytest.mark.parametrize("vertices", [[], np.array([]), np.zeros(0, dtype=np.int32)])
    def test_empty_vertices_of_any_dtype(self, vertices):
        for bounds in ([0], np.array([0])):
            assert BicliqueSystem.from_arrays(3, bounds, vertices) == BicliqueSystem(3, (), 1)

    def test_lowest_bad_part_named_by_index(self):
        vertices = np.array([0, 1, 2, 3, 1, 1, 4, 4, 4], dtype=np.int32)
        with pytest.raises(PartError) as err:
            BicliqueSystem.from_arrays(5, [0, 1, 2, 3, 4, 6, 7, 8, 9], vertices)
        assert err.value.part == 2
        assert str(err.value) == "biclique sides must not repeat vertices"

    def test_host_order_past_int32_rejected(self):
        with pytest.raises(ValueError, match="int32"):
            BicliqueSystem(2**31, [], 1)
        with pytest.raises(FormatError) as err:
            read_system("bicliquesystem 3000000000 0 1\n")
        assert err.value.line == 1

    def test_vertex_past_int64_named_at_its_line(self):
        with pytest.raises(FormatError) as err:
            read_system("bicliquesystem 3 2 1\npart 0 : 1\npart 0 : 9223372036854775808\n")
        assert err.value.line == 3
        assert "out of int64 range" in str(err.value)


class TestSystemSequence:
    def test_parts_by_index(self):
        system = BicliqueSystem(4, [Biclique((0,), (1,)), Biclique((2,), (3, 1))], 2)
        assert system.parts is system
        assert len(system) == 2
        assert list(system) == [Biclique((0,), (1,)), Biclique((2,), (1, 3))]
        assert system[-1] == system[1] == Biclique((2,), (1, 3))
        assert system[-2] == system[0]

    @pytest.mark.parametrize("index", [2, -3, 0.0, slice(0, 1)])
    def test_only_int_indices_in_range(self, index):
        system = BicliqueSystem(4, [Biclique((0,), (1,)), Biclique((2,), (3, 1))], 2)
        with pytest.raises(IndexError if isinstance(index, int) else TypeError):
            system[index]


_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@st.composite
def _parts(draw, n):
    """Up to six bicliques over range(n): disjoint nonempty sides, in drawn order."""
    if n < 2:
        return []
    parts = []
    for _ in range(draw(st.integers(0, 6))):
        vs = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
        cut = draw(st.integers(1, len(vs) - 1))
        parts.append((vs[:cut], vs[cut:]))
    return parts


@st.composite
def _systems(draw):
    n = draw(st.integers(0, 40))
    return BicliqueSystem(
        n, [Biclique(left, right) for left, right in draw(_parts(n))], draw(st.integers(1, 3))
    )


_ODD_TOKENS = ["x", ":", "+1", "1_0", "-0", "٣", "1.5", "0x1", "part"] + [
    str(v) for v in (2**31 - 1, 2**31, 5 * 10**9, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1)
]


@st.composite
def _token(draw):
    """A small vertex number mostly; else a token that int() refuses or reads
    differently, or a number past the int32 or int64 range."""
    if draw(st.integers(0, 9)):
        return str(draw(st.integers(-1, 8)))
    return draw(st.sampled_from(_ODD_TOKENS))


@st.composite
def _texts(draw):
    """System texts whose header fields and part sides are mostly small
    numbers and sometimes odd tokens, with a dropped colon, an unknown
    record, a wrong field or part count now and then; sometimes any text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text())
    count = draw(st.integers(0, 5))
    head = [
        draw(st.one_of(st.integers(0, 9).map(str), _token())),
        draw(st.one_of(st.just(str(count)), _token())),
        draw(st.one_of(st.sampled_from("123"), _token())),
    ]
    if draw(st.integers(0, 9)) == 0:
        head = head[: draw(st.sampled_from([2, 4]))]
    lines = ["bicliquesystem " + " ".join(head)]
    for _ in range(count):
        left, right = draw(st.lists(_token(), max_size=4)), draw(st.lists(_token(), max_size=4))
        sep = draw(st.sampled_from([":"] * 9 + [""]))
        record = draw(st.sampled_from(["part"] * 9 + ["edge"]))
        lines.append(" ".join([record, *left, sep, *right]))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n  \n"]))


class TestSystemProperties:
    @_PROPERTY
    @given(_systems())
    def test_text_round_trip(self, system):
        assert read_system(write_system(system)) == system

    @_PROPERTY
    @given(_systems(), st.randoms(use_true_random=False))
    def test_arrays_sort_sides(self, system, rng):
        """from_arrays on the same parts with shuffled sides builds the same system."""
        sides = [list(side) for b in system.parts for side in (b.left, b.right)]
        for side in sides:
            rng.shuffle(side)
        bounds = np.cumsum([0, *map(len, sides)])
        vertices = np.array([v for side in sides for v in side], dtype=np.int32)
        again = BicliqueSystem.from_arrays(
            system.host_order, bounds, vertices, system.multiplicity_bound
        )
        assert again == system

    @_PROPERTY
    @given(_texts())
    def test_any_text_reads_or_fails_with_format_error(self, text):
        try:
            system = read_system(text)
        except FormatError:
            return
        assert read_system(write_system(system)) == system
