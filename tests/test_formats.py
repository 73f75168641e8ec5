"""Round-trips and parse errors for every text format."""

import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicliquelab import formats
from bicliquelab.corpus import random_graph
from bicliquelab.errors import FormatError, ResourceLimitError
from bicliquelab.formats import (
    read_graph,
    read_system,
    write_certificate,
    write_graph,
    write_system,
)
from bicliquelab.graphs import Biclique, BicliqueSystem, Certificate, Graph
from bicliquelab.gridgraph import grid_graph, grid_graph_partition


class TestGraphFormat:
    def test_k3_round_trip(self):
        g = Graph.complete(3)
        assert read_graph(write_graph(g)) == g

    def test_random_round_trips(self):
        rng = random.Random(8)
        for _ in range(10):
            g = random_graph(rng.randrange(1, 12), rng.random(), rng)
            assert read_graph(write_graph(g)) == g

    def test_comments_tolerated(self):
        text = "c a comment\np edge 2 1\nc another\ne 1 2\n"
        assert read_graph(text) == Graph.complete(2)

    def test_truncated_file_names_line(self):
        g = Graph.complete(3)
        text = "".join(write_graph(g).splitlines(keepends=True)[:-1])
        with pytest.raises(FormatError) as err:
            read_graph(text)
        assert err.value.line == 4
        assert "promised" in str(err.value)

    def test_bad_edge_line(self):
        with pytest.raises(FormatError) as err:
            read_graph("p edge 2 1\ne 1 5\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("line, message", [
        ("e 1", "bad edge line 'e 1'"), ("e 1 x", "non-integer endpoints in 'e 1 x'"),
    ])
    def test_malformed_edge_line_named(self, line, message):
        with pytest.raises(FormatError) as err:
            read_graph(f"p edge 3 1\n{line}\n")
        assert (err.value.line, str(err.value)) == (2, f"line 2: {message}")

    def test_missing_header(self):
        with pytest.raises(FormatError):
            read_graph("e 1 2\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(FormatError) as err:
            read_graph("p edge 3 2\ne 1 2\ne 2 1\n")
        assert err.value.line == 3

    def test_writes_deterministic(self):
        g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        assert write_graph(g) == write_graph(g)

    def test_vertex_limit_checked_before_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the vertex limit was checked")

        monkeypatch.setattr(np, "zeros", refuse)
        # the bad edge line after the header is never parsed
        with pytest.raises(ResourceLimitError) as err:
            read_graph("p edge 11 1\ne 1 x\n", vertex_limit=10)
        assert (err.value.limit_name, err.value.limit, err.value.requested) == (
            "vertex_limit",
            10,
            11,
        )
        with pytest.raises(ResourceLimitError):
            read_graph("p edge 1000000000 0\n")

    def test_vertex_limit_admits_its_own_order(self):
        assert read_graph("p edge 10 1\ne 1 10\n", vertex_limit=10) == Graph.from_edges(
            10, [(0, 9)]
        )

    def test_negative_header_rejected(self):
        with pytest.raises(FormatError):
            read_graph("p edge -1 0\n")


_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@st.composite
def _graphs(draw):
    n = draw(st.integers(0, 70))
    vertex = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=150))
    return Graph.from_edges(n, sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]}))


_NUMBER = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["10001", "1" + "0" * 5000, "1.5", "0x1", "\u0661"]),
)
_LINE = st.one_of(
    st.tuples(st.just("p edge"), _NUMBER, _NUMBER).map(" ".join),
    st.tuples(st.just("e"), _NUMBER, _NUMBER).map(" ".join),
    st.lists(st.one_of(_NUMBER, st.sampled_from(["p", "edge", "e", "c", ""])), max_size=5).map(
        " ".join
    ),
    st.text(max_size=20),
)


@st.composite
def _dimacs_like(draw):
    """A header and edge lines that often agree, with a junk line now and then."""
    n = draw(st.integers(0, 6))
    vertex = st.integers(1, max(n, 1))
    lines = [f"e {u} {v}" for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=8))]
    count = draw(st.one_of(st.just(len(lines)), st.integers(0, 9)))
    lines.insert(draw(st.integers(0, len(lines))), f"p edge {n} {count}")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.one_of(st.just("c note"), _LINE)))
    return "\n".join(lines)


class TestGraphFormatProperties:
    @_PROPERTY
    @given(_graphs())
    def test_round_trip(self, graph):
        assert read_graph(write_graph(graph)) == graph

    @_PROPERTY
    @given(st.one_of(st.text(), st.lists(_LINE, max_size=8).map("\n".join), _dimacs_like()))
    def test_any_text_reads_or_is_refused(self, text):
        try:
            graph = read_graph(text)
        except (FormatError, ResourceLimitError):
            return
        assert isinstance(graph, Graph)
        assert read_graph(write_graph(graph)) == graph


def _graph_route(patch):
    """Record what the graph array route returns on each read: the per-line
    parser goes on after it returns None, or when the header is not write_graph's."""
    results = []
    read_own_graph = formats._read_own_graph

    def spy(*args):
        results.append(read_own_graph(*args))
        return results[-1]

    patch.setattr(formats, "_read_own_graph", spy)
    return results


def _graph_outcome(text):
    try:
        graph = read_graph(text)
    except FormatError as exc:
        return ("FormatError", exc.line, str(exc))
    return ("graph", hashlib.sha256(write_graph(graph).encode("ascii")).hexdigest())


@st.composite
def _own_graphs(draw):
    """A graph of order 0 to 300, edgeless, complete or random, and the block
    size, in characters, for the reader's grammar check and its arrays."""
    n = draw(st.integers(0, 300) | st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 127, 129, 300]))
    kind = draw(st.sampled_from(["edgeless", "complete", "random"]))
    if kind == "edgeless":
        graph = Graph.empty(n)
    elif kind == "complete":
        graph = Graph.complete(n)
    else:
        graph = random_graph(n, draw(st.floats(0, 1)), random.Random(draw(st.integers(0, 99))))
    return graph, draw(st.sampled_from([1, 9, 40, None]))


# near write_graph's own text: each takes the per-line route, with the outcome
# the per-line parser alone gave (recorded before the array route)
_GRAPH_BASE = "p edge 12 3\ne 1 3\ne 2 11\ne 4 12\n"
_GRAPH_SHA = "56b036bcc8a8b7fe05e663bc61518b3143bb2e53fcc614cd6442ecfb72686e70"
NEAR_OWN_GRAPH_TEXT = {
    "crlf": (_GRAPH_BASE.replace("\n", "\r\n"), ("graph", _GRAPH_SHA)),
    "comment-line": (_GRAPH_BASE.replace("\ne 2", "\nc note\ne 2"), ("graph", _GRAPH_SHA)),
    "blank-line": (_GRAPH_BASE.replace("\ne 2", "\n\ne 2"), ("graph", _GRAPH_SHA)),
    "tab": (_GRAPH_BASE.replace("e 2 11", "e 2\t11"), ("graph", _GRAPH_SHA)),
    "double-space": (_GRAPH_BASE.replace("e 2 11", "e 2  11"), ("graph", _GRAPH_SHA)),
    "leading-zero": (_GRAPH_BASE.replace("e 2 11", "e 02 11"), ("graph", _GRAPH_SHA)),
    "plus-sign": (_GRAPH_BASE.replace("e 2 11", "e +2 11"), ("graph", _GRAPH_SHA)),
    "ten-digits": (
        _GRAPH_BASE.replace("e 2 11", "e 2 1000000011"),
        ("FormatError", 3, "line 3: endpoints out of range in 'e 2 1000000011'"),
    ),
    "unsorted": (
        _GRAPH_BASE.replace("e 1 3\ne 2 11\n", "e 2 11\ne 1 3\n"), ("graph", _GRAPH_SHA)
    ),
    "reversed-edge": (_GRAPH_BASE.replace("e 2 11", "e 11 2"), ("graph", _GRAPH_SHA)),
    "duplicate": (
        _GRAPH_BASE.replace(" 3\n", " 4\n", 1).replace("e 2 11\n", "e 2 11\ne 2 11\n"),
        ("FormatError", 4, "line 4: duplicate edge in 'e 2 11'"),
    ),
    "loop": (
        _GRAPH_BASE.replace("e 2 11", "e 2 2"),
        ("FormatError", 3, "line 3: endpoints out of range in 'e 2 2'"),
    ),
    "vertex-0": (
        _GRAPH_BASE.replace("e 2 11", "e 0 11"),
        ("FormatError", 3, "line 3: endpoints out of range in 'e 0 11'"),
    ),
    "vertex-past-order": (
        _GRAPH_BASE.replace("e 2 11", "e 2 13"),
        ("FormatError", 3, "line 3: endpoints out of range in 'e 2 13'"),
    ),
    "one-edge-more": (
        _GRAPH_BASE.replace(" 3\n", " 4\n", 1),
        ("FormatError", 5, "line 5: header promised 4 edges, found 3"),
    ),
    "one-edge-fewer": (
        _GRAPH_BASE.replace(" 3\n", " 2\n", 1),
        ("FormatError", 5, "line 5: header promised 2 edges, found 3"),
    ),
    "no-final-newline": (_GRAPH_BASE[:-1], ("graph", _GRAPH_SHA)),
}


class TestOwnGraphTextRoute:
    """``read_graph`` reads write_graph's own text as arrays, and hands any
    other text to the per-line parser; both routes give one result."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(_own_graphs())
    def test_both_routes_read_the_same_graph(self, case):
        graph, block = case
        text = write_graph(graph)
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(formats, "_BLOCK", block)
                patch.setattr(formats, "_TEXT_BLOCK", block)
            route = _graph_route(patch)
            assert read_graph(text) == graph
            assert len(route) == 1 and route[0] is not None
            patch.setattr(formats, "_read_own_graph", lambda *args: None)
            assert read_graph(text) == graph

    def test_the_base_text_takes_the_array_route(self, monkeypatch):
        route = _graph_route(monkeypatch)
        assert _graph_outcome(_GRAPH_BASE) == ("graph", _GRAPH_SHA)
        assert len(route) == 1 and route[0] is not None

    @pytest.mark.parametrize("block", [1, None])
    @pytest.mark.parametrize("name", sorted(NEAR_OWN_GRAPH_TEXT))
    def test_near_own_text_takes_the_per_line_route(self, name, block, monkeypatch):
        text, outcome = NEAR_OWN_GRAPH_TEXT[name]
        if block is not None:  # each line a block: order and duplicates across blocks
            monkeypatch.setattr(formats, "_BLOCK", block)
            monkeypatch.setattr(formats, "_TEXT_BLOCK", block)
        route = _graph_route(monkeypatch)
        assert _graph_outcome(text) == outcome
        assert route in ([], [None])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_grid_graphs_never_reach_the_per_line_parser(self, n, monkeypatch):
        graph = grid_graph(n)
        text = write_graph(graph)
        route = _graph_route(monkeypatch)
        assert read_graph(text) == graph
        assert len(route) == 1 and route[0] is not None

    def test_canonical_header_past_the_limit_allocates_nothing(self, monkeypatch):
        text = write_graph(Graph.complete(11))

        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the vertex limit was checked")

        for name in ("zeros", "empty", "fromstring", "frombuffer"):
            monkeypatch.setattr(np, name, refuse)
        route = _graph_route(monkeypatch)
        with pytest.raises(ResourceLimitError) as err:
            read_graph(text, vertex_limit=10)
        assert (err.value.limit, err.value.requested) == (10, 11)
        assert route == []


class TestSystemFormat:
    def test_round_trip_simple(self):
        sys_ = BicliqueSystem(4, (Biclique((0, 1), (2, 3)), Biclique((0, 2), (1, 3))), 2)
        assert read_system(write_system(sys_)) == sys_

    def test_round_trip_grid_partition(self):
        sys_ = grid_graph_partition(2)
        again = read_system(write_system(sys_))
        assert again == sys_
        from bicliquelab.graphs import verify_biclique_system

        assert verify_biclique_system(grid_graph(2), again).verdict

    def test_bad_part_line(self):
        with pytest.raises(FormatError) as err:
            read_system("bicliquesystem 3 1 1\npart 0 1 2\n")
        assert err.value.line == 2

    def test_count_mismatch(self):
        with pytest.raises(FormatError):
            read_system("bicliquesystem 3 2 1\npart 0 : 1\n")

    def test_negative_host_order_rejected(self):
        with pytest.raises(FormatError) as err:
            read_system("bicliquesystem -3 0 1\n")
        assert err.value.line == 1


# every character at which str.splitlines breaks a line
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


class TestLineBlocks:
    """``formats._lines`` splits a text a block of ``_BLOCK`` characters at a
    time, into exactly the lines of ``str.splitlines``, so the readers name
    the same line wherever the block edges fall."""

    @_PROPERTY
    @given(
        st.lists(st.sampled_from(["a", "bc", " ", "\r\n", *LINE_BREAKS]), max_size=30).map(
            "".join
        ),
        st.integers(1, 3),
    )
    def test_blocks_split_as_splitlines(self, text, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(formats, "_BLOCK", block)
            assert list(formats._lines(text)) == text.splitlines()

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_crlf_at_every_block_edge(self, block, monkeypatch):
        monkeypatch.setattr(formats, "_BLOCK", block)
        for k in range(7):
            text = "x" * k + "\r\n" + "y" * (k % 3) + "\r\n\r\nz\r"
            assert list(formats._lines(text)) == text.splitlines()

    # a block ends with the line that holds its _BLOCK-th character; over
    # these sizes and places the bad line is the last line of a block, the
    # line before it, or the first line of the next block (part lines are
    # 11 characters with their newline, edge lines 6)
    @pytest.mark.parametrize("block", [1, 11, 16, 22, 27, 33])
    @pytest.mark.parametrize("bad", range(2, 9))
    def test_system_error_lines_at_block_edges(self, block, bad, monkeypatch):
        monkeypatch.setattr(formats, "_BLOCK", block)
        for wrong, message in (("part 0 : x", "non-integer vertex"), ("part 1 : 1", "overlap")):
            lines = ["bicliquesystem 9 8 1"] + [f"part 0 : {v}" for v in range(1, 9)]
            lines[bad - 1] = wrong
            with pytest.raises(FormatError, match=message) as err:
                read_system("\n".join(lines) + "\n")
            assert err.value.line == bad

    @pytest.mark.parametrize("block", [1, 6, 9, 12, 15])
    @pytest.mark.parametrize("bad", range(2, 10))
    def test_graph_error_lines_at_block_edges(self, block, bad, monkeypatch):
        monkeypatch.setattr(formats, "_BLOCK", block)
        lines = ["p edge 9 8"] + [f"e 1 {v}" for v in range(2, 10)]
        lines[bad - 1] = "e 1 1"
        with pytest.raises(FormatError, match="out of range") as err:
            read_graph("\n".join(lines) + "\n")
        assert err.value.line == bad

    @pytest.mark.parametrize("block", [1, 2, 3, 50])
    def test_blocks_write_and_read_the_same(self, block, monkeypatch):
        system, graph = grid_graph_partition(2), grid_graph(2)
        text, graph_text = write_system(system), write_graph(graph)
        monkeypatch.setattr(formats, "_BLOCK", block)
        assert write_system(system) == text
        assert read_system(text) == system
        assert write_graph(graph) == graph_text
        assert read_graph(graph_text) == graph


class TestCertificateFormat:
    def test_round_trip(self):
        cert = Certificate(
            claim="demo",
            parameters={"k": 3, "rule": "odd-positive"},
            verdict=False,
            witness={"pair": [1, 2]},
        )
        payload = json.loads(write_certificate(cert))
        assert payload == {
            "claim": "demo",
            "parameters": {"k": 3, "rule": "odd-positive"},
            "verdict": "fail",
            "witness": {"pair": [1, 2]},
        }

    def test_sorted_keys_stable(self):
        cert = Certificate(claim="x", parameters={"b": 1, "a": 2}, verdict=True)
        assert write_certificate(cert) == write_certificate(cert)
        assert write_certificate(cert).index('"a"') < write_certificate(cert).index('"b"')
