"""Round-trips and parse errors for every text format."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
