"""Command-line front door: construction, verification, oracle queries, and
end-to-end demo reports.

Every command is deterministic given its flags: identical invocations
produce byte-identical output (no timestamps, exact rationals instead of
floats, certificates serialized with sorted keys).

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or parse
error, 3 a resource guard refused to run or the machine refused an
allocation (``MemoryError``).
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from math import gcd
from pathlib import Path

import numpy as np

from . import algebra, clis, corpus, formats, graphs, gridgraph, oracles
from .cube import (
    admissible_set,
    decompose_admissible_set,
    edge_triple_subcubes,
    three_cube_nonconstant,
    verify_subcube_partition,
)
from .errors import FormatError, ResourceLimitError
from .graphs import Certificate, blowup, star_partition, verify_biclique_system

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


@dataclass
class RunConfig:
    """Settings shared by the commands: only ``vertex_limit``, the one guard a user sets."""

    vertex_limit: int = graphs.DEFAULT_VERTEX_LIMIT

    def __post_init__(self):
        if self.vertex_limit < 1:
            raise ValueError("vertex_limit must be positive")


class _Report:
    """Accumulates deterministic report lines plus an overall verdict."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.ok = True

    def line(self, text: str) -> None:
        self.lines.append(text)

    def check(self, label: str, passed: bool) -> None:
        self.ok &= passed
        self.lines.append(f"check {label} {'pass' if passed else 'FAIL'}")

    def certificate(self, label: str, cert: Certificate) -> None:
        self.check(label, cert.verdict)
        self.lines.append("certificate " + formats.write_certificate(cert).rstrip("\n"))

    def text(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return "\n".join(self.lines + [f"status {status}"]) + "\n"


def cmd_demo(n: int, config: RunConfig) -> tuple[str, bool]:
    """End-to-end construction and verification at grid size n.

    Reports the vertex and edge counts, the exact independence number with
    its witness, the derived chromatic lower bound, the explicit partition
    size against its 30*(n^5-1) bound with a full verification certificate,
    and the ratio of the chromatic lower bound to the partition size.
    """
    rep = _Report()
    rep.line(f"demo n {n}")
    graph = gridgraph.grid_graph(n, vertex_limit=config.vertex_limit)
    total = n ** 7
    rep.line(f"vertex-count {total}")
    rep.line(f"edge-count {graph.edge_count()}")

    edge_sum = 0
    seen = np.zeros_like(graph.rows)  # the pieces' union
    for piece in decompose_admissible_set():
        pg = gridgraph.grid_graph_piece(n, piece, vertex_limit=config.vertex_limit)
        edge_sum += pg.edge_count()
        seen |= pg.rows
        del pg  # n^14/8 bytes, freed before the next piece is built
    # the union has as many edges as the pieces sum to exactly when no two share one
    disjoint = int(np.bitwise_count(seen).sum()) == 2 * edge_sum
    seen ^= graph.rows  # in place: all zero exactly when the pieces' union is the graph
    union_ok = not seen.any()
    del seen  # n^14/8 bytes, and no later stage reads it
    rep.line(f"piece-edge-sum {edge_sum}")
    rep.check("piece-edges-match", edge_sum == graph.edge_count() and union_ok)
    rep.check("piece-edges-disjoint", disjoint)

    alpha, witness = oracles.independence_number(graph)
    rep.line(f"independence-number {alpha}")
    points = (np.transpose(np.unravel_index(witness, (n,) * 7)) + 1).tolist()
    rep.line(
        "independence-witness "
        + " ".join("(" + ",".join(str(c) for c in p) + ")" for p in points)
    )
    rep.check("independence-at-most-3n", alpha <= 3 * n)
    rep.check("projection-dichotomy", gridgraph.projection_dichotomy(points))
    chi_lb = -(-total // alpha) if alpha else 0
    rep.line(f"chromatic-lower-bound {chi_lb}")

    partition = gridgraph.grid_graph_partition(n, vertex_limit=config.vertex_limit)
    bound = 30 * (n ** 5 - 1)
    rep.line(f"partition-size {len(partition)}")
    rep.line(f"partition-size-bound {bound}")
    rep.check("partition-size-within-bound", len(partition) <= bound)
    rep.certificate("partition-exact-once", verify_biclique_system(graph, partition))
    if len(partition):
        g = gcd(chi_lb, len(partition))
        rep.line(f"chromatic-lb-to-partition-ratio {chi_lb // g}/{len(partition) // g}")
    else:
        rep.line("chromatic-lb-to-partition-ratio 0/1")
    return rep.text(), rep.ok


def _suite_cube(rep: _Report, config: RunConfig) -> None:
    target = admissible_set()
    rep.line(f"admissible-set-size {len(target)}")
    rep.check("admissible-set-size-120", len(target) == 120)
    parts = decompose_admissible_set()
    rep.check("part-count-30", len(parts) == 30)
    rep.check("parts-all-2-dimensional", all(p.free_dim == 2 for p in parts))
    rep.certificate("subcube-partition", verify_subcube_partition(target, parts))
    rep.certificate(
        "edge-triple-partition",
        verify_subcube_partition(three_cube_nonconstant(), edge_triple_subcubes()),
    )


def _suite_partition(rep: _Report, config: RunConfig) -> None:
    for n in (1, 2, 3):
        graph = gridgraph.grid_graph(n, vertex_limit=config.vertex_limit)
        partition = gridgraph.grid_graph_partition(n, vertex_limit=config.vertex_limit)
        rep.line(f"n {n} partition-size {len(partition)}")
        rep.check(f"n{n}-size-bound", len(partition) <= 30 * (n ** 5 - 1))
        rep.certificate(f"n{n}-exact-once", verify_biclique_system(graph, partition))
    # blowup correspondence at n=2: every piece equals the blowup of its reduction
    n = 2
    ok = True
    for piece in decompose_admissible_set():
        pg = gridgraph.grid_graph_piece(n, piece, vertex_limit=config.vertex_limit)
        reduced = gridgraph.reduced_graph(n, piece)
        ok &= pg.induced(reduced.copies.ravel()) == blowup(reduced.graph, n * n)
    rep.check("n2-pieces-are-blowups", ok)


def _suite_peck(rep: _Report, config: RunConfig) -> None:
    rep.check("bound-t1-is-order", all(algebra.peck_bound(d, 1) == d + 1 for d in range(0, 101)))
    rng = random.Random(20240229)
    cases = 0
    ok_identity = ok_flipped = ok_rank = ok_bound = True
    while cases < 12:
        k = rng.randrange(2, 9)
        t = rng.randrange(1, 4)
        cover = corpus.random_t_cover(k, t, rng)
        cases += 1
        good = algebra.verify_cover_identity(cover)
        bad = algebra.verify_cover_identity(cover, sign_rule="even-positive")
        rank = algebra.rank_certificate(cover)
        ok_identity &= good.verdict
        ok_flipped &= not bad.verdict
        ok_rank &= rank.verdict
        ok_bound &= k <= algebra.peck_bound(len(cover), t)
    rep.line(f"random-covers {cases}")
    rep.check("identity-standard-sign", ok_identity)
    rep.check("identity-flipped-sign-fails", ok_flipped)
    rep.check("rank-certificates", ok_rank)
    rep.check("counting-bound", ok_bound)


def _suite_clis(rep: _Report, config: RunConfig) -> None:
    forward_ok = True
    for graph in corpus.graphs_up_to(5):
        partition = star_partition(graph)
        cert = clis.chi_lower_bound_check(graph, partition)
        forward_ok &= cert.verdict
    rep.check("forward-reduction-up-to-5", forward_ok)

    rng = random.Random(1105)
    proto_ok = True
    for _ in range(6):
        gamma = corpus.random_graph(8, 0.5, rng)
        inst = clis.full_instance(gamma)
        for ci, c in enumerate(inst.cliques):
            for ii, s in enumerate(inst.independents):
                tr = clis.yannakakis_protocol(inst, ci, ii)
                proto_ok &= tr.answer == len(set(c) & set(s))
    rep.check("protocol-answers", proto_ok)

    reverse_ok = True
    chi_ok = True
    for gamma in corpus.graphs_up_to(4):
        pair_graph, system = clis.build_pair_graph(gamma)
        cert = verify_biclique_system(pair_graph, system)
        reverse_ok &= cert.verdict and len(system) <= gamma.order
        if gamma.order <= 3:
            inst = clis.full_instance(gamma)
            c0, _ = oracles.min_rectangle_cover(inst.matrix, 0)
            chi, _ = oracles.chromatic_number(pair_graph)
            chi_ok &= c0 <= chi
    rep.check("reverse-two-cover-up-to-4", reverse_ok)
    rep.check("zero-cover-at-most-chi-up-to-3", chi_ok)


SUITES = {
    "cube": _suite_cube, "partition": _suite_partition, "peck": _suite_peck, "clis": _suite_clis
}


def cmd_suite(name: str, config: RunConfig) -> tuple[str, bool]:
    """Run one named check group and report per-check certificates."""
    rep = _Report()
    rep.line(f"suite {name}")
    SUITES[name](rep, config)
    return rep.text(), rep.ok


def _read_path(path: str) -> str:
    return Path(path).read_text(encoding="ascii")


def cmd_verify(graph_path: str, partition_path: str, config: RunConfig) -> tuple[str, bool]:
    graph = formats.read_graph(_read_path(graph_path), vertex_limit=config.vertex_limit)
    system = formats.read_system(_read_path(partition_path))
    cert = verify_biclique_system(graph, system)
    return formats.write_certificate(cert), cert.verdict


def cmd_oracle(what: str, graph_path: str, t: int, config: RunConfig) -> tuple[str, bool]:
    graph = formats.read_graph(_read_path(graph_path), vertex_limit=config.vertex_limit)
    if what == "alpha":
        value, witness = oracles.independence_number(graph)
        return f"alpha {value}\nwitness {' '.join(str(v) for v in witness)}\n", True
    if what == "chi":
        value, coloring = oracles.chromatic_number(graph)
        return f"chi {value}\ncoloring {' '.join(str(c) for c in coloring)}\n", True
    value, system = oracles.min_biclique_partition(graph, t)
    return f"bp_{t} {value}\n" + formats.write_system(system), True


def cmd_build(what: str, n: int, t: int, config: RunConfig) -> tuple[str, bool]:
    if what == "graph":
        return formats.write_graph(gridgraph.grid_graph(n, vertex_limit=config.vertex_limit)), True
    if what == "partition":
        return (
            formats.write_system(
                gridgraph.grid_graph_partition(n, vertex_limit=config.vertex_limit)
            ),
            True,
        )
    _, cover = gridgraph.power_graph_cover(n, t)
    return formats.write_system(cover), True


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicliquelab",
        description="Exact verification workbench for biclique partitions, "
        "t-covers, and clique-vs-independent-set reductions.",
    )
    parser.add_argument("--vertex-limit", type=int, default=RunConfig.vertex_limit)
    parser.add_argument("--out", help="write the report here as well as stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_demo = sub.add_parser("demo", help="end-to-end construction and verification")
    p_demo.add_argument("--n", type=int, required=True)

    p_suite = sub.add_parser("suite", help="run one named check group")
    p_suite.add_argument("name", choices=SUITES)

    p_verify = sub.add_parser("verify", help="verify a biclique system against a graph")
    p_verify.add_argument("--graph", required=True)
    p_verify.add_argument("--partition", required=True)

    p_oracle = sub.add_parser("oracle", help="exact oracle queries on a graph file")
    p_oracle.add_argument("--graph", required=True)
    p_oracle.add_argument("--what", choices=("alpha", "chi", "bp"), required=True)
    p_oracle.add_argument("--t", type=int, default=1)

    p_build = sub.add_parser("build", help="construct and serialize the explicit objects")
    p_build.add_argument("--what", choices=("graph", "partition", "cover"), required=True)
    p_build.add_argument("--n", type=int, required=True)
    p_build.add_argument("--t", type=int, default=1)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig(args.vertex_limit)
        if args.command == "demo":
            text, ok = cmd_demo(args.n, config)
        elif args.command == "suite":
            text, ok = cmd_suite(args.name, config)
        elif args.command == "verify":
            text, ok = cmd_verify(args.graph, args.partition, config)
        elif args.command == "oracle":
            text, ok = cmd_oracle(args.what, args.graph, args.t, config)
        else:
            text, ok = cmd_build(args.what, args.n, args.t, config)
        sys.stdout.write(text)
        if args.out:
            Path(args.out).write_text(text, encoding="ascii")
    except (ResourceLimitError, MemoryError) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_PASS if ok else EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
