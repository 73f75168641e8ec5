"""The benchmark's three workloads.

Each workload has the same four steps:

* ``prepare(seed, golden)`` builds the inputs from the seed (set-up);
* ``run(inputs)`` is the timed body; it reaches the package only through
  public functions, looked up on their modules at call time so that the span
  recorder sees every call;
* ``check(inputs, outputs, golden)`` compares every output with known values
  and with SHA-256 digests recorded once by ``record_golden.py``;
* ``negative(seed, golden)`` applies one recorded mutation to the workload's
  main object and expects a failing certificate with the recorded witness.

Checks are ``(name, passed)`` pairs.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations

from bicliquelab import algebra, cli, formats, graphs, gridgraph, oracles
from bicliquelab.graphs import Biclique, BicliqueSystem, Graph


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def mutate(system: BicliqueSystem, mutation: dict) -> BicliqueSystem:
    """Drop one part, or put one more vertex on the left side of one part."""
    parts = list(system.parts)
    i = mutation["part"]
    if mutation["kind"] == "drop":
        del parts[i]
    else:
        parts[i] = Biclique(parts[i].left + (mutation["vertex"],), parts[i].right)
    return BicliqueSystem(system.host_order, tuple(parts), system.multiplicity_bound)


def negative_checks(graph: Graph, system: BicliqueSystem, entry: dict) -> list:
    cert = graphs.verify_biclique_system(graph, mutate(system, entry["mutation"]))
    witness = json.loads(json.dumps(cert.witness))
    return [
        ("negative.verdict_fail", not cert.verdict),
        ("negative.witness", witness == entry["witness"]),
    ]


def pick_negative(seed: int, golden: dict) -> dict:
    table = golden["negatives"]
    return table[random.Random(seed).randrange(len(table))]


class DemoN3:
    """``cmd_demo(3)``: the paper's headline report at the largest default size."""

    n = 3

    def prepare(self, seed, golden):
        return cli.RunConfig()

    def run(self, config):
        return cli.cmd_demo(self.n, config)

    def check(self, config, outputs, golden):
        text, ok = outputs
        lines = text.splitlines()
        return [
            ("demo.ok", ok),
            ("demo.status_pass", lines[-1] == "status pass"),
            ("demo.alpha_9", "independence-number 9" in lines),
            ("demo.partition_size", f"partition-size {golden['partition_size']}" in lines),
            ("demo.report_sha256", sha256(text) == golden["report_sha256"]),
        ]

    def main_object(self):
        return gridgraph.grid_graph(self.n), gridgraph.grid_graph_partition(self.n)

    def negative(self, seed, golden):
        return negative_checks(*self.main_object(), pick_negative(seed, golden))


class CoverT2:
    """Build the t=2 cover of the 16,384-vertex OR square, round-trip it
    through the text format, and verify the read-back copy."""

    n, t = 2, 2
    parts = 960
    pairs = 251_658_240

    def prepare(self, seed, golden):
        return self.n, self.t

    def run(self, inputs):
        n, t = inputs
        graph, cover = gridgraph.power_graph_cover(n, t)
        text = formats.write_system(cover)
        back = formats.read_system(text)
        cert = graphs.verify_biclique_system(graph, back)
        return graph, cover, text, back, cert, formats.write_certificate(cert)

    def check(self, inputs, outputs, golden):
        graph, cover, text, back, cert, cert_text = outputs
        witness = cert.witness or {}
        return [
            ("cover.order", graph.order == 16_384),
            ("cover.verdict", cert.verdict),
            ("cover.max_multiplicity_2", witness.get("max_multiplicity") == 2),
            ("cover.parts", len(cover.parts) == self.parts),
            ("cover.pair_incidences", sum(len(b.left) * len(b.right) for b in cover.parts)
             == self.pairs),
            ("cover.round_trip", back == cover),
            ("cover.system_sha256", sha256(text) == golden["system_sha256"]),
            ("cover.certificate_sha256", sha256(cert_text) == golden["certificate_sha256"]),
        ]

    def main_object(self):
        return gridgraph.power_graph_cover(self.n, self.t)

    def negative(self, seed, golden):
        return negative_checks(*self.main_object(), pick_negative(seed, golden))


# exact_small draws its instances from fixed pools whose outputs are all
# recorded, so every seed is checked against recorded digests.  Cover cost is
# fixed by the shape (k, t, extra parts, their side sizes).  Oracle searches
# are heavy-tailed, so their pools are split into strata of similar recorded
# cost and a seed takes one instance per stratum: every seed then gets the
# same cost profile.
COVER_SHAPES = ((10, 3, 2, 3, 3), (11, 2, 2, 3, 3), (12, 2, 2, 3, 3))
COVER_POOL = 16
GRAPH_GROUPS = {
    # group: (vertices, edges, pool size, oracle parameter)
    "chi": (50, 300, 32, None),
    "alpha": (256, 19_584, 8, None),
    "bp": (8, 13, 24, (1, 2)),
}
STRATUM = 4
SUITES = ("cube", "peck", "clis")


def cover_key(shape) -> str:
    return "k{}-t{}-x{}-{}by{}".format(*shape)


def pool_cover(shape, index: int) -> BicliqueSystem:
    """A t-cover of K_k: a star partition in random vertex order plus
    ``extras`` random left-by-right bicliques that keep every multiplicity
    at most t."""
    k, t, extras, left_size, right_size = shape
    rng = random.Random(f"perfbench/cover/{cover_key(shape)}/{index}")
    order = list(range(k))
    rng.shuffle(order)
    parts = [((v,), tuple(sorted(order[i + 1 :]))) for i, v in enumerate(order[:-1])]
    count = {pair: 1 for pair in combinations(range(k), 2)}
    while len(parts) < k - 1 + extras:
        chosen = rng.sample(range(k), left_size + right_size)
        left, right = chosen[:left_size], chosen[left_size:]
        pairs = [(min(u, w), max(u, w)) for u in left for w in right]
        if all(count[p] < t for p in pairs):
            for p in pairs:
                count[p] += 1
            parts.append((tuple(sorted(left)), tuple(sorted(right))))
    return BicliqueSystem(k, tuple(Biclique(l, r) for l, r in parts), t)


def pool_edges(group: str, index: int) -> list[tuple[int, int]]:
    """Uniform random graph with a fixed vertex and edge count."""
    n, m, _, _ = GRAPH_GROUPS[group]
    rng = random.Random(f"perfbench/{group}/{index}")
    return sorted(rng.sample(list(combinations(range(n), 2)), m))


def solve_cover(cover: BicliqueSystem):
    certs = (
        algebra.verify_cover_identity(cover),
        algebra.verify_cover_identity(cover, sign_rule="even-positive"),
        algebra.rank_certificate(cover),
    )
    return "".join(formats.write_certificate(c) for c in certs), certs


def solve_graph(group: str, text: str):
    graph = formats.read_graph(text)
    if group == "chi":
        value, coloring = oracles.chromatic_number(graph)
        return f"chi {value}\ncoloring {' '.join(map(str, coloring))}\n", (value, coloring)
    if group == "alpha":
        value, witness = oracles.independence_number(graph)
        return f"alpha {value}\nwitness {' '.join(map(str, witness))}\n", (value, witness)
    out, systems = [], []
    for t in GRAPH_GROUPS["bp"][3]:
        value, system = oracles.min_biclique_partition(graph, t)
        out.append(f"bp_{t} {value}\n" + formats.write_system(system))
        systems.append((t, value, system))
    return "".join(out), systems


def multiplicities(system: BicliqueSystem) -> dict:
    """How often the system covers each pair (u, v), u < v."""
    count: dict = {}
    for b in system.parts:
        for u in b.left:
            for v in b.right:
                pair = (min(u, v), max(u, v))
                count[pair] = count.get(pair, 0) + 1
    return count


def _independent(edges: set, vertices) -> bool:
    return not any((u, w) in edges for u, w in combinations(sorted(vertices), 2))


def _graph_checks(group, edges, n, value):
    """Checks that use only the generated edge list, not the package."""
    edge_set = set(edges)
    if group == "chi":
        chi, coloring = value
        proper = all(coloring[u] != coloring[w] for u, w in edges)
        return [("chi.proper", len(coloring) == n and proper and max(coloring) + 1 == chi)]
    if group == "alpha":
        alpha, witness = value
        return [("alpha.witness", len(witness) == alpha and _independent(edge_set, witness))]
    checks = []
    for t, size, system in value:
        count = multiplicities(system)
        ok = size == len(system.parts) and set(count) == edge_set
        ok &= all(1 <= c <= t for c in count.values())
        checks.append((f"bp{t}.cover", ok))
    return checks


class ExactSmall:
    """Many small exact computations: cover identities and rank certificates,
    the oracle path on written graphs, and the cube, peck and clis suites."""

    def prepare(self, seed, golden):
        rng = random.Random(seed)
        covers = []
        for shape in COVER_SHAPES:
            index = rng.randrange(COVER_POOL)
            covers.append((cover_key(shape), index, pool_cover(shape, index)))
        graph_inputs = []
        for group, (n, _, _, _) in GRAPH_GROUPS.items():
            for stratum in golden[group]["strata"]:
                index = rng.choice(stratum)
                edges = pool_edges(group, index)
                text = formats.write_graph(Graph.from_edges(n, edges))
                graph_inputs.append((group, index, n, edges, text))
        return covers, graph_inputs

    def run(self, inputs):
        covers, graph_inputs = inputs
        cover_out = [solve_cover(cover) for _, _, cover in covers]
        graph_out = [solve_graph(group, text) for group, _, _, _, text in graph_inputs]
        suite_out = [cli.cmd_suite(name, cli.RunConfig()) for name in SUITES]
        return cover_out, graph_out, suite_out

    def check(self, inputs, outputs, golden):
        covers, graph_inputs = inputs
        cover_out, graph_out, suite_out = outputs
        checks = []
        for (key, index, _), (text, certs) in zip(covers, cover_out):
            verdicts = tuple(c.verdict for c in certs)
            checks.append(("cover.verdicts", verdicts == (True, False, True)))
            checks.append(("cover.sha256", sha256(text) == golden["covers"][key][index]))
        for (group, index, n, edges, _), (text, value) in zip(graph_inputs, graph_out):
            checks.extend(_graph_checks(group, edges, n, value))
            checks.append((f"{group}.sha256", sha256(text) == golden[group]["sha256"][index]))
        for name, (text, ok) in zip(SUITES, suite_out):
            checks.append((f"suite.{name}.ok", ok))
            checks.append((f"suite.{name}.sha256", sha256(text) == golden["suites"][name]))
        return checks

    def negative(self, seed, golden):
        entry = pick_negative(seed, golden)
        shape = tuple(entry["shape"])
        cover = pool_cover(shape, entry["index"])
        return negative_checks(Graph.complete(shape[0]), cover, entry)


WORKLOADS = {"demo_n3": DemoN3(), "cover_t2": CoverT2(), "exact_small": ExactSmall()}
