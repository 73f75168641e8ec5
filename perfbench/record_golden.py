"""Record the reference outputs that the benchmark checks every run against.

    PYTHONPATH=src python3 perfbench/record_golden.py

Writes ``perfbench/golden.json``: SHA-256 digests of the demo report, of the
t=2 cover text and its certificate, and of every pool instance of
exact_small; the cost strata of the oracle pools; and for each workload a
table of mutations of its main object with the witness the verifier returned
for each.  It was run once, on the commit that added the benchmark.  Running
it again on a later commit would replace the reference with that commit's own
outputs and so remove the check; a change that alters output bytes on purpose
must say so and re-record in its own commit.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import workloads as w
from bicliquelab import formats
from bicliquelab.graphs import Graph

NEGATIVES = 16


def require(ok, what):
    if not ok:
        raise SystemExit(f"unexpected output: {what}")


def witness_of(graph, system, mutation):
    cert = w.graphs.verify_biclique_system(graph, w.mutate(system, mutation))
    if cert.verdict:
        raise SystemExit(f"mutation {mutation} still verifies; pick another")
    return json.loads(json.dumps(cert.witness))


def adjacency_mutations(label, graph, system):
    """Alternately drop a part and add a vertex with a non-edge to the right side."""
    rng = random.Random(f"perfbench/{label}/negative")
    adj = graph.adjacency
    table = []
    while len(table) < NEGATIVES:
        i = rng.randrange(len(system.parts))
        part = system.parts[i]
        if len(table) % 2 == 0:
            mutation = {"kind": "drop", "part": i}
        else:
            used = set(part.left) | set(part.right)
            x = rng.randrange(graph.order)
            if x in used or adj[x, list(part.right)].all():
                continue
            mutation = {"kind": "add", "part": i, "vertex": x}
        table.append({"mutation": mutation, "witness": witness_of(graph, system, mutation)})
        print(label, table[-1], file=sys.stderr)
    return table


def cover_mutations():
    """Alternately drop a part holding a pair covered once, and add a vertex
    that pushes some pair above the multiplicity bound t."""
    rng = random.Random("perfbench/exact_small/negative")
    table = []
    while len(table) < NEGATIVES:
        shape = w.COVER_SHAPES[len(table) % len(w.COVER_SHAPES)]
        index = rng.randrange(w.COVER_POOL)
        cover = w.pool_cover(shape, index)
        count = w.multiplicities(cover)
        i = rng.randrange(len(cover.parts))
        part = cover.parts[i]
        pairs = [(min(u, v), max(u, v)) for u in part.left for v in part.right]
        if len(table) % 2 == 0:
            if not any(count[p] == 1 for p in pairs):
                continue
            mutation = {"kind": "drop", "part": i}
        else:
            x = rng.randrange(cover.host_order)
            if x in part.left or x in part.right:
                continue
            bound = cover.multiplicity_bound
            if not any(count[(min(x, v), max(x, v))] == bound for v in part.right):
                continue
            mutation = {"kind": "add", "part": i, "vertex": x}
        graph = Graph.complete(shape[0])
        entry = {"shape": list(shape), "index": index, "mutation": mutation}
        entry["witness"] = witness_of(graph, cover, mutation)
        table.append(entry)
        print("exact_small", entry, file=sys.stderr)
    return table


def record_demo():
    demo = w.WORKLOADS["demo_n3"]
    text, ok = demo.run(demo.prepare(0, None))
    require(ok, text)
    size = next(int(l.split()[1]) for l in text.splitlines() if l.startswith("partition-size "))
    return {
        "report_sha256": w.sha256(text),
        "partition_size": size,
        "negatives": adjacency_mutations("demo_n3", *demo.main_object()),
    }


def record_cover():
    cover = w.WORKLOADS["cover_t2"]
    _, _, text, _, cert, cert_text = cover.run(cover.prepare(0, None))
    require(cert.verdict, cert)
    return {
        "system_sha256": w.sha256(text),
        "certificate_sha256": w.sha256(cert_text),
        "negatives": adjacency_mutations("cover_t2", *cover.main_object()),
    }


def record_exact():
    out = {"covers": {}}
    for shape in w.COVER_SHAPES:
        digests = []
        for index in range(w.COVER_POOL):
            text, certs = w.solve_cover(w.pool_cover(shape, index))
            require(tuple(c.verdict for c in certs) == (True, False, True), certs)
            digests.append(w.sha256(text))
        out["covers"][w.cover_key(shape)] = digests
    for group, (n, _, pool, _) in w.GRAPH_GROUPS.items():
        digests, costs = [], []
        for index in range(pool):
            text = formats.write_graph(Graph.from_edges(n, w.pool_edges(group, index)))
            times = []
            for _ in range(2):
                start = time.perf_counter()
                answer, _ = w.solve_graph(group, text)
                times.append(time.perf_counter() - start)
            digests.append(w.sha256(answer))
            costs.append(round(min(times), 4))
            print(group, index, costs[-1], file=sys.stderr)
        order = sorted(range(pool), key=costs.__getitem__)
        strata = [sorted(order[i : i + w.STRATUM]) for i in range(0, pool, w.STRATUM)]
        out[group] = {"sha256": digests, "cost_s": costs, "strata": strata}
    out["suites"] = {}
    for name in w.SUITES:
        text, ok = w.cli.cmd_suite(name, w.cli.RunConfig())
        require(ok, text)
        out["suites"][name] = w.sha256(text)
    out["negatives"] = cover_mutations()
    return out


def main() -> None:
    golden = {
        "demo_n3": record_demo(),
        "exact_small": record_exact(),
        "cover_t2": record_cover(),
    }
    path = Path(__file__).resolve().parent / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
