"""bicliquelab benchmark: time to verdict and peak memory, per workload.

    python3 perfbench/run.py --workload demo_n3 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from ``src``.
Every timed iteration runs in a fresh worker process (``worker.py``) and
workers run one at a time: a closed loop with one client, because one CLI
invocation is one fresh process, and because the package keeps
process-lifetime caches that a warm in-process loop would measure instead.
Iterations start until ``--seconds`` have passed (at least one; with tracing
at least one untraced and one traced, alternating).  Extra set-up-only
workers bring the set-up samples to at least ``MIN_SETUP_SAMPLES``.  One
worker then runs the workload's negative control.

The last line of stdout is one JSON object.  With ``--trace 0`` it holds the
end-to-end metrics (medians over the run's samples); with ``--trace 1`` the
per-layer metrics from the traced iterations, ``trace.overhead_ratio`` being
the traced over the untraced median time to verdict, minus one.
``attempted`` and ``failed`` count correctness checks, so their ratio is the
run's fail ratio.  Samples, failed check names, the machine record and the
spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("demo_n3", "cover_t2", "exact_small")
MIN_SETUP_SAMPLES = 10
# Every run must end within 180 s; workers still running at this point are killed.
DEADLINE_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def proc_field(path: str, key: str) -> str:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts workers one at a time and keeps what they report."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.env = worker_env()
        self.deadline = time.monotonic() + DEADLINE_S
        self.errors: list[str] = []

    def launch(self, mode: str, trace: int = 0, iteration: int = 0) -> dict | None:
        launch = time.monotonic()
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
            "--trace", str(trace), "--iteration", str(iteration), "--launch", repr(launch),
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - launch),
            )
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} worker {iteration} timed out")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            self.errors.append(f"{mode} worker {iteration} exited {proc.returncode}: {tail[0]}")
            return None
        return json.loads(lines[-1])

    def out_of_time(self) -> bool:
        return time.monotonic() > self.deadline


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(setups, untraced) -> dict:
    return {
        "setup_s": (median(setups), "s"),
        "verdict_s": (median([r["verdict_s"] for r in untraced]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mib"] for r in untraced]), "MiB"),
    }


def per_layer(traced, untraced) -> dict:
    import spans

    summaries = [r["trace"] for r in traced]
    metrics = {}
    for name in spans.TRACED:
        metrics[f"{name}.self_s"] = (median([s["self_s"][name] for s in summaries]), "s")
        metrics[f"{name}.calls"] = (median([s["calls"][name] for s in summaries]), "count")
    for key in spans.COUNTS:
        unit = "bytes" if key == "formats.bytes" else "count"
        metrics[key] = (median([s["counts"][key] for s in summaries]), unit)
    rates = [
        s["counts"][f"{spans.VERIFY}.pairs"] / s["self_s"][spans.VERIFY]
        for s in summaries
        if s["self_s"][spans.VERIFY] > 0
    ]
    metrics[f"{spans.VERIFY}.pairs_per_s"] = (median(rates), "1/s")
    metrics["trace.unattributed_s"] = (median([s["unattributed_s"] for s in summaries]), "s")
    traced_s = median([r["verdict_s"] for r in traced])
    metrics["trace.verdict_s"] = (traced_s, "s")
    untraced_s = median([r["verdict_s"] for r in untraced])
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "bicliquelab" / "__init__.py").is_file():
        print(f"no bicliquelab sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    # Untimed: fills the bytecode cache, as any earlier invocation would have.
    warm = runner.launch("probe")
    if warm is None:
        print("\n".join(runner.errors), file=sys.stderr)
        return 1

    results: list[tuple[bool, dict | None]] = []
    start = time.monotonic()
    while not runner.out_of_time() and (
        len(results) < 1 + args.trace or time.monotonic() - start < args.seconds
    ):
        is_traced = bool(args.trace) and len(results) % 2 == 1
        results.append((is_traced, runner.launch("iter", int(is_traced), len(results))))
    done = [(is_traced, r) for is_traced, r in results if r is not None]
    untraced = [r for is_traced, r in done if not is_traced]
    traced = [r for is_traced, r in done if is_traced]
    setups = [r["setup_s"] for _, r in done]
    while len(setups) < MIN_SETUP_SAMPLES and not runner.out_of_time():
        probe = runner.launch("probe")
        if probe is None:
            break
        setups.append(probe["setup_s"])
    negative = runner.launch("negative")

    # A worker that crashed or timed out counts as one failed check.
    lost = len(results) - len(done) + (negative is None)
    check_lists = [r["checks"] for _, r in done] + ([negative["checks"]] if negative else [])
    failed_names = [name for checks in check_lists for name, ok in checks if not ok]
    attempted = sum(len(c) for c in check_lists) + lost
    failed = len(failed_names) + lost

    if not untraced or (args.trace and not traced):
        print("\n".join(runner.errors + failed_names), file=sys.stderr)
        return 1
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(setups, untraced)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "python": platform.python_version(),
            "numpy": warm["numpy"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": proc_field("/proc/cpuinfo", "model name"),
            "mem_total": proc_field("/proc/meminfo", "MemTotal"),
        },
        "samples": {
            "setup_s": setups,
            "iterations": [{k: v for k, v in r.items() if k != "spans"} for _, r in done],
        },
        "errors": runner.errors,
        "failed_checks": failed_names,
        "metrics": metrics,
        "spans": [span for r in traced for span in r["spans"]],
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n")

    print(
        f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced "
        f"iterations, {len(setups)} set-up samples, {failed}/{attempted} checks failed; "
        f"record in {out_file.relative_to(ROOT)}",
        file=sys.stderr,
    )
    for message in runner.errors + failed_names:
        print(f"  {message}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
