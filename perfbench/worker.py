"""One benchmark step in a fresh process; started by run.py, one at a time.

Modes:

* ``probe``: set up and stop (a set-up time sample);
* ``iter``: set up, run the timed body once, check the outputs;
* ``negative``: run the workload's negative control.

``--launch`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is shared by all processes of the machine), so set-up time
covers interpreter start, the package import and input generation.  The last
line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "iter", "negative"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iteration", type=int, default=0)
    parser.add_argument("--launch", type=float, required=True)
    args = parser.parse_args()

    import numpy
    import bicliquelab
    import workloads

    source = HERE.parent / "src" / "bicliquelab"
    if Path(bicliquelab.__file__).resolve().parent != source:
        sys.exit(f"imported bicliquelab from {bicliquelab.__file__}, expected {source}")
    golden = json.loads((HERE / "golden.json").read_text())[args.workload]
    workload = workloads.WORKLOADS[args.workload]
    result: dict = {"numpy": numpy.__version__}

    if args.mode == "negative":
        result["checks"] = workload.negative(args.seed, golden)
        print(json.dumps(result))
        return

    inputs = workload.prepare(args.seed, golden)
    result["setup_s"] = time.monotonic() - args.launch
    if args.mode == "probe":
        print(json.dumps(result))
        return

    recorder = None
    if args.trace:
        import spans

        recorder = spans.SpanRecorder(args.iteration)
        recorder.install()
    start = time.perf_counter()
    try:
        outputs = workload.run(inputs)
    finally:
        verdict_s = time.perf_counter() - start
        if recorder is not None:
            recorder.restore()
    result["verdict_s"] = verdict_s
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["checks"] = workload.check(inputs, outputs, golden)
    if recorder is not None:
        result["trace"] = recorder.summary(verdict_s)
        result["spans"] = recorder.spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
