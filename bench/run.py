"""Benchmark entry point.

    python3 bench/run.py --workload {ingest,train,infer} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from its
`src/` directory. The workload's inputs are made from the seed and set up
(untimed by the rounds, timed as `setup_s`); then whole rounds of its
operations run until S seconds have passed; then the last round's outputs
are checked against an independent reference. The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
The line before it holds the per-stage figures of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3


def _single_blas_thread():
    """One caller and one BLAS thread. On a 2-CPU host a second thread made
    no round faster and spun on the CPU that the rest of the host needs."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_program():
    """Import `ecgrecon` from this checkout's `src/`, nowhere else."""
    src = ROOT / "src"
    if not (src / "ecgrecon" / "__init__.py").is_file():
        raise ImportError(f"no program sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    import ecgrecon
    if Path(ecgrecon.__file__).resolve().parent != src / "ecgrecon":
        raise ImportError(f"ecgrecon imported from {ecgrecon.__file__}, not {src}")


def measure(workload, seed, seconds, trace, work):
    """Set up, run rounds for `seconds`, check; returns (result, summary)."""
    import numpy as np

    from reference import TARGET_LEADS, CheckFailed
    from tracing import Tracer
    from workloads import Ops, remove

    setup_times = []
    for i in range(1 if trace else SETUP_REPEATS):
        d = work / f"setup{i}"
        remove(d)
        t0 = perf_counter()
        ctx = workload.setup(d, seed)
        setup_times.append(perf_counter() - t0)
        if i > 0:
            remove(work / f"setup{i - 1}")

    ops = Ops()
    tracer = Tracer() if trace else None
    rounds = []
    if tracer:
        tracer.install()
    try:
        start = perf_counter()
        while True:
            r = work / f"round{len(rounds)}"
            failed_before = ops.failed
            times = workload.run_round(ctx, r, ops)
            times.update(dir=r, failed=ops.failed - failed_before)
            rounds.append(times)
            if perf_counter() - start >= seconds:
                break
            remove(r)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    last = rounds[-1]
    correct = True
    if last["failed"]:
        correct = False
        print("bench: the last round has failed operations; its outputs "
              "cannot be checked", file=sys.stderr)
    else:
        try:
            workload.check(ctx, last["dir"], rounds)
        except CheckFailed as exc:
            correct = False
            print(f"bench: check failed: {exc}", file=sys.stderr)

    round_s = [sum(t[s] for s in workload.stages) for t in rounds]
    summary = {"workload": workload.name, "seed": seed, "trace": int(trace),
               "rounds": len(rounds), "round_s": [float(v) for v in round_s]}
    if trace:
        test_records = len(ctx["corpus"].records("test"))
        metrics = tracer.layer_metrics(len(rounds), test_records, TARGET_LEADS)
        trace_path = work.parent / "traces" / f"{workload.name}.json"
        tracer.write(trace_path)
        summary["trace_file"] = str(trace_path)
        summary["spans"] = len(tracer.spans)
    else:
        metrics = {
            "round_s": {"value": float(np.median(round_s)), "unit": "s"},
            "setup_s": {"value": float(np.median(setup_times)), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
        summary["setup_s"] = setup_times
        summary["stage_metrics"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in workload.stage_metrics(ctx, rounds).items()}
    result = {"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": metrics}
    return result, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ingest", "train", "infer"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _single_blas_thread()
    try:
        _import_program()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, remove

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        result, summary = measure(WORKLOADS[args.workload](), args.seed,
                                  args.seconds, bool(args.trace), work)
    finally:
        remove(work)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
