"""Peak traced memory of each stage of one benchmark round.

    python3 tools/stage_peaks.py [--workload {train,infer,ingest}] [--seed N]

Run from the root of a source checkout. Builds the inputs of the `train`
(default), `infer` or `ingest` workload in `bench/` at seed N, then runs
one round of its stages under tracemalloc, with one BLAS thread:
`pretrain`, `embed` and `train`; `embed`, `evaluate` and `reconstruct`
(the infer round's single-window `decode` loop is left out); or
`preprocess --verify-checksums` and `split`. Prints one JSON object: each
stage's peak traced memory above the traced memory at its start, in MiB.
tracemalloc sees numpy's buffers but not the interpreter's own footprint,
so these figures sit below the process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("train", "infer", "ingest"), default="train")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import Infer, Ingest, Ops, Train

    peaks = {}

    class TracedOps(Ops):
        def stage(self, argv):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            elapsed = super().stage(argv)
            peaks[str(argv[0])] = round((tracemalloc.get_traced_memory()[1] - start)
                                        / 2 ** 20, 1)
            return elapsed

    workload = {"train": Train, "infer": lambda: Infer(decode_calls=0),
                "ingest": Ingest}[args.workload]()
    with tempfile.TemporaryDirectory() as tmp:
        ctx = workload.setup(Path(tmp) / "setup", args.seed)
        ops = TracedOps()
        tracemalloc.start()
        try:
            workload.run_round(ctx, Path(tmp) / "round", ops)
        finally:
            tracemalloc.stop()
    if ops.failed:
        print(f"stage_peaks: {ops.failed} stage(s) failed", file=sys.stderr)
        return 1
    print(json.dumps(peaks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
