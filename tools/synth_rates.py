"""Time per record and sha256 of `synth.generate_record` at four rates.

    python3 tools/synth_rates.py [--records N]

Run from the root of a source checkout. For each (rate, length) of
(100 Hz, 10 s), (100 Hz, 40 s), (500 Hz, 10 s) and (1000 Hz, 30 s) it
renders N records (default 40) as `generate_corpus` does: the four
built-in classes in turn, record i from seed i, with a heart rate and a
per-lead amplitude jitter drawn from one generator seeded 0. Each call is
timed on its own. Prints one JSON object per line: the rate, the length,
the median ms per record, and the sha256 of the N records' samples
(float64, in order).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RATES = ((100.0, 10.0), (100.0, 40.0), (500.0, 10.0), (1000.0, 30.0))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--records", type=int, default=40)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src")]
    import numpy as np

    from ecgrecon.dataset import ALL_LEADS
    from ecgrecon.synth import builtin_class_specs, generate_record

    specs = builtin_class_specs()
    for fs, seconds in RATES:
        rng = np.random.default_rng(0)
        digest = hashlib.sha256()
        times = []
        for i in range(args.records):
            spec = specs[i % len(specs)]
            hr = rng.uniform(*spec.hr_range)
            amp = {lead: rng.uniform(0.8, 1.2) for lead in ALL_LEADS}
            start = perf_counter()
            rec = generate_record(spec, seconds, fs, i, amp_scale=amp, heart_rate=hr)
            times.append(perf_counter() - start)
            digest.update(rec.samples.tobytes())
        print(json.dumps({"fs": fs, "seconds": seconds,
                          "ms_per_record": round(statistics.median(times) * 1e3, 2),
                          "sha256": digest.hexdigest()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
