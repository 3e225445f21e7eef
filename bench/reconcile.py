"""Re-measure the re-anchor baseline that ROADMAP quotes, and state the drift.

    python3 bench/reconcile.py [--out bench/out/reconcile.json]

ROADMAP's baseline, best of 3 to 5 runs on a 2-core box: 480 cold solves
(24 sets x n = 1..20) in 8.7 s, and single solves on `quad` at n = 20 and
n = 40 in 51 ms and 354 ms.  This script times the same work here: the 480
solves of `chebcap verify --seed 0 --random 16` (the eight verify fixtures
plus 16 random unions, n = 1..20) 3 times, and each quad solve 15
times, and reports best and median with their ratio to the quoted figures.
It reports drift; it gates nothing.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

import bootstrap

ROADMAP = {"sweep_480_s": 8.7, "quad_n20_ms": 51.0, "quad_n40_ms": 354.0}
REPEATS = 3


def _times(fn, repeats):
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", default=str(Path(__file__).resolve().parent / "out" / "reconcile.json"))
    args = p.parse_args(argv)
    bootstrap.prepare()
    import chebcap
    import numpy
    import workloads

    rng = numpy.random.RandomState(0)
    sets = [e for _, _, e, _ in workloads.verify_fixtures()]
    sets += [workloads.random_union(rng) for _ in range(16)]
    solves = [(e, n) for e in sets for n in range(1, workloads.SWEEP_N_MAX + 1)]

    def sweep():
        for e, n in solves:
            chebcap.minimal_polynomial(e, n)

    measured = {"sweep_480_s": _times(sweep, REPEATS)}
    for n in (20, 40):
        secs = _times(lambda: chebcap.minimal_polynomial(workloads.QUAD, n), 5 * REPEATS)
        measured[f"quad_n{n}_ms"] = [1e3 * t for t in secs]
    report = {}
    for key, values in measured.items():
        best, median = min(values), statistics.median(values)
        report[key] = {"best": best, "median": median, "runs": values,
                       "roadmap": ROADMAP[key], "best_over_roadmap": best / ROADMAP[key]}
        print(f"{key:12s} best {best:10.4g}  median {median:10.4g}  "
              f"roadmap {ROADMAP[key]:g}  best/roadmap {best / ROADMAP[key]:.2f}")
    bootstrap.save(args.out, {"measured": report})
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
