"""chebcap benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory.  The run is single-process and single-threaded: BLAS and
OpenMP are pinned to one thread before numpy loads.

--trace 0 runs round(--seconds / 30) whole rounds of the workload, at
least one, and prints the end-to-end metrics.  Each round runs
workloads.PASSES times and every ok op is timed by its median pass, in wall
time and in units of a reference kernel timed next to it (harness.py).  The
work is fixed by --seconds, not by the machine's speed, so two versions of
the program do the same ops.

--trace 1 runs round 0 only, each unit once plain and once with spans, so
its counts repeat exactly; it prints the per-layer metrics and a per-layer
table with the tracing overhead on stderr.

Both write their op records (and spans) to bench/out/.  The last line of
stdout is the result.
"""

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of spawn -> import -> round 0 built."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(times)


def _declared(kind: str) -> list:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def _log(line: str) -> None:
    print(line, file=sys.stderr)


def main(argv=None) -> int:
    args = _parse(argv)
    threads = bootstrap.prepare()
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    rounds = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        next(rounds(args.seed))
        print(repr(time.monotonic()))
        return 0

    tag = f"{args.workload}-seed{args.seed}"
    _log(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
         f"trace={args.trace} threads={threads}")

    if args.trace:
        tracer = harness.Tracer(args.workload)
        runner, plain_s, traced_s = harness.traced_round(next(rounds(args.seed)), tracer)
        metrics = harness.per_layer(runner.records, tracer.spans)
        names = _declared("per_layer")
        report = harness.trace_report(runner.records, tracer.spans, metrics, plain_s, traced_s)
        bootstrap.save(OUT / f"trace-{tag}.json", {
            "workload": args.workload, "seed": args.seed,
            "plain_s": plain_s, "traced_s": traced_s,
            "per_layer": harness.as_json(metrics), "spans": tracer.spans,
            "records": [vars(r) for r in runner.records],
        })
    else:
        setup_s = _setup_seconds(args.workload, args.seed)
        runner = harness.Runner()
        walls = []
        count = max(1, round(args.seconds / workloads.ROUND_SECONDS))
        for units in itertools.islice(rounds(args.seed), count):
            t0 = time.perf_counter()
            runner.run_round(units, workloads.PASSES)
            walls.append(time.perf_counter() - t0)
        runner.settle()
        metrics = harness.end_to_end(runner.records, runner.ref_ms)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        names = _declared("end_to_end")
        report = harness.run_report(runner.records, metrics, walls)
        bootstrap.save(OUT / f"run-{tag}.json", {
            "workload": args.workload, "seed": args.seed, "passes": workloads.PASSES,
            "round_walls_s": walls, "metrics": harness.as_json(metrics),
            "reference_ms": runner.ref_ms, "reference_at": runner.ref_at,
            "records": [vars(r) for r in runner.records],
        })

    for line in report:
        _log(line)
    done = [r for r in runner.records if r.outcome != "skipped"]
    result = {
        "correct": harness.correct(done),
        "attempted": len(done),
        "failed": sum(r.failed for r in done),
        "metrics": harness.as_json({k: metrics[k] for k in names}),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
