"""Degree-frontier map: where minimal_polynomial is right, stalls or fails.

    python3 bench/frontier_map.py [--out bench/out/frontier_map.json]

One-shot report, not a timed workload.  For each fixture and each degree of
a ladder up to the advertised cap of 100 it solves once from cold and
records status / iterations / rel_gap / |err vs oracle| / ms.  The fixtures
are the frontier workload's (`workloads.frontier_units`) on a longer ladder
and all four verify pairs.  Oracles are the closed forms on the interval and
on even-degree symmetric pairs, and L_kn = 2 / (2|c|)^k on inverse images
of c*T_3 (k to 33) and c*T_4 (k to 25); triple and quad are checked against
L_n >= 2 lower^n and a residual of at most 1e-6 of the deviation.  Status
is ok, wrong, or the exception class.  Re-run it to show the envelope
moving; the committed baseline is bench/baseline/frontier_map.json.
"""

import argparse
import sys
from pathlib import Path

import bootstrap

DEGREES = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
POWERS = {3: (4, 8, 12, 16, 20, 25, 29, 33), 4: (3, 5, 8, 10, 13, 15, 18, 20, 23, 25)}
ALPHAS = (0.3, 0.5, 0.6, 0.7)


def _sci(x) -> str:
    return "-" if x is None else f"{x:.2e}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", default=str(Path(__file__).resolve().parent / "out" / "frontier_map.json"))
    args = p.parse_args(argv)
    bootstrap.prepare()
    import harness
    import workloads

    rows = []
    print(f"{'fixture':12s} {'n':>4s} {'status':18s} {'iters':>5s} {'rel_gap':>9s} "
          f"{'|err|':>9s} {'ms':>9s}", flush=True)
    for unit in workloads.frontier_units(DEGREES, ALPHAS, POWERS):
        runner = harness.Runner()
        runner.run_unit(unit)
        rec = runner.records[0]
        op = unit.ops[0]
        name = op.label.rsplit(" n=", 1)[0]
        status = rec.detail.split(":")[0] if rec.outcome == "raised" else rec.outcome
        row = {"fixture": name, "n": op.n, "status": status,
               "iterations": rec.iterations, "rel_gap": rec.rel_gap,
               "rel_err_vs_oracle": rec.oracle_rel_err, "ms": rec.ms}
        rows.append(row)
        print(f"{name:12s} {op.n:4d} {status:18s} {rec.iterations or '-':>5} "
              f"{_sci(rec.rel_gap):>9s} {_sci(rec.oracle_rel_err):>9s} {rec.ms:9.1f}", flush=True)
    bootstrap.save(args.out, {"rows": rows})
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
