"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import chebcap as cc  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402


def describe(rounds):
    """Everything a round hands the library, as comparable text."""
    out = []
    for units in rounds:
        for unit in units:
            out.append(repr(sorted(unit.state.items())))
            for op in unit.ops:
                args = "needs " + ",".join(op.needs) if op.needs else repr(op.args({}))
                out.append(f"{op.call} {op.label} {args} {op.oracle!r}")
    return out


def first_rounds(name, seed, count=2):
    return describe(itertools.islice(workloads.WORKLOADS[name](seed), count))


def test_op_list_is_a_pure_function_of_the_seed():
    for name in workloads.WORKLOADS:
        a = first_rounds(name, 11)
        assert a == first_rounds(name, 11), name
        assert a != first_rounds(name, 12), name


def test_sweep_round_solves_fixtures_to_20_and_random_unions_to_10():
    units = next(workloads.sweep_rounds(5))
    assert len(units) == 8 + workloads.VERIFY_RANDOM
    degrees = [[op.n for op in u.ops if op.call == "remez.minimal_polynomial"] for u in units]
    assert all(ns == list(range(1, 21)) for ns in degrees[:8])
    assert all(ns == list(range(1, 11)) for ns in degrees[8:])


def _interval_op():
    return workloads.minpoly_op("interval", workloads.INTERVAL, 4,
                                2.0**-3, workloads.INTERVAL_TOL)


def _run(op):
    runner = harness.Runner()
    runner.run_unit(workloads.Unit((op,)))
    return runner.records[0]


def test_exact_solution_is_ok():
    rec = _run(_interval_op())
    assert rec.outcome == "ok", rec.detail
    assert rec.iterations >= 1 and rec.oracle_rel_err < 1e-12


def test_perturbed_deviation_is_a_wrong_answer():
    exact = cc.minimal_polynomial(workloads.INTERVAL, 4)
    bent = dataclasses.replace(exact, deviation=exact.deviation * (1.0 + 1e-6))
    op = dataclasses.replace(_interval_op(), fn=lambda e, n: bent)
    rec = _run(op)
    assert rec.outcome == "wrong"
    assert rec.failed and "oracle" in rec.detail
    assert abs(rec.oracle_rel_err - 1e-6) < 1e-9


def test_convergence_error_is_counted_not_propagated():
    def refuse(e, n):
        raise cc.ConvergenceError("no leveling")

    runner = harness.Runner()
    solve = dataclasses.replace(_interval_op(), fn=refuse, key="solve")
    witness = workloads.Op("remez.minimality_witness", "interval n=4", 4,
                           cc.minimality_witness, lambda s: (workloads.INTERVAL, s["solve"]),
                           lambda r, s: None, needs=("solve",))
    runner.run_unit(workloads.Unit((solve, witness)))
    first, second = runner.records
    assert first.outcome == "raised" and first.detail.startswith("ConvergenceError")
    assert first.failed and not first.crashed
    assert second.outcome == "skipped" and not second.failed
    runner.settle()
    metrics = harness.end_to_end(runner.records, runner.ref_ms)
    assert metrics["ok_share"][0] == 0.0


def test_non_library_exception_is_a_crash():
    def broken(e, n):
        raise ZeroDivisionError("bug")

    rec = _run(dataclasses.replace(_interval_op(), fn=broken))
    assert rec.outcome == "raised" and rec.crashed


def _refuse(e, n):
    raise cc.ConvergenceError("no leveling")


def test_unlisted_failure_makes_the_run_incorrect():
    rec = _run(dataclasses.replace(_interval_op(), fn=_refuse))
    assert rec.failed and rec.defect == "unlisted"
    assert not harness.correct([rec])


def test_known_defect_keeps_the_run_correct():
    op = dataclasses.replace(_interval_op(), label="pair-0.6 n=40", fn=_refuse)
    rec = _run(op)
    assert rec.failed and rec.defect == "pair-high-degree"
    assert harness.correct([rec])
    # The same failure one degree lower is not a known defect.
    rec = _run(dataclasses.replace(op, label="pair-0.6 n=38"))
    assert rec.defect == "unlisted" and not harness.correct([rec])


def test_each_ok_op_keeps_its_median_pass():
    calls = []

    def slow_first(e, n):
        calls.append(n)
        if len(calls) == 1:
            time.sleep(0.05)
        return cc.minimal_polynomial(e, n)

    runner = harness.Runner()
    runner.run_round([workloads.Unit((dataclasses.replace(_interval_op(), fn=slow_first),))],
                     passes=3)
    (rec,) = runner.records
    assert len(calls) == 3 and len(rec.passes) == 3
    assert rec.outcome == "ok" and rec.ms < 50.0


def test_failed_op_is_timed_once():
    calls = []

    def refuse(e, n):
        calls.append(n)
        raise cc.ConvergenceError("no leveling")

    runner = harness.Runner()
    runner.run_round([workloads.Unit((dataclasses.replace(_interval_op(), fn=refuse),))],
                     passes=3)
    (rec,) = runner.records
    assert len(calls) == 1 and len(rec.passes) == 1 and rec.failed


def test_reference_units_divide_by_the_reference_calls_around_the_op():
    runner = harness.Runner()
    runner.run_round([workloads.Unit((_interval_op(),)) for _ in range(3)], passes=2)
    runner.settle()
    assert len(runner.ref_ms) == len(runner.ref_at) == 1 + 2 * 3
    for i, rec in enumerate(runner.records):
        assert [before for before, _, _ in rec.passes] == [i, i + 3]
        assert rec.ref == statistics.median(1e3 * (t1 - t0) / runner.reference_around(i, t0, t1)
                                            for i, t0, t1 in rec.passes)


def test_reference_window_grows_with_the_op():
    runner = harness.Runner()
    runner.ref_at[:] = [0.0, 1.0, 2.0, 10.0, 11.0, 30.0]
    runner.ref_ms[:] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    # A short op sees only the calls right before and right after it.
    assert runner.reference_around(1, 1.1, 1.2) == 2.5
    # A 7 s op sees every call that started within 7 s of it.
    assert runner.reference_around(2, 2.1, 9.1) == 3.0


def test_tail_leaves_ten_samples_above():
    value, pct, samples = harness.tail(list(range(100)))
    assert value == 89 and samples == 100 and pct == 90.0


def test_declared_metrics_are_computed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    tracer = harness.Tracer("test")
    runner = harness.Runner(tracer)
    runner.run_unit(workloads.Unit((_interval_op(),)))
    runner.settle()
    layers = harness.per_layer(runner.records, tracer.spans)
    assert {m["name"] for m in spec["per_layer"]} <= set(layers)
    e2e = set(harness.end_to_end(runner.records, runner.ref_ms)) | {"setup_s", "peak_rss_mb"}
    assert {m["name"] for m in spec["end_to_end"]} <= e2e
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
