"""Op execution, outcome accounting, spans and metrics.

Every op ends in one of three outcomes: ok; raised, with the exception
class; or wrong, with the oracle and the observed value.  An op whose
inputs come from an earlier op that raised is skipped and not attempted.
Failures are counted, never propagated.

Every op is timed twice over: in wall milliseconds, and in reference units
(ref), its wall time divided by the mean wall time of a fixed reference
kernel over the calls around it.  The kernel runs before the first op and
after every op.  It does not call chebcap, so a change to the library moves
only the op's side of the ratio, while a change in the host's speed moves
both sides.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.polynomial.chebyshev import chebval

import chebcap as cc

from workloads import KNOWN_DEFECTS, STALL_GAP, Op, Unit, known_defect

# Minimum number of samples above the reported tail percentile.
TAIL_BEYOND = 10

# The reference kernel: numpy's chebval on a 257-point grid and an extremum
# search, the numpy-on-short-arrays and interpreter mix of the exchange, with
# no chebcap code in it.  A call takes 1.3 to 2.6 ms on a shared 2-core
# x86-64 VM, whose speed moves by up to 1.9x between minutes and by 2x within
# a second.  There, over 2.5 minutes of solves at n = 12 to 18, one solve's
# wall time had an interquartile range of 0.32 of its median, and its ratio
# to the two reference calls around it one of 0.09.  Over 15 s windows of
# mixed public calls, the mean ratio varied by 1.4% (coefficient of
# variation) while wall time varied by 17%; a kernel of scalar chebval calls
# in a bisection loop varied by 3.2%.  Averaging over more nearby reference
# calls, or over the whole run, did not make the ten-seed spreads steadier.
# A 5 s op, though, runs through many of the host's swings while the two
# calls around it see two instants, so an op is compared with every call
# within one op-length of it: on frontier, where two 5 s solves make half of
# the op time, that cut the ten-seed spread of ops_per_ref from 0.19 to 0.14
# and from 0.11 to 0.08, re-computed on two recorded sets of ten runs.
REF_X = np.linspace(-1.0, 1.0, 257)
REF_COEFFS = np.arange(1.0, 33.0)
REF_LOOPS = 15


def reference_ms() -> float:
    """Wall milliseconds of one call of the reference kernel."""
    c = REF_COEFFS
    t0 = time.perf_counter()
    for _ in range(REF_LOOPS):
        v = chebval(REF_X, c)
        int(np.argmax(np.abs(v)))
        c = c[::-1].copy()
    return 1e3 * (time.perf_counter() - t0)


@dataclass
class Record:
    op_id: int
    unit_id: int
    call: str
    label: str
    outcome: str  # "ok" | "raised" | "wrong" | "skipped"
    detail: str = ""
    ms: float = 0.0  # median wall milliseconds over the passes
    ref: float = 0.0  # median over the passes of wall time / reference time
    # Per pass: index of the reference call right before the op, start, end.
    passes: list = field(default_factory=list)
    iterations: Optional[int] = None
    rel_gap: Optional[float] = None
    oracle_rel_err: Optional[float] = None
    defect: str = ""
    crashed: bool = False

    @property
    def failed(self) -> bool:
        return self.outcome in ("raised", "wrong")

    def add_pass(self, before: int, t0: float, t1: float) -> None:
        self.passes.append((before, t0, t1))
        self.ms = statistics.median(1e3 * (b - a) for _, a, b in self.passes)


class Tracer:
    """In-memory spans: one per public call and one per unit around its calls
    and checks.  Spans of one unit share its id."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []

    def span(self, name: str, unit_id: int, op_id, start: float, end: float) -> int:
        self.spans.append({"id": len(self.spans), "parent": None, "name": name,
                           "workload": self.workload, "unit": unit_id, "op": op_id,
                           "start": start, "end": end})
        return len(self.spans) - 1


def _invoke(op: Op, state: dict):
    """Run one public call; returns (result, exception, start, end)."""
    args = op.args(state)
    t0 = time.perf_counter()
    try:
        result = op.fn(*args)
    except Exception as exc:  # the benchmark boundary: count it, keep running
        return None, exc, t0, time.perf_counter()
    return result, None, t0, time.perf_counter()


def _judge(op: Op, rec: Record, result, exc, state: dict) -> None:
    if exc is not None:
        rec.outcome = "raised"
        rec.detail = f"{type(exc).__name__}: {exc}"
        rec.crashed = not isinstance(exc, cc.ChebcapError)
        return
    if isinstance(result, cc.MinimalPolyResult):
        rec.iterations = result.iterations
        rec.rel_gap = result.residual / result.deviation
        if op.oracle is not None:
            rec.oracle_rel_err = abs(result.deviation - op.oracle) / op.oracle
    problem = op.check(result, state)
    if problem is None:
        rec.outcome = "ok"
    else:
        rec.outcome, rec.detail = "wrong", problem
    if op.key is not None:
        state[op.key] = op.keep(result)


class Runner:
    """Executes units and keeps one record per op; with a tracer, each unit
    and each public call in it is also recorded as a span."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self.records = []
        self.units = 0
        self.ref_ms = []  # every reference call's wall ms, in order
        self.ref_at = []  # and its start on the perf_counter clock

    def _reference(self) -> None:
        self.ref_at.append(time.perf_counter())
        self.ref_ms.append(reference_ms())

    def _timed(self, op: Op, state: dict):
        """_invoke, then a reference call; the call after one op is the call
        before the next.  Returns _invoke's tuple and the index of the
        reference call right before the op."""
        if not self.ref_ms:
            self._reference()
        out = _invoke(op, state)
        self._reference()
        return out, len(self.ref_ms) - 2

    def reference_around(self, before: int, t0: float, t1: float) -> float:
        """Mean wall ms of the reference calls around an op that ran from t0
        to t1 after call `before`: the calls right before and right after
        it, and every other call that started within t1 - t0 of it."""
        d = t1 - t0
        lo, hi = before, before + 1
        while lo > 0 and self.ref_at[lo - 1] >= t0 - d:
            lo -= 1
        while hi + 1 < len(self.ref_at) and self.ref_at[hi + 1] <= t1 + d:
            hi += 1
        return statistics.fmean(self.ref_ms[lo:hi + 1])

    def settle(self) -> None:
        """Put every attempted op in reference units: the median over its
        passes of wall time / reference_around."""
        for rec in self.records:
            if rec.passes:
                rec.ref = statistics.median(1e3 * (t1 - t0) / self.reference_around(i, t0, t1)
                                            for i, t0, t1 in rec.passes)

    def run_round(self, units: list, passes: int) -> None:
        """Run each unit, then time its ok ops again passes - 1 times, round
        after round with the first pass's inputs; each op keeps its median
        over the passes.  Outcomes come from the first pass, and a failed op
        keeps the time of its one attempt: a failure repeats exactly, and the
        pair failures on frontier take 4 to 5 s each."""
        first = len(self.records)
        states = [self.run_unit(unit) for unit in units]
        for _ in range(passes - 1):
            records = iter(self.records[first:])
            for unit, state in zip(units, states):
                for op in unit.ops:
                    rec = next(records)
                    if rec.outcome == "ok":
                        (_, _, t0, t1), before = self._timed(op, state)
                        rec.add_pass(before, t0, t1)

    def run_unit(self, unit: Unit) -> dict:
        """Run the unit's ops in order; returns the unit state they built."""
        unit_id = self.units
        self.units += 1
        state = dict(unit.state)
        t_unit = time.perf_counter()
        children = []
        for op in unit.ops:
            op_id = len(self.records)
            rec = Record(op_id, unit_id, op.call, op.label, "skipped")
            self.records.append(rec)
            if any(k not in state for k in op.needs):
                rec.detail = "input from a failed op"
                continue
            (result, exc, t0, t1), before = self._timed(op, state)
            if self.tracer is not None:
                children.append(self.tracer.span(op.call, unit_id, op_id, t0, t1))
            rec.add_pass(before, t0, t1)
            _judge(op, rec, result, exc, state)
            if rec.failed:
                rec.defect = known_defect(op)
        if self.tracer is not None:
            parent = self.tracer.span("bench.unit", unit_id, None, t_unit, time.perf_counter())
            for i in children:
                self.tracer.spans[i]["parent"] = parent
        return state


def traced_round(units: list, tracer: Tracer):
    """Run every unit once plain and once traced, alternating which goes
    first.  Returns the traced runner and the plain and traced walls; their
    difference is the tracing overhead."""
    runner = Runner(tracer)
    walls = {False: 0.0, True: 0.0}
    for i, unit in enumerate(units):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            (runner if traced else Runner()).run_unit(unit)
            walls[traced] += time.perf_counter() - t0
    return runner, walls[False], walls[True]


# --- metrics ---------------------------------------------------------------


def tail(ms: list):
    """(value, percentile, samples): the highest percentile that leaves at
    least TAIL_BEYOND samples above it."""
    xs = sorted(ms)
    i = max(len(xs) - 1 - TAIL_BEYOND, 0)
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs)


def correct(records: list) -> bool:
    """False when an op crashed outside chebcap's error hierarchy or failed
    in a way no known defect explains."""
    return not any(r.crashed or (r.failed and r.defect == "unlisted") for r in records)


def end_to_end(records: list, ref_ms: list) -> dict:
    """Metrics over the attempted ops of a settled runner, each at its median
    pass: in reference units (declared in BENCHMARK.json) and in wall time
    (reported only), with the median of the reference calls `ref_ms`."""
    done = [r for r in records if r.outcome != "skipped"]
    ok = sum(r.outcome == "ok" for r in done)
    ref = [r.ref for r in done]
    ms = [r.ms for r in done]
    return {
        "ops_per_ref": (ok / sum(ref), "1/ref"),
        "op_ref_p50": (statistics.median(ref), "ref"),
        "op_ref_tail": (tail(ref)[0], "ref"),
        "ok_share": (ok / len(done), "share"),
        "ops_per_s": (1e3 * ok / sum(ms), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_tail": (tail(ms)[0], "ms"),
        "ref_ms_p50": (statistics.median(ref_ms), "ms"),
    }


# Per-layer groups: the calls a workload times, and the end-to-end metric and
# workload each group should move.
LAYERS = {
    "remez.minimal_polynomial":
        "ops_per_ref, op_ref_p50 on sweep; op_ref_tail, ok_share on frontier",
    "remez.blow_up_set": "op_ref_*, ok_share on certify; no change on sweep, frontier",
    "remez.minimality_witness": "op_ref_*, ok_share on certify; no change on sweep, frontier",
    "inverse_image.inverse_image": "op_ref_*, ok_share on certify; setup_s on frontier",
    "inverse_image.composed_minimal_sequence": "op_ref_* on certify; setup_s on frontier",
    "arcs.arc_deviation_upper": "ok_share, op_ref_* on certify",
    "capacity.solynin_optimized_bound": "sweep only, about 2% of its wall: no end-to-end change",
}


def per_layer(records: list, spans: list) -> dict:
    """Counts and busy times per public call, from the traced records."""
    out = {}
    for call in LAYERS:
        recs = [r for r in records if r.call == call and r.outcome != "skipped"]
        busy = sum(s["end"] - s["start"] for s in spans if s["name"] == call)
        out[f"{call}.calls"] = (len(recs), "count")
        out[f"{call}.busy_s"] = (busy, "s")
        out[f"{call}.failed"] = (sum(r.failed for r in recs), "count")
        if call == "remez.minimal_polynomial":
            solved = [r for r in recs if r.iterations is not None]
            iters = sum(r.iterations for r in solved)
            errs = [r.oracle_rel_err for r in solved if r.oracle_rel_err is not None]
            out[f"{call}.iters_per_call"] = (iters / len(solved) if solved else 0.0, "count")
            out[f"{call}.ms_per_iter"] = (
                sum(r.ms for r in solved) / iters if iters else 0.0, "ms")
            out[f"{call}.stalled"] = (sum(r.rel_gap > STALL_GAP for r in solved), "count")
            out[f"{call}.oracle_max_rel_err"] = (max(errs) if errs else 0.0, "1")
    return out


def self_times(spans: list) -> dict:
    """Per span name: (busy seconds, self seconds), where self time leaves out
    the part of the interval covered by child spans."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = {}
    for s in spans:
        busy, own = out.get(s["name"], (0.0, 0.0))
        d = s["end"] - s["start"]
        out[s["name"]] = (busy + d, own + d - child.get(s["id"], 0.0))
    return out


# --- stderr reports --------------------------------------------------------


def failure_report(records: list) -> list:
    """Each failed op with the known defect it matches, then those defects."""
    failed = [r for r in records if r.failed]
    skipped = sum(r.outcome == "skipped" for r in records)
    unlisted = sum(r.defect == "unlisted" for r in failed)
    lines = [f"failed ops: {len(failed)} ({unlisted} unlisted), skipped: {skipped}"]
    lines += sorted({f"  {r.call} [{r.label}] {r.outcome}: {r.detail}  <- {r.defect}"
                     for r in failed})
    seen = {r.defect for r in failed}
    lines += [f"  {name}: {text}" for name, text, _ in KNOWN_DEFECTS if name in seen]
    return lines


def run_report(records: list, metrics: dict, walls: list) -> list:
    _, pct, samples = tail([r.ms for r in records if r.outcome != "skipped"])
    lines = [f"rounds={len(walls)} timed wall={sum(walls):.3f} s "
             f"round walls={[round(w, 3) for w in walls]}"]
    lines += [f"  {k:12s} {v:14.6g} {unit}" for k, (v, unit) in metrics.items()]
    lines.append(f"  op_ref_tail and op_ms_tail are p{pct:.1f} of {samples} ops "
                 f"({TAIL_BEYOND} above it)")
    return lines + failure_report(records)


def trace_report(records: list, spans: list, metrics: dict, plain_s: float,
                 traced_s: float) -> list:
    """Per-span table (calls, busy, self, share of traced wall, target
    metric), tracing overhead, per-layer metrics and failures."""
    lines = [f"traced round 0: wall {traced_s:.3f} s, {len(spans)} spans",
             f"  {'span':42s} {'calls':>6s} {'busy_s':>9s} {'self_s':>9s} {'share':>7s}  target"]
    selves = self_times(spans)
    for name, (busy, own) in sorted(selves.items(), key=lambda kv: -kv[1][1]):
        calls = sum(s["name"] == name for s in spans)
        target = LAYERS.get(name, "benchmark checks and reference kernel (self time)")
        lines.append(f"  {name:42s} {calls:6d} {busy:9.4f} {own:9.4f} "
                     f"{own / traced_s:7.2%}  {target}")
    over = traced_s - plain_s
    lines.append(f"tracing overhead: traced {traced_s:.4f} s - plain {plain_s:.4f} s "
                 f"= {over:+.4f} s ({over / plain_s:+.2%})")
    lines += [f"  {k:54s} {v:14.6g} {unit}" for k, (v, unit) in metrics.items()]
    return lines + failure_report(records)


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
