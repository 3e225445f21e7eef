"""Monic minimal polynomials on interval unions via a Remez exchange.

The solve runs on the hull normalized to [-1, 1]; deviations are affinely
covariant, L_n(s E + t) = |s|^n L_n(E), which is how results return to the
original frame.  Each iterate is the leveled interpolant on the reference,
in the barycentric form of `leveled`, whose evaluation error on the set does
not grow with the size of M in the gaps.  One pass over the reference nodes
(`leveled.leveled`) gives its weights and level, M' at every node and M'' at
the interior ones.  Every iteration first seeks the extrema from the
reference nodes (`_node_extrema`): M has one zero between consecutive nodes
and M' one between consecutive zeros of M, so |M| has one peak near each
node, which Newton from the node finds, or the search declines.  It
certifies the first iterate on an inverse image, whose first reference is
its minimizer's extrema, and the later iterates once the exchange
converges.  Up to degree EIG_MAX the pencil search (`_pencil_extrema`) then
takes all n - 1 zeros of M' from one eigenvalue solve of its barycentric
companion pencil on n of the node values of M' (`leveled.critical_points`,
after Pachon & Trefethen's barycentric Remez, BIT 2009, and Lawrence &
Corless, Numer. Algorithms 2014), with no Newton polish, or declines
where it does not give n - 1 real zeros.  Above EIG_MAX, and where the
pencil declines, the interlaced search (`_interlaced_extrema`) takes the
zeros of M, then of M', from two symmetric eigenvalue solves
(`leveled.interlaced_zeros`), always real, and polishes those in the set by
one Newton step; it never declines.  Each search hands its candidates to
`_next_reference`, which keeps one extremum per sign run of M and so
enforces the alternation.  `blow_up_set` reads C' gap by gap between the
zeros of M and M' of one interlaced solve, with no grid, through the first
barycentric form (`leveled.gap_terms`), and `evaluate` reads M through that
form everywhere.  Monomial coefficients of near-minimal polynomials grow
exponentially with the degree, so `poly` is for reporting only.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from . import leveled
from .chebpoly import DEGREE_CAP, ChebExpansion, Polynomial, to_monomial
from .errors import ChebcapError, ConvergenceError, DegreeCapError, InvalidInputError
from .intervals import AffineMap, IntervalUnion, is_subset, normalize

MAX_ITER = 200
LEVEL_TOL = 1e-12
# A stalled iteration (no new best leveling gap for STALL_COUNT iterations)
# is accepted at the best iterate, with the honest gap in `residual`, as long
# as that gap reached STALL_ACCEPT.  The barycentric evaluation reaches
# LEVEL_TOL on the fixtures up to the degree cap; what is left to stall on is
# a reference whose Lebesgue function on the set amplifies rounding beyond it.
STALL_ACCEPT = 1e-6
STALL_COUNT = 10
# A quantile within this of 0 or 1 is its interval's end: a rounded j/n at an
# interval's cumulative mass is a few ulps off, and the point is then some
# rad (c q)^2 / 2 from the end (c = d angle / dq, pi on one interval), far
# below an ulp of the radius.
END_SNAP = 1e-12
# A node's first Newton step toward its extremum must be within this
# fraction of the smaller neighbouring node spacing; the second step is then
# of order NODE_STEP^2 of it, and must change M by under an ulp of h.
NODE_STEP = 1e-3
# Up to this degree an iteration that the node search does not certify takes
# its critical points from the companion pencil (`leveled.critical_points`),
# above it from the interlaced solve (`leveled.interlaced_zeros`).  At
# n <= 20 an interlaced call, node pass included, took 1.37x (n = 11..20) to
# 1.61x (n = 2..5) the pencil's time, and 360 solves 1.22x as long with
# EIG_MAX = 0; from n = 24 to 48 it took 0.92x to 1.07x (2-core x86-64 VM).
EIG_MAX = 30
# Points of the grid on which the witness takes the sup of |M|.
WITNESS_GRID = 2000
# |M| peaks on a gap end, and not in the gap, where a Newton step on M'/M
# from the end would move log|M| by less than this; |M| is stationary there.
PEAK_TOL = 1e-14
# Passes of a blow-up set's crossing search before it is a numerical
# failure; on the fixtures none takes more than 4.
GAP_PASSES = 100
# An ulp of the normalized hull's radius: a point past an interval end by
# less is on it.
_ULP = math.ulp(1.0)


@dataclass(frozen=True)
class MinimalPolyResult:
    """Monic minimizer of the sup norm on a union of intervals.

    Numerical work should use `evaluate`, which reads the leveled
    interpolant of the final reference in the normalized frame: its `nodes`,
    scaled barycentric `weights` and `level` h, with M(nodes[j]) = +-h.
    `residual` is the leveling gap sup|M| - min leveled |M| at acceptance, in
    original-frame units; the reported deviation is the actual sup of M on
    the set, so the true minimum deviation lies within residual below it.
    `poly`, the monomial coefficients in the original frame, for reporting,
    is computed from the reference on first read.
    """

    deviation: float
    alternation_points: tuple
    iterations: int
    residual: float
    frame: AffineMap
    hull_scale: float
    nodes: tuple
    weights: tuple
    level: float

    @property
    def degree(self) -> int:
        return len(self.nodes) - 1

    @functools.cached_property
    def poly(self) -> Polynomial:
        cheb = ChebExpansion(tuple(_solve_on_reference(np.array(self.nodes), self.degree)[0]))
        mono = (self.hull_scale * to_monomial(cheb).compose_affine(self.frame)).coeffs
        return Polynomial(tuple(mono[:-1]) + (1.0,))  # snap the monic lead exactly

    def evaluate(self, x):
        """M_n(x) from the first barycentric form of the final reference
        (`leveled.first_form`), whose error is a small multiple of n eps |M|
        everywhere but next to a zero of M: on the set, deep in its gaps and
        outside the hull, where a value beyond the float range is inf.
        """
        t = self.frame(np.asarray(x, dtype=float))
        return (self.hull_scale * _leveled_values(self, t.ravel()).reshape(t.shape))[()]


@dataclass(frozen=True)
class BlowUpResult:
    """Inverse image C' of [-L, L] under the minimal polynomial (its superset sandwich)."""

    c_prime: IntervalUnion
    ell_prime: int


@dataclass(frozen=True)
class WitnessReport:
    """Grid and re-solve evidence that a result is the minimal polynomial;
    `sandwich_error` names a re-solve's error and C''s narrowest width."""

    sup_ok: bool
    alternation_ok: bool
    sandwich_applicable: bool
    sandwich_ok: bool
    sup_excess: float
    sandwich_deviation_diff: float
    sandwich_error: Optional[str] = None

    @property
    def passed(self) -> bool:
        ok = self.sup_ok and self.alternation_ok
        return ok and (self.sandwich_ok or not self.sandwich_applicable)


def _init_reference(e: IntervalUnion, n: int) -> np.ndarray:
    """n+1 starting points at the quantiles j/n, j = 0..n, of e's equilibrium
    measure, all at once: each goes to the interval whose cumulative mass
    holds it, where the angle at which the distribution function reaches q
    is the Chebyshev series in 2q - 1 of its row of `leveled.equilibrium`'s
    coefficients.  One product, cos(t k) @ theta^T, sums every row at every
    point, each point takes its interval's column and is clipped to the
    interval.  On an inverse image P^{-1}([-1, 1]) the measure is the
    pullback of the arcsine measure, so at multiples of deg P these are the
    minimizer's extrema to rounding, and the first iterate is leveled; on a
    single interval they are the Chebyshev-Lobatto points.
    A q within END_SNAP of 0 or 1 is the interval's end exactly: mid + rad
    may round to one ulp inside it, and a rounded j/n short of an interval's
    cumulative mass gives a point a few ulps inside."""
    mass, cum, theta = leveled.equilibrium(e.endpoints)
    targets = np.arange(n + 1) * (cum[-1] / n)
    targets[-1] = cum[-1]  # exactly, so every target has an interval
    piece = np.searchsorted(cum, targets)
    q = (targets - (cum - mass)[piece]) / mass[piece]
    ends = np.array(e.endpoints)
    lo, hi = ends[0::2][piece], ends[1::2][piece]
    t = np.arccos(np.minimum(np.maximum(2.0 * q - 1.0, -1.0), 1.0))
    angle = (np.cos(t[:, None] * np.arange(theta.shape[1])) @ theta.T)[np.arange(n + 1), piece]
    x = np.minimum(np.maximum(0.5 * ((lo + hi) - (hi - lo) * np.cos(angle)), lo), hi)
    return np.where(q <= END_SNAP, lo, np.where(q >= 1.0 - END_SNAP, hi, x))


def _solve_on_reference(u: np.ndarray, n: int):
    """Leveled interpolation: M(u_j) = s_j h with M monic of degree n.

    Monic in the monomial sense pins the top Chebyshev coefficient at 2^(1-n),
    so the unknowns are b_0..b_{n-1} and the signed level h.
    """
    s = np.array([1.0 if (n - j) % 2 == 0 else -1.0 for j in range(n + 1)])
    top = 2.0 ** (1 - n) if n >= 1 else 1.0
    v = npcheb.chebvander(u, n)
    a = np.empty((n + 1, n + 1))
    a[:, :n] = v[:, :n]
    a[:, n] = -s
    rhs = -top * v[:, n]
    sol = np.linalg.solve(a, rhs)
    coeffs = np.concatenate([sol[:n], [top]])
    return coeffs, float(sol[n]), s


def _interlaced_extrema(ends: np.ndarray, u, w, h):
    """The interval ends `ends` and the zeros of M' inside an interval, and M
    at them, as two arrays, unsorted.  The zeros of `leveled.interlaced_zeros`
    are real but a few eps off, much of a node spacing in a component a few
    1e-6 wide, so each takes one Newton step on M', clipped to its interval,
    from one order-2 `leveled.evaluate` at them and the ends; M there is that
    pass's Taylor value (M is stationary there).  A zero that the step puts
    on an end is that end's candidate."""
    crit = leveled.interlaced_zeros(u, w)[1]
    piece = np.searchsorted(ends, crit)
    inside = piece % 2 == 1
    crit, piece = crit[inside], piece[inside]
    k = len(crit)
    m, dm, d2m = leveled.evaluate(np.concatenate((crit, ends)), u, w, h, 2)
    lo, hi = ends[piece - 1], ends[piece]
    dm, d2m = dm[:k], d2m[:k]
    with np.errstate(divide="ignore", invalid="ignore"):  # M'' = 0: a step to an end
        step = np.where(dm == 0.0, 0.0, -dm / d2m)
    x = np.minimum(np.maximum(crit + step, lo), hi)
    dx = x - crit
    keep = (lo < x) & (x < hi)
    return (np.concatenate((ends, x[keep])),
            np.concatenate((m[k:], (m[:k] + dx * (dm + 0.5 * dx * d2m))[keep])))


def _pencil_extrema(ends: np.ndarray, u, w, h, d1):
    """The candidates of `_interlaced_extrema` from the zeros of M' that
    `leveled.critical_points` finds from M' at the nodes (d1), and M at
    them from one order-0 `leveled.evaluate`, as two arrays; None where the
    pencil does not give n - 1 real zeros.  The zeros need no Newton polish:
    M is stationary there, and they are within about 1e-11 of the node
    spacing of the polished ones."""
    crit = leveled.critical_points(u, w, d1)
    if crit is None:
        return None
    xs = np.concatenate((ends, crit[np.searchsorted(ends, crit) % 2 == 1]))
    return xs, leveled.evaluate(xs, u, w, h, 0)[0]


def _node_extrema(ends: np.ndarray, u, w, h, d1, d2):
    """The candidates of `_interlaced_extrema` found from the reference nodes
    alone, on the union with the endpoints `ends`, or None where they cannot
    be certified that way.  d1 and d2 are M' at every node and M'' at the
    interior ones, from `leveled.leveled`.

    M(u_j) = s_j h alternates in sign, so the degree-n M has one zero z_j in
    each (u_j, u_{j+1}), and M' has one zero c_j in each window
    (z_{j-1}, z_j), j = 1..n-1, and none outside them: |M| is unimodal on
    each window, with its peak at c_j, and monotone beyond z_0 and z_{n-1}.
    So the interior critical points on the set are the c_j that lie inside
    an interval, and each is sought from u_j alone.

    A node inside an interval takes one Newton step on M'.  The step must
    be within NODE_STEP of the smaller neighbouring node spacing, M'' must
    make the point a peak of |M|, and the point must stay in the interval;
    a point past its end by less than an ulp of the hull's radius 1 is that
    end, where the rounding of the step puts a peak that sits on the end.
    One batched `leveled.evaluate` at the Newton points and all interval
    ends (an end on a node takes s_j h there exactly) then gives a second
    step; M must have the node's sign there, the point must still be in the
    interval, and M' times the step must be within an ulp of h, so the
    second-order Taylor value taken there is off by far less (M'' at the
    node is within about NODE_STEP of M'' at the point).  The point has the node's sign and lies
    within a small part of a node spacing of u_j, so it is c_j.

    A node on an interval end is certified when |M| grows out of the set
    there, so c_j lies beyond it, or when M'' makes the node a peak of |M|
    and the Newton step -M'/M'' is within an ulp, so c_j is the node, as a
    point within an ulp past an end is that end; and at the gap's other end
    a' either M has the other sign (a' is past z_j, as a node there is) or
    |M| falls into a''s interval (c_j lies in the gap).  The end nodes u_0
    and u_n need nothing.  The candidates are the interval ends and the c_j
    found inside an interval, and M at them, as two arrays: a c_j on an end
    is that end's candidate, as in the interlaced search.

    The same windows give every reference that follows n + 1 sign runs.
    The window of u_j holds a candidate of u_j's sign with |M| >= h: c_j if
    it lies in the set, else the end of u_j's interval between u_j and c_j,
    up to which |M| grows from h.  Beyond z_0 and z_{n-1} that candidate is
    the hull's end.  The windows are disjoint and ordered, so these n + 1
    candidates alternate in sign, and `_next_reference` finds at least
    n + 1 runs among the candidates of either search, as long as it finds
    every critical point on the set.

    The nodes are checked in one Python pass before the evaluation and one
    after it, as `_gap_search` keeps its cells: the same checks on arrays
    take some sixty small numpy calls, whose fixed cost is most of the work
    at these sizes (the search took twice as long at n = 10 that way, 1.1x
    as long at n = 48 and 0.8x at n = 100).
    """
    n = len(u) - 1
    e = ends.tolist()
    ul = u.tolist()
    nodes = zip(ends.searchsorted(u[1:-1]).tolist(), ul[:-2], ul[1:-1], ul[2:],
                d1[1:-1].tolist(), d2.tolist())
    s = -1.0 if n % 2 else 1.0  # s_0, the sign of M(u_0)
    points, inner, edges = [], [], []
    for p, left, x0, right, m1, m2 in nodes:  # x0 lies in (e[p - 1], e[p]]
        s = -s
        hi = e[p]
        if hi == x0:  # on an end: |M| grows out of the set there, or peaks on it
            out = 1.0 if p & 1 else -1.0
            if not (s * m1 * out > 0.0 or (s * m2 < 0.0 and abs(m1) <= _ULP * abs(m2))):
                return None
            edges.append((s, p + int(out), out))  # the gap's other end a'
            continue
        lo = e[p - 1]
        x = x0 - m1 / m2 if s * m2 < 0.0 else math.nan  # no peak of |M|: refused below
        spacing = x0 - left if x0 - left < right - x0 else right - x0
        if not (abs(x - x0) <= NODE_STEP * spacing and lo - _ULP <= x <= hi + _ULP):
            return None
        points.append(lo if x < lo else hi if x > hi else x)
        inner.append((s, m2, lo, hi))
    k = len(points)
    m, dm = (v.tolist() for v in leveled.evaluate(np.array(points + e), u, w, h, 1))
    ulp_h = math.ulp(h)
    xs, vals = e, m[k:]
    for x, mx, dmx, (s, m2, lo, hi) in zip(points, m, dm, inner):
        step = -dmx / m2
        x += step
        if not (s * mx > 0.0 and abs(step * dmx) <= ulp_h and lo - _ULP <= x <= hi + _ULP):
            return None
        if lo < x < hi:  # a point on or past an end is that end's candidate
            xs.append(x)
            vals.append(mx + 0.5 * step * dmx)
    for s, far, out in edges:
        if not (s * m[k + far] < 0.0 or s * dm[k + far] * out < 0.0):
            return None
    return np.array(xs), np.array(vals)


def _next_reference(xs: np.ndarray, vals: np.ndarray, m: int) -> np.ndarray:
    """The next reference from the candidate points xs with their M values
    vals: in ascending order, a point within 1e-14 of the last one kept and
    a zero of M are skipped, each run of one sign keeps its largest |M|
    (the leftmost on ties), and the run at whichever end has the smaller
    |M| (the left on ties) is dropped until m remain.

    Fewer than m sign runs cannot happen in exact arithmetic (see
    `_node_extrema`), so it raises ConvergenceError rather than exchange a
    reference that does not alternate.
    """
    runs = []  # (x, M) of the largest |M| in each sign run so far
    last = -math.inf
    for x, v in sorted(zip(xs.tolist(), vals.tolist())):
        if x - last <= 1e-14:
            continue
        last = x
        if v == 0.0:
            continue
        if runs and (v > 0.0) == (runs[-1][1] > 0.0):
            if abs(v) > abs(runs[-1][1]):  # strict: the leftmost wins ties
                runs[-1] = (x, v)
        else:
            runs.append((x, v))
    if len(runs) < m:
        raise ConvergenceError(f"the extremum search found {len(runs)} sign runs of M, "
                               f"fewer than the n + 1 = {m} a reference alternates over")
    lo, hi = 0, len(runs)
    while hi - lo > m:
        if abs(runs[lo][1]) <= abs(runs[hi - 1][1]):
            lo += 1
        else:
            hi -= 1
    return np.array([x for x, _ in runs[lo:hi]])


def minimal_polynomial(c: IntervalUnion, n: int) -> MinimalPolyResult:
    """Monic polynomial of degree n minimizing the sup norm on c.

    Convergence is a relative leveling gap below LEVEL_TOL within MAX_ITER
    iterations; iterations that stall above it are accepted at the best
    iterate once the gap is below STALL_ACCEPT, and the achieved gap is
    reported in `residual`.  Degrees above DEGREE_CAP are refused.  An
    extremum search that leaves fewer than n + 1 sign runs of M, which
    cannot happen in exact arithmetic (see `_node_extrema`), raises
    ConvergenceError with the run count, carrying the best iterate so far.
    A hull radius whose n-th power overflows, or a deviation below the
    normal double range, raises InvalidInputError.
    """
    if n < 1:
        raise InvalidInputError("degree must be at least 1")
    if n > DEGREE_CAP:
        raise DegreeCapError(f"degree {n} exceeds cap {DEGREE_CAP}")
    cn, fwd = normalize(c)
    rad = 1.0 / fwd.scale
    try:
        hull_scale = rad**n
    except OverflowError:
        raise InvalidInputError(f"the hull radius {rad:.6g} to the power n = {n} "
                                f"overflows a double") from None

    u = _init_reference(cn, n)
    ends = np.array(cn.endpoints)
    best = None
    best_gap = math.inf
    stall = 0
    for it in range(1, MAX_ITER + 1):
        w, h, d1, d2 = leveled.leveled(u)
        cands = _node_extrema(ends, u, w, h, d1, d2)
        if cands is None and n <= EIG_MAX:
            cands = _pencil_extrema(ends, u, w, h, d1)
        if cands is None:
            cands = _interlaced_extrema(ends, u, w, h)
        emax = float(np.abs(cands[1]).max())
        gap = max(emax - h, 0.0)
        gap_rel = gap / emax if emax > 0 else 0.0
        if gap_rel < best_gap:
            best_gap, best, stall = gap_rel, (u, w, h, emax, gap, it), 0
        else:
            stall += 1
        if gap_rel <= LEVEL_TOL:
            break
        if stall >= STALL_COUNT and best_gap <= STALL_ACCEPT:
            break
        try:
            u = _next_reference(*cands, n + 1)
        except ConvergenceError as exc:
            exc.last_iterate = _finalize(best, fwd, hull_scale) if best else None
            raise
    else:
        last = _finalize(best, fwd, hull_scale) if best else None
        raise ConvergenceError(
            f"leveling gap {best_gap:.3e} after {MAX_ITER} iterations (degree {n})",
            last_iterate=last,
        )
    result = _finalize(best, fwd, hull_scale)
    if result.deviation < sys.float_info.min:
        raise InvalidInputError(f"the deviation {result.deviation:.3g} at n = {n} on the hull radius "
                                f"{rad:.6g} is below the normal double range")
    return result


def _finalize(state, fwd, hull_scale) -> MinimalPolyResult:
    u, w, h, emax, gap, it = state
    return MinimalPolyResult(
        deviation=hull_scale * emax,
        alternation_points=tuple(fwd.inverse()(u).tolist()),
        iterations=it,
        residual=hull_scale * gap,
        frame=fwd,
        hull_scale=hull_scale,
        nodes=tuple(u.tolist()),
        weights=tuple(w.tolist()),
        level=h,
    )


def _normalized_endpoints(c: IntervalUnion, result: MinimalPolyResult) -> list:
    """c's endpoints in the result's normalized frame, the hull snapped to
    [-1, 1]; refuses a c whose hull is not the one the result was solved on."""
    pts = [result.frame(x) for x in c.endpoints]
    tol = 1e-12 * (1.0 + abs(result.frame.shift))  # the frame map's rounding
    if abs(pts[0] + 1.0) > tol or abs(pts[-1] - 1.0) > tol:
        raise InvalidInputError("the result was not solved on the hull of this set")
    pts[0], pts[-1] = -1.0, 1.0
    return pts


def _leveled_values(result: MinimalPolyResult, t: np.ndarray) -> np.ndarray:
    """M at normalized-frame points t, from the result's leveled interpolant."""
    return leveled.first_form(t, np.array(result.nodes), np.array(result.weights), result.level)


def _gap_search(cells, u, w, loglev):
    """The level crossings of `blow_up_set`, one `leveled.gap_terms` pass
    over all open cells at a time.  A cell is [below_at_lo, key, lo, hi, x]:
    |M| crosses the level once in the bracket (lo, hi), from below it at lo
    if below_at_lo and at hi otherwise, and x is the next point to read.
    Each point moves one end of the bracket to it by the sign of
    log|M| - loglev, and a step that would leave the bracket is a bisection.
    A cell stops on its step once the step's own error is a few ulps, or once
    |M| is within its rounding bound of the level or is rounding noise.
    Returns {key: crossing}.  The brackets are kept in a Python pass: on so
    few cells numpy's per-call cost is most of the work (on arrays the
    blow-up set took 1.3x as long).
    """
    for cell in cells:
        if not cell[2] < cell[4] < cell[3]:  # also a nan start
            cell[4] = 0.5 * (cell[2] + cell[3])
    found = {}
    for _ in range(GAP_PASSES):
        if not cells:
            return found
        x = np.array([cell[4] for cell in cells])
        logm, g, dg, _, noise = leveled.gap_terms(x, u, w)
        if np.isnan(logm).any():
            raise ConvergenceError("the gap search of the blow-up set read M as nan")
        f = logm - loglev
        steps = -2.0 * f / (g + np.copysign(np.sqrt(np.maximum(g * g - 2.0 * f * dg, 0.0)), g))
        small = np.abs(dg) * steps * steps <= 8.0 * np.spacing(np.abs(x + steps)) * np.abs(g)
        rows = zip(cells, *(v.tolist() for v in (f, noise, steps, small)))
        cells = []
        for cell, fx, nz, step, sm in rows:
            below_at_lo, key, lo, hi, xx = cell
            lo, hi = (xx, hi) if (fx <= 0.0) == below_at_lo else (lo, xx)
            nxt, mid = xx + step, 0.5 * (lo + hi)
            if nz >= 1.0 or abs(fx) <= nz or sm or mid == lo or mid == hi:
                found[key] = xx if nz >= 1.0 else min(max(nxt, lo), hi)
            else:
                cell[2:] = lo, hi, nxt if lo < nxt < hi else mid
                cells.append(cell)
    raise ConvergenceError(f"the gap search of the blow-up set took {GAP_PASSES} passes")


def _gap_cuts(ends: np.ndarray, u, w, h, level: float) -> list:
    """The ends of C' inside the hull, in ascending order, for the gaps of E
    with endpoints `ends` (the hull's ends left out); see `blow_up_set`."""
    loglev = math.log(level)
    m, d1, d2 = leveled.evaluate(ends, u, w, h, 2)
    g = d1 / m
    dg = d2 / m - g * g
    f = np.log(np.abs(m)) - loglev
    step = -2.0 * f / (g + np.copysign(np.sqrt(np.maximum(g * g - 2.0 * f * dg, 0.0)), g))
    into = np.where(f < 0.0, ends + step, ends).tolist()  # each end's crossing start
    flat = (g * g <= PEAK_TOL * -dg).tolist()  # |M| peaks on the end, to rounding
    # The stops: (x, crossing start below x, start above x, peak, flat), the peak being
    # (log|M| - log L less its rounding bound, g, g') at a peak above L, else None.
    e = ends.tolist()
    stops = [(x, start, start, None, fl) for x, start, fl in zip(e, into, flat)]
    z, crit = leveled.interlaced_zeros(u, w)
    x = np.concatenate((z, crit))
    k = ends.searchsorted(x, "right")  # 2i + 1 inside the i-th gap (b, a), or on b
    inside = (k % 2 == 1) & (x > ends[k - 1])
    x, k, is_z = x[inside], k[inside], np.flatnonzero(inside) < len(z)
    logm, g, dg, log_dm, noise = leveled.gap_terms(x, u, w)
    if np.isnan(logm).any():
        raise ConvergenceError("the gap search of the blow-up set read M as nan")
    rows = zip(x.tolist(), k.tolist(), is_z.tolist(), (logm - loglev - noise).tolist(),
               g.tolist(), dg.tolist(), log_dm.tolist(), noise.tolist())
    for xx, j, zero, fx, gx, dgx, ldm, nz in rows:
        if zero:  # M/M' is z's Newton correction, and the tangent there runs L/|M'| to L
            ratio = 1.0 / gx if nz < 1.0 and gx else 0.0
            reach = math.exp(loglev - ldm)
            stops.append((xx, min(xx - reach - ratio, math.nextafter(xx, -math.inf)),
                          max(xx + reach - ratio, math.nextafter(xx, math.inf)), None, False))
            continue
        step = -gx / dgx if dgx < 0.0 else 0.0  # onto the peak, kept in the gap
        if e[j - 1] < xx + step < e[j]:  # log|M| there up to g' step^2 / 2
            xx, fx, gx = xx + step, fx + 0.5 * gx * step, 0.0
        if fx > 0.0:
            stops.append((xx, None, None, (fx, gx, dgx), False))
    # |M| is monotone between consecutive stops; a peak beside a flat gap end is the end's.
    stops.sort(key=lambda stop: stop[0])
    stops = [s for i, s in enumerate(stops) if not (s[3] and (stops[i - 1][4] or stops[i + 1][4]))]
    cuts, cells = [], []
    for left, right in zip(stops, stops[1:]):
        if (left[3] is None) == (right[3] is None):
            continue  # |M| does not cross L between two stops on one side of it
        # The crossing between a peak above L and a stop below it, from the stop's start:
        # a gap end with |M| at the level already is its own crossing.
        rising = right[3] is not None
        inner, start = (left[0], left[2]) if rising else (right[0], right[1])
        p, (value, g_p, dg_p) = (right[0], right[3]) if rising else (left[0], left[3])
        if start == inner:
            cuts.append(inner)
            continue
        # The crossing of the second-order expansion at p, toward inner, where that is
        # nearer p than the start is to inner: a peak barely above the level.
        if dg_p < 0.0:
            step_p = (g_p + math.copysign(math.sqrt(g_p * g_p - 2.0 * value * dg_p),
                                          inner - p)) / -dg_p
            start = p + step_p if abs(step_p) < abs(start - inner) else start
        cells.append([rising, len(cuts), left[0], right[0], start])
        cuts.append(math.nan)
    for key, cut in _gap_search(cells, u, w, loglev).items():
        cuts[key] = cut
    return cuts


def blow_up_set(c: IntervalUnion, result: MinimalPolyResult) -> BlowUpResult:
    """C' = M_n^{-1}([-L, L]), the largest set on which M_n stays minimal.

    Read gap by gap from the result's leveled interpolant in the normalized
    frame, with no grid, by the interlacing argument of `_node_extrema`.  The
    n zeros of M are real and interlace the nodes, which lie in E, so a gap
    (b, a) holds at most one zero z, and M' has one zero between consecutive
    zeros of M.  log|M| = sum_i log|x - z_i| is strictly concave between
    zeros, so each zero of M' is a peak of |M|, and |M| is monotone between
    consecutive points of {b, peak, z, peak, a} (those in the gap).  Each
    piece from a point below L to a peak above it holds one crossing of
    |M| = L, which Newton on log|M| - log L approaches from below L without
    passing it.  So C' is E plus every monotone piece up to its crossing:
    its ends inside the hull are the crossings in order, with no merge
    tolerance and no level test.

    The zeros of M and M' in the gaps come from one `leveled.interlaced_zeros`
    solve, and one `leveled.gap_terms` pass reads them: at z its Newton
    correction M/M' and log|M'|, at a zero of M' one Newton step on g = M'/M
    onto the peak and the peak's log|M| to second order, less M's rounding
    bound.  A peak beside a gap end where g^2 <= PEAK_TOL (-g') is the end's
    own, within rounding, and is dropped.  Each crossing (`_gap_search`) is
    then the root of the second-order Taylor expansion of log|M| - log L,
    quadratic also next to a peak barely above L, from its gap end (which is
    the crossing where |M| is not below L there) or from where the tangent
    at z reaches L, at least a float from z (z lies in C' whatever the
    rounding), or from the crossing of the peak's own expansion where that
    is nearer.  A crossing stops on its step within M's rounding bound or
    once the step's own error is a few ulps.  Inside the gaps M is read from
    the first barycentric form, which is forward stable there (Higham, IMA
    J. Numer. Anal. 2004), where the second is noise: in a gap of 10 T_3 at
    n = 40 it has the wrong sign at 116 of 399 points; at the gap ends, on
    E, from the second.
    """
    n = result.degree
    pts = np.array(_normalized_endpoints(c, result))
    edges = pts[[0, -1]]
    if len(pts) > 2:
        with np.errstate(divide="ignore", invalid="ignore"):
            cuts = _gap_cuts(pts[1:-1], np.array(result.nodes), np.array(result.weights),
                             result.level, result.deviation / result.hull_scale)
        edges = np.concatenate((pts[:1], cuts, pts[-1:]))
    ends = result.frame.inverse()(edges)
    keep = ends[0::2] < ends[1::2]  # a band around z narrower than an ulp of the original frame
    c_prime = IntervalUnion(tuple(ends.reshape(-1, 2)[keep].ravel().tolist()))
    if not is_subset(c, c_prime, tol=1e-8):
        raise ConvergenceError("blow-up set does not contain the input set", last_iterate=c_prime)
    if not 1 <= c_prime.ell <= n:
        raise ConvergenceError(f"blow-up produced {c_prime.ell} intervals for degree {n}",
                               last_iterate=c_prime)
    return BlowUpResult(c_prime=c_prime, ell_prime=c_prime.ell)


def minimality_witness(c: IntervalUnion, result: MinimalPolyResult) -> WitnessReport:
    """Check the two alternation facts and the sandwich invariance of L_n.

    The sup is taken on about WITNESS_GRID points over c in the normalized
    frame, with the hull snapped to [-1, 1]: mapped through the frame, the
    hull of a set far from the origin lands just outside it, where |M|
    already exceeds L.
    The sandwich: the blow-up set C' contains C and has the same minimal
    polynomial and deviation, up to 1e-8 relative plus the residual of each
    solve (a stall-accepted deviation may sit that far above L_n).  It is
    checked by solving again on C'; a C' that does not contain c to 1e-9 is
    reported as not applicable rather than a failure, and a re-solve that
    raises is reported in `sandwich_error`, with the sandwich not ok.
    """
    n = result.degree
    dev = result.deviation
    slack = result.residual + 1e-12 * dev

    pts = _normalized_endpoints(c, result)
    lengths = [b - a for a, b in c.intervals]
    total = sum(lengths)
    grid = np.concatenate([np.linspace(a, b, max(16, int(WITNESS_GRID * w / total)))
                           for a, b, w in zip(pts[0::2], pts[1::2], lengths)])
    sup = result.hull_scale * float(np.max(np.abs(_leveled_values(result, grid))))
    sup_excess = max(0.0, sup - dev)
    sup_ok = sup_excess <= slack

    vals = result.evaluate(np.array(result.alternation_points))
    signs_ok = all(
        (v > 0) == ((n - j) % 2 == 0) and v != 0.0 for j, v in enumerate(vals)
    )
    level_ok = bool(np.max(np.abs(np.abs(vals) - dev)) <= slack + 1e-9 * dev)
    alternation_ok = signs_ok and level_ok

    c_prime = blow_up_set(c, result).c_prime
    applicable = is_subset(c, c_prime, tol=1e-9)
    diff = math.inf
    sandwich_ok = False
    error = None
    if applicable:
        try:
            again = minimal_polynomial(c_prime, n)
        except ChebcapError as exc:
            width = min(b - a for a, b in c_prime.intervals)
            error = f"{type(exc).__name__}: narrowest component of C' {width:.3g} wide"
        else:
            diff = abs(again.deviation - dev)
            sandwich_ok = diff <= (1e-8 * max(dev, again.deviation)
                                   + result.residual + again.residual)
    return WitnessReport(
        sup_ok=sup_ok,
        alternation_ok=alternation_ok,
        sandwich_applicable=applicable,
        sandwich_ok=sandwich_ok,
        sup_excess=sup_excess,
        sandwich_deviation_diff=diff,
        sandwich_error=error,
    )
