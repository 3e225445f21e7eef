"""Monic minimal polynomials on interval unions via a Remez exchange.

The solve runs on the hull normalized to [-1, 1] by `intervals.normalize`,
whose map is within 1 ulp on a hull far from the origin too; deviations are
affinely covariant, L_n(s E + t) = |s|^n L_n(E), which is how results return
to the original frame, where a reported point carries a relative rounding
of ulp(max |x|) / rad on the hull.  Each iterate is the leveled interpolant
on the reference,
in the barycentric form of `leveled`, whose evaluation error on the set does
not grow with the size of M in the gaps.  One pass over the reference nodes
(`leveled.leveled`) gives its weights and level, M' at every node and M''
at the interior ones.  Every iteration then makes one pass over the
interior nodes (`_node_pass`): M has one zero between consecutive nodes,
so |M| has one peak in each node's window between them, where log|M| is
strongly concave, and one Newton step from each node and one evaluation
there give a bound U on sup |M| (and the exchange's next candidates).
Where U is within LEVEL_TOL of the level h the exchange stops, with U as
the deviation.  Otherwise it moves on the pass's candidates with |M| >= h
(the barycentric exchange of Pachon & Trefethen, BIT 2009): an exchange
onto any alternating points where |M| >= h raises the level (de la Vallee
Poussin), so the move needs no certified extrema.  The interlaced search
(`_interlaced_extrema`) runs only where the pass cannot serve: where its
candidates lack a sign run, give back the reference or did not raise the
level on the last move, where the largest |M| it evaluated shows no gap
above LEVEL_TOL, at MAX_ITER, and on a set whose narrowest component is at
the rounding floor wherever U does not stop the exchange.  It takes the
zeros of M, then of M', from two symmetric eigenvalue solves
(`leveled.interlaced_zeros`), always real, and polishes those in the set by
one Newton step: every local maximum of |M| on the set.  Each search hands
its candidates to `_next_reference`, which keeps one extremum per sign run
of M and so enforces the alternation.  `blow_up_set` reads C' gap by gap
between the zeros of M and M' of one interlaced solve, with no grid,
through the first barycentric form (`leveled.gap_terms`), and `evaluate`
reads M through that form everywhere.  The result caches that solve and
each C', which `minimality_witness` shares.  Monomial coefficients of
near-minimal polynomials grow exponentially with the degree, so `poly` is
for reporting only.
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

# Each exchange raises the level in exact arithmetic (de la Vallee Poussin),
# so only rounding stops it short of LEVEL_TOL; at MAX_ITER the smallest-gap
# iterate is accepted, its gap in `residual`, if that gap is at most
# STALL_ACCEPT (1e5 T_3 at n = 39 cycles between gaps 3.6e-9 and 1.7e-8).
MAX_ITER = 200
LEVEL_TOL = 1e-12
STALL_ACCEPT = 1e-6
# A quantile within this of 0 or 1 is its interval's end: a rounded j/n at an
# interval's cumulative mass is a few ulps off, and the point is then some
# rad (c q)^2 / 2 from the end (c = d angle / dq, pi on one interval), far
# below an ulp of the radius.
END_SNAP = 1e-12
# |M| peaks on a gap end, and not in the gap, where a Newton step on M'/M
# from the end would move log|M| by less than this; |M| is stationary there.
PEAK_TOL = 1e-14
# Passes of a blow-up set's crossing search before it is a numerical
# failure; on the fixtures none takes more than 4.
GAP_PASSES = 100
# An ulp of the normalized hull's radius; over a component's width, M's
# relative rounding there.
_ULP = math.ulp(1.0)


@dataclass(frozen=True)
class MinimalPolyResult:
    """Monic minimizer of the sup norm on a union of intervals.

    Numerical work should use `evaluate`, which reads the leveled
    interpolant of the final reference in the normalized frame: its `nodes`,
    scaled barycentric `weights` and `level` h, with M(nodes[j]) = +-h.
    `deviation` is the node pass's bound U on sup |M| on the set, an upper
    bound up to the evaluation's rounding, or where the interlaced search
    took the stop, the largest |M| at every local maximum; `residual` is the
    gap deviation - h at acceptance (above LEVEL_TOL only at MAX_ITER), in
    original-frame units.  h <= L_n <= sup |M| (de la Vallee Poussin), so
    the true minimum deviation lies within residual below the deviation,
    up to that rounding.  `iterations` counts the exchange iterations run:
    the accepted iterate is the last of them on convergence, and the
    smallest-gap one after MAX_ITER.
    `frame` is `intervals.normalize`'s map of the hull, within 1 ulp on a
    hull far from the origin, and `hull_scale` its rad^n;
    `alternation_points`, the nodes mapped back by `frame.inverse`, carry a
    relative rounding of ulp(max |x|) / rad.
    `poly`, the monomial coefficients in the original frame, for reporting,
    is computed from the reference on first read; `poly_rounding` says
    whether they describe M on the set.
    Cached the same way, read-only: the nodes and weights as arrays, the
    final reference's `leveled.interlaced_zeros` pair and the blow-up set of
    each input set, by its endpoints, which `blow_up_set` and
    `minimality_witness` share.
    """

    deviation: float
    alternation_points: tuple
    iterations: int
    residual: float
    frame: AffineMap
    nodes: tuple
    weights: tuple
    level: float

    @property
    def degree(self) -> int:
        return len(self.nodes) - 1

    @property
    def hull_scale(self) -> float:
        return self.frame.rad ** self.degree

    @functools.cached_property
    def poly(self) -> Polynomial:
        cheb = ChebExpansion(tuple(_solve_on_reference(self._reference[0], self.degree)[0]))
        # coefficients beyond the double range come out inf or nan, which
        # Polynomial refuses as invalid input
        with np.errstate(over="ignore", invalid="ignore"):
            mono = (self.hull_scale * to_monomial(cheb).compose_affine(self.frame)).coeffs
        return Polynomial(tuple(mono[:-1]) + (1.0,))  # snap the monic lead exactly

    @property
    def poly_rounding(self) -> float:
        """Horner's rounding bound for `poly` on the set over the deviation,
        eps sum |c_i| r^i / deviation with r the largest |x| on the hull:
        above 1 the coefficients do not describe M on the set."""
        r = max(abs(self.frame.lo), abs(self.frame.hi))
        noise = 0.0
        for c in reversed(self.poly.coeffs):
            noise = noise * r + abs(c)
        return sys.float_info.epsilon * noise / self.deviation

    @functools.cached_property
    def _reference(self) -> tuple:
        """(nodes, weights) as read-only arrays, in the normalized frame."""
        return leveled._read_only(np.array(self.nodes), np.array(self.weights))

    @functools.cached_property
    def _interlaced(self) -> tuple:
        """The zeros of M and of M' in the normalized frame, ascending, as
        read-only arrays from one `leveled.interlaced_zeros` solve."""
        return leveled._read_only(*leveled.interlaced_zeros(*self._reference))

    @functools.cached_property
    def _blow_ups(self) -> dict:
        return {}  # c.endpoints -> BlowUpResult, filled by `blow_up_set`

    def evaluate(self, x):
        """M_n(x) from the first barycentric form of the final reference
        (`leveled.first_form`), whose error is a small multiple of n eps |M|
        everywhere but next to a zero of M: on the set, deep in its gaps and
        outside the hull, where a value beyond the float range is inf.
        """
        t = self.frame(np.asarray(x, dtype=float))
        m = leveled.first_form(t.ravel(), *self._reference, self.level)
        return (self.hull_scale * m.reshape(t.shape))[()]


@dataclass(frozen=True)
class BlowUpResult:
    """Inverse image C' of [-L, L] under the minimal polynomial (its superset
    sandwich): `normalized` in the result's frame, and `c_prime` mapped out,
    each end with a relative rounding of ulp(max |x|) / rad on the hull."""

    c_prime: IntervalUnion
    ell_prime: int
    normalized: IntervalUnion


@dataclass(frozen=True)
class WitnessReport:
    """Sup, alternation and re-solve evidence of a minimal polynomial.
    `alternation_ok`: the sup's candidates with |M| at least the deviation
    less the slack hold n + 1 alternating sign runs; `sandwich_error` names
    a re-solve's error and C''s narrowest width."""

    sup_ok: bool
    alternation_ok: bool
    sandwich_ok: bool
    sup_excess: float
    sandwich_deviation_diff: float
    sandwich_error: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.sup_ok and self.alternation_ok and self.sandwich_ok


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


def _interlaced_extrema(ends: np.ndarray, u, w, h, crit):
    """The interval ends `ends` and the zeros of M' inside an interval, and M
    at them, as two arrays, unsorted: every local maximum of |M| on the set.
    The zeros `crit`, from the caller's `leveled.interlaced_zeros`, are real
    but a few eps off, much of a node spacing in a component a few 1e-6 wide,
    so each takes one Newton step on M', clipped to its interval, from one
    order-2 `leveled.evaluate` at them and the ends; M there is that pass's
    Taylor value (M is stationary there).  A zero stepped onto an end is the end."""
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


def _node_pass(ends: np.ndarray, u, w, h, d1, d2, move: bool):
    """One pass over the interior nodes: (U, low, candidates).  U bounds
    sup |M| on the union with the endpoints `ends`; low, the largest |M|
    evaluated, is a lower bound on it, and the candidates, as two arrays, are
    the exchange's next points, both None where U certifies the stop or
    `move` is false.  d1 and d2 are M' at every node and M'' at the interior
    ones, from `leveled.leveled`.

    M(u_j) = s_j h alternates in sign, so M has one zero z_j in each
    (u_j, u_{j+1}), and M' one zero in each window W_j = (z_{j-1}, z_j),
    j = 1..n-1, and none outside them: |M| is monotone beyond z_0 and
    z_{n-1}, so |M(-1)| and |M(1)| hold the sup there.  On W_j,
    (log|M|)'' = -sum_i 1/(x - z_i)^2 <= -8/d_j^2, d_j = u_{j+1} - u_{j-1},
    and strong concavity (Boyd & Vandenberghe, Convex Optimization, 9.1.2)
    bounds the window's peak by U_j = |M(x)| exp(g(x)^2 d_j^2 / 16),
    g = M'/M, at any x in (u_{j-1}, u_{j+1}) where M has u_j's sign, which
    puts x in W_j; U_j is inf at any other x.  x is one Newton step on g from
    the node, g' = M''/M - g^2 < 0 there, clipped to the box: the node's
    interval and the midpoints to its neighbours.  Where the step leaves the
    interval at its end e, and |M| grows out of the set there, the peak lies
    in the gap beyond e: the window's sup on the set is |M(e)| if M has the
    other sign at the gap's far end a' (a' lies past z_j), or the larger of
    |M(e)| and |M(a')| if |M| falls into a''s interval there.  U is the
    largest of |M(+-1)| and the U_j, from one order-1 `leveled.evaluate` at
    the points and the interval ends; it bounds the sup of the computed M up
    to the evaluation's rounding.

    Each candidate is a second Newton step on g from x, with M'' taken from
    the secant of M' between the node and x and M there its Taylor value;
    where that is not of the node's sign and at least h in modulus, x is
    the candidate if it is, else the node.  With u_0, u_n and the interval
    ends they hold n + 1 alternating sign runs, and every alternating
    reference on them with |M| >= h raises the level (de la Vallee Poussin).
    The pass runs in Python, as `_gap_search` keeps its cells: on arrays the
    same work takes some forty small numpy calls, whose fixed cost is most
    of an iteration at these sizes.
    """
    n = len(u) - 1
    e = ends.tolist()
    ul = u.tolist()
    pieces = (2 * ends[1::2].searchsorted(u[1:-1])).tolist()  # the node's interval starts at e[q]
    s = -1.0 if n % 2 else 1.0  # s_0, the sign of M(u_0)
    points, rows = [], []
    for q, left, x0, right, m1, m2 in zip(pieces, ul[:-2], ul[1:-1], ul[2:],
                                          d1[1:-1].tolist(), d2.tolist()):
        s = -s
        g = s * m1 / h
        dg = s * m2 / h - g * g
        x = x0 - g / dg if dg < 0.0 else x0
        lo, hi = 0.5 * (left + x0), 0.5 * (x0 + right)
        lo, hi = (e[q] if e[q] > lo else lo), (e[q + 1] if e[q + 1] < hi else hi)
        x = lo if x < lo else hi if x > hi else x
        points.append(x)
        rows.append((s, q, x0, m1, lo, hi, (right - left) ** 2 / 16.0))
    k = n - 1
    m, dm = (v.tolist() for v in leveled.evaluate(np.array(points + e), u, w, h, 1))
    me, dme = m[k:], dm[k:]
    bound = max(abs(me[0]), abs(me[-1]))
    for x, mx, dmx, (s, q, _, _, _, _, dd) in zip(points, m, dm, rows):
        if not s * mx > 0.0:
            bound = math.inf
            continue
        g = dmx / mx
        t = g * g * dd
        peak = abs(mx) * math.exp(t) if t < 700.0 else math.inf  # exp overflows past 709.78
        if x == e[q + 1] and s * dmx > 0.0:  # |M| grows out of the set at the right end
            far = q + 2
        elif x == e[q] and s * dmx < 0.0:  # and at the left end
            far = q - 1
        else:
            far = None
        if far is not None:  # at a', the other sign, or |M| falling away from the gap
            if s * me[far] < 0.0:
                peak = abs(mx)
            elif s * dme[far] * (far - q) < 0.0:
                peak = max(abs(mx), abs(me[far]))
        if peak > bound:
            bound = peak
    if bound != bound:  # a nan value
        bound = math.inf
    if not move or bound - h <= LEVEL_TOL * bound < math.inf:
        return bound, None, None
    low = max(h, max(map(abs, m)))
    xs, vals = [ul[0], ul[-1]], [-h if n % 2 else h, h]
    for x, mx, dmx, (s, q, x0, m1, lo, hi, _) in zip(points, m, dm, rows):
        cx, val = x0, s * h
        if s * mx > 0.0 and x != x0:
            d2x = (dmx - m1) / (x - x0)
            g = dmx / mx
            dg = d2x / mx - g * g
            if dg < 0.0:
                x2 = x - g / dg
                x2 = lo if x2 < lo else hi if x2 > hi else x2
                dx = x2 - x
                v = mx + dx * (dmx + 0.5 * dx * d2x)
                if s * v >= h:
                    cx, val = x2, v
            if cx == x0 and s * mx >= h:
                cx, val = x, mx
        xs.append(cx)
        vals.append(val)
    for x, v in zip(e, me):
        if abs(v) >= h:
            xs.append(x)
            vals.append(v)
    return bound, low, (np.array(xs), np.array(vals))


def _next_reference(xs: np.ndarray, vals: np.ndarray, m: int) -> np.ndarray:
    """The next reference from the candidate points xs with their M values
    vals: in ascending order, a point within 1e-14 of the last one kept and
    a zero of M are skipped, each run of one sign keeps its largest |M|
    (the leftmost on ties), and the run at whichever end has the smaller
    |M| (the left on ties) is dropped until m remain.

    Fewer than m sign runs cannot happen in exact arithmetic on every local
    maximum of |M| (see `_node_pass`), so it raises ConvergenceError rather
    than exchange a reference that does not alternate.
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

    Convergence is a relative leveling gap at most LEVEL_TOL within MAX_ITER
    iterations; after MAX_ITER the smallest-gap iterate is accepted if its
    gap is at most STALL_ACCEPT, reported in `residual`, and otherwise
    carried by a ConvergenceError.  The gap of an iterate is read from the
    node pass's bound U, or from the interlaced search where that runs; on a
    set whose narrowest component w on the hull [-1, 1] has eps / w above
    LEVEL_TOL (1e3 T_4 or 1e5 T_k, whose exchange is chaotic at the rounding
    floor) the interlaced search runs wherever U does not stop the
    exchange, which moves on the pass's candidates where U is finite.
    Degrees above DEGREE_CAP are refused.  An interlaced search that leaves
    fewer than n + 1 sign runs of M, which cannot happen in exact arithmetic
    (see `_node_pass`), raises ConvergenceError with the run count,
    carrying the best iterate so far.
    A hull radius whose n-th power overflows, or a deviation below the
    normal double range, raises InvalidInputError.
    """
    if n < 1:
        raise InvalidInputError("degree must be at least 1")
    if n > DEGREE_CAP:
        raise DegreeCapError(f"degree {n} exceeds cap {DEGREE_CAP}")
    cn, fwd = normalize(c)
    rad = fwd.rad
    try:
        hull_scale = rad**n
    except OverflowError:
        raise InvalidInputError(f"the hull radius {rad:.6g} to the power n = {n} "
                                f"overflows a double") from None

    u = _init_reference(cn, n)
    ends = np.array(cn.endpoints)
    narrow = _ULP > LEVEL_TOL * float(np.min(ends[1::2] - ends[0::2]))
    best = moved_from = None  # moved_from: h where the pass's candidates last moved the exchange
    for it in range(1, MAX_ITER + 1):
        w, h, d1, d2 = leveled.leveled(u)
        dev, low, cands = _node_pass(ends, u, w, h, d1, d2, it < MAX_ITER)
        stop = dev - h <= LEVEL_TOL * dev < math.inf
        # The pass's candidates move the exchange where |M| shows a gap above
        # LEVEL_TOL (on a narrow set: where U is finite), unless they lack a
        # sign run, give back u, or their last move did not raise the level;
        # elsewhere the interlaced search runs.
        nxt = None
        if (cands is not None and (moved_from is None or h > moved_from)
                and (dev < math.inf if narrow else low - h > LEVEL_TOL * low)):
            try:
                nxt = _next_reference(*cands, n + 1)
            except ConvergenceError:
                pass
            if nxt is not None and np.array_equal(nxt, u):
                nxt = None
        if not stop and (nxt is None or narrow):
            cands = _interlaced_extrema(ends, u, w, h, leveled.interlaced_zeros(u, w)[1])
            dev = float(np.abs(cands[1]).max())
            stop = dev - h <= LEVEL_TOL * dev
        gap = max(dev - h, 0.0)
        gap_rel = gap / dev if 0.0 < dev < math.inf else 1.0
        if best is None or gap_rel < best[0]:
            best = (gap_rel, u, w, h, dev, gap)
        if stop:
            break
        moved_from = h if nxt is not None else None
        if nxt is None:
            try:
                nxt = _next_reference(*cands, n + 1)
            except ConvergenceError as exc:
                exc.last_iterate = _finalize(best, it, fwd, hull_scale)
                raise
        u = nxt
    if not best[0] <= STALL_ACCEPT:  # only after MAX_ITER
        raise ConvergenceError(f"leveling gap {best[0]:.3e} after {MAX_ITER} iterations "
                               f"(degree {n})", last_iterate=_finalize(best, it, fwd, hull_scale))
    result = _finalize(best, it, fwd, hull_scale)
    if result.deviation < sys.float_info.min:
        raise InvalidInputError(f"the deviation {result.deviation:.3g} at n = {n} on the hull radius "
                                f"{rad:.6g} is below the normal double range")
    return result


def _finalize(state, iterations, fwd, hull_scale) -> MinimalPolyResult:
    _, u, w, h, emax, gap = state
    return MinimalPolyResult(
        deviation=hull_scale * emax,
        alternation_points=tuple(fwd.inverse(u).tolist()),
        iterations=iterations,
        residual=hull_scale * gap,
        frame=fwd,
        nodes=tuple(u.tolist()),
        weights=tuple(w.tolist()),
        level=h,
    )


def _in_frame(c: IntervalUnion, result: MinimalPolyResult) -> IntervalUnion:
    """c in the result's frame, by `normalize`; refuses a c whose hull is not
    the one the result was solved on."""
    cn, fwd = normalize(c)
    if fwd != result.frame:
        raise InvalidInputError("the result was not solved on the hull of this set")
    return cn


def _union(ends) -> IntervalUnion:
    """The union of the (a, b) pairs of `ends` with a < b: a band around a
    zero of M narrower than an ulp is left out."""
    keep = ends[0::2] < ends[1::2]
    return IntervalUnion(tuple(ends.reshape(-1, 2)[keep].ravel().tolist()))


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


def _gap_cuts(ends: np.ndarray, u, w, h, level: float, zeros) -> list:
    """The ends of C' inside the hull, in order, for the gaps of E with endpoints
    `ends` (hull's ends left out), from the caller's interlaced `zeros`; see `blow_up_set`."""
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
    z, crit = zeros
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
    frame, with no grid, by the interlacing argument of `_node_pass`.  The
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

    C' is computed once per result and set, from the result's cached
    interlaced solve, and contains E on its ends in the frame; a call that
    raises stores none.
    """
    done = result._blow_ups.get(c.endpoints)
    if done is not None:
        return done
    n = result.degree
    cn = _in_frame(c, result)
    pts = np.array(cn.endpoints)
    edges = pts[[0, -1]]
    if len(pts) > 2:
        u, w = result._reference
        with np.errstate(divide="ignore", invalid="ignore"):
            cuts = _gap_cuts(pts[1:-1], u, w, result.level,
                             result.deviation / result.hull_scale, result._interlaced)
        edges = np.concatenate((pts[:1], cuts, pts[-1:]))
    normalized = _union(edges)
    # Mapped out, E's own endpoints among the ends (the hull's, and a gap end
    # that is its own crossing) are c's, and every other end is kept within
    # its gap of c, so C' contains c in the caller's frame as it does here.
    edges = np.array(normalized.endpoints)
    j = pts.searchsorted(edges)  # edges in (pts[j - 1], pts[j]]
    ce = np.array(c.endpoints)
    ends = np.where(edges == pts[j], ce[j],
                    np.clip(result.frame.inverse(edges), ce[j - 1], ce[j]))
    c_prime = _union(ends)
    if not is_subset(cn, normalized, tol=0.0):
        raise ConvergenceError("blow-up set does not contain the input set", last_iterate=c_prime)
    if not 1 <= normalized.ell <= n:
        raise ConvergenceError(f"blow-up produced {normalized.ell} intervals for degree {n}",
                               last_iterate=c_prime)
    result._blow_ups[c.endpoints] = done = BlowUpResult(c_prime, c_prime.ell, normalized)
    return done


def minimality_witness(c: IntervalUnion, result: MinimalPolyResult) -> WitnessReport:
    """Check the two alternation facts and the sandwich invariance of L_n.

    All three run in the result's frame, within 1 ulp of c's however far
    from the origin.  sup |M| on c is the largest |M| at
    `_interlaced_extrema`'s candidates, every local maximum of |M| on c, so
    `sup_excess` is exact to rounding, from the result's cached
    `leveled.interlaced_zeros` solve that C' reads too.  The alternation is
    n + 1 alternating sign runs of those candidates with |M| at least the
    deviation less the slack (`_next_reference`'s runs, de la Vallee
    Poussin's hypothesis), the slack being the residual, 1e-12 and, for
    M's rounding, 1e-9 of the deviation.
    The sandwich: the blow-up set C' contains C and has the same minimal
    polynomial and deviation, up to 1e-8 relative plus the residual of each
    solve (a deviation accepted at MAX_ITER may sit that far above L_n).  It is
    checked by solving again on `blow_up_set`'s C' in the frame, which
    contains c there (`blow_up_set` raises otherwise); a re-solve that raises
    is reported in `sandwich_error`, with the sandwich not ok.
    """
    n = result.degree
    dev = result.deviation
    scale = result.hull_scale
    slack = result.residual + 1e-12 * dev

    (u, w), h = result._reference, result.level
    pts = np.array(_in_frame(c, result).endpoints)
    xs, vals = _interlaced_extrema(pts, u, w, h, result._interlaced[1])
    size = scale * np.abs(vals)
    sup_excess = max(0.0, float(size.max()) - dev)
    sup_ok = sup_excess <= slack
    high = size >= dev - slack - 1e-9 * dev
    try:
        _next_reference(xs[high], vals[high], n + 1)
        alternation_ok = True
    except ConvergenceError:
        alternation_ok = False

    c_prime = blow_up_set(c, result).normalized
    diff = math.inf
    sandwich_ok = False
    error = None
    try:
        again = minimal_polynomial(c_prime, n)
    except ChebcapError as exc:
        width = result.frame.rad * min(b - a for a, b in c_prime.intervals)
        error = f"{type(exc).__name__}: narrowest component of C' {width:.3g} wide"
    else:
        diff = abs(scale * again.deviation - dev)
        sandwich_ok = diff <= (1e-8 * max(dev, scale * again.deviation)
                               + result.residual + scale * again.residual)
    return WitnessReport(
        sup_ok=sup_ok,
        alternation_ok=alternation_ok,
        sandwich_ok=sandwich_ok,
        sup_excess=sup_excess,
        sandwich_deviation_diff=diff,
        sandwich_error=error,
    )
