"""Monic minimal polynomials on interval unions via a Remez exchange.

The solve runs on the hull normalized to [-1, 1] and in the Chebyshev basis
throughout; both are load-bearing.  Monomial coefficients of near-minimal
polynomials grow exponentially with the degree while the function stays at the
level of the deviation, so Horner evaluation (and any monomial-basis linear
algebra) destroys the leveling signal long before degree 50.  Deviations are
affinely covariant: L_n(s E + t) = |s|^n L_n(E), which is how results return
to the original frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .chebpoly import ChebExpansion, Polynomial, clenshaw, real_roots_in, to_monomial
from .errors import ConvergenceError, DegreeCapError, InvalidInputError
from .intervals import AffineMap, IntervalUnion, is_subset, normalize

MAX_ITER = 200
LEVEL_TOL = 1e-12
# Leveling can stall above LEVEL_TOL on sets with deep gaps: between the
# intervals |M| rises to a peak G with G/L up to ~exp(n * gap measure), and
# Clenshaw evaluation noise of order n*eps*G then floors the relative leveling
# gap near n*eps*G/L.  A stalled iteration is accepted, with the honest gap in
# `residual`, as long as it reached this much.
STALL_ACCEPT = 1e-6
STALL_COUNT = 10
DEGREE_CAP = 100


@dataclass(frozen=True)
class MinimalPolyResult:
    """Monic minimizer of the sup norm on a union of intervals.

    `poly` holds monomial coefficients in the original frame for reporting;
    numerical work should use `evaluate`, which stays in the Chebyshev basis
    of the normalized hull (`cheb`, `frame`, `hull_scale`).  `residual` is the
    leveling gap sup|M| - min leveled |M| at acceptance, in original-frame
    units; the reported deviation is the actual sup of M on the set, so the
    true minimum deviation lies within residual below it.
    """

    poly: Polynomial
    deviation: float
    alternation_points: tuple
    iterations: int
    residual: float
    cheb: ChebExpansion
    frame: AffineMap
    hull_scale: float

    @property
    def degree(self) -> int:
        return self.cheb.degree

    def evaluate(self, x):
        """M_n(x) without monomial-basis cancellation."""
        return self.hull_scale * self.cheb(self.frame(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class BlowUpResult:
    """Inverse image C' of [-L, L] under the minimal polynomial (its superset sandwich)."""

    c_prime: IntervalUnion
    ell_prime: int


@dataclass(frozen=True)
class WitnessReport:
    """Grid and re-solve evidence that a result is the minimal polynomial."""

    sup_ok: bool
    alternation_ok: bool
    sandwich_applicable: bool
    sandwich_ok: bool
    sup_excess: float
    sandwich_deviation_diff: float

    @property
    def passed(self) -> bool:
        ok = self.sup_ok and self.alternation_ok
        return ok and (self.sandwich_ok or not self.sandwich_applicable)


def _angle_lengths(e: IntervalUnion) -> list:
    return [math.acos(max(-1.0, min(1.0, a))) - math.acos(max(-1.0, min(1.0, b)))
            for a, b in e.intervals]


def _init_reference(e: IntervalUnion, n: int) -> np.ndarray:
    """n+1 starting points, allocated per interval by arccos length.

    Chebyshev-Lobatto spacing within each interval mimics the equilibrium
    distribution; each interval gets at least one point whenever n+1 >= ell.
    """
    m = n + 1
    mu = _angle_lengths(e)
    total = sum(mu)
    raw = [m * w / total for w in mu]
    counts = [int(v) for v in raw]
    rema = sorted(range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in rema[: m - sum(counts)]:
        counts[i] += 1
    if m >= e.ell:
        while any(c == 0 for c in counts):
            i0 = counts.index(0)
            counts[max(range(len(counts)), key=lambda i: counts[i])] -= 1
            counts[i0] += 1
    pts = []
    for (a, b), k in zip(e.intervals, counts):
        if k == 0:
            continue
        mid, rad = 0.5 * (a + b), 0.5 * (b - a)
        if k == 1:
            pts.append(mid)
        else:
            pts.extend(mid - rad * math.cos(math.pi * j / (k - 1)) for j in range(k))
    return np.array(sorted(pts))


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


def _error_extrema(ct: np.ndarray, e: IntervalUnion, n: int) -> list:
    """Interval endpoints plus interior critical points of M, with M values.

    The bisection on M' runs on Python floats through chebpoly.clenshaw: the
    same IEEE operations as chebval on numpy scalars, so the same points, but
    without numpy's per-scalar dispatch, which dominated the solve.
    """
    der = npcheb.chebder(ct).tolist()
    mu = _angle_lengths(e)
    total = sum(mu)
    out = []
    for (a, b), w in zip(e.intervals, mu):
        k = max(24, int(16 * (n + 1) * w / total) + 8)
        grid = np.linspace(a, b, k)
        dv = npcheb.chebval(grid, der).tolist()
        xs = grid.tolist()
        locs = [a, b]
        for i in range(k - 1):
            da, db = dv[i], dv[i + 1]
            if da == 0.0:
                locs.append(xs[i])
            elif da * db < 0.0:
                ta, tb = xs[i], xs[i + 1]
                for _ in range(60):
                    tm = 0.5 * (ta + tb)
                    dm = clenshaw(tm, der)
                    if dm == 0.0:
                        break
                    if da * dm < 0.0:
                        tb = tm
                    else:
                        ta, da = tm, dm
                locs.append(0.5 * (ta + tb))
        if dv[-1] == 0.0:
            locs.append(xs[-1])
        pts = np.array(sorted(set(locs)))
        out.extend(zip(pts.tolist(), npcheb.chebval(pts, ct).tolist()))
    out.sort()
    dedup = []
    for x, v in out:
        if dedup and x - dedup[-1][0] <= 1e-14:
            continue
        dedup.append((x, v))
    return dedup


def _collapse_sign_runs(cands: list) -> list:
    runs = []
    for x, v in cands:
        if v == 0.0:
            continue
        s = 1 if v > 0 else -1
        if runs and runs[-1][0] == s:
            if abs(v) > abs(runs[-1][2]):  # strict: leftmost wins ties
                runs[-1] = (s, x, v)
        else:
            runs.append((s, x, v))
    return [(x, v) for _, x, v in runs]


def _single_point_exchange(u: np.ndarray, ct: np.ndarray, cands: list) -> np.ndarray:
    x_star, v_star = max(cands, key=lambda c: abs(c[1]))
    vals = npcheb.chebval(u, ct)
    new = list(u)
    sign = 1 if v_star > 0 else -1
    if x_star < u[0]:
        if (1 if vals[0] > 0 else -1) == sign:
            new[0] = x_star
        else:
            new = [x_star] + new[:-1]
    elif x_star > u[-1]:
        if (1 if vals[-1] > 0 else -1) == sign:
            new[-1] = x_star
        else:
            new = new[1:] + [x_star]
    else:
        j = int(np.searchsorted(u, x_star))
        j = j - 1 if j > 0 and (1 if vals[j - 1] > 0 else -1) == sign else j
        new[j] = x_star
    return np.array(sorted(new))


def _select_reference(cands: list, m: int, u: np.ndarray, ct: np.ndarray) -> np.ndarray:
    pts = _collapse_sign_runs(cands)
    if len(pts) < m:
        return _single_point_exchange(u, ct, cands)
    while len(pts) > m:
        if abs(pts[0][1]) <= abs(pts[-1][1]):
            pts.pop(0)
        else:
            pts.pop()
    return np.array([x for x, _ in pts])


def minimal_polynomial(c: IntervalUnion, n: int, level_tol: float = LEVEL_TOL,
                       max_iter: int = MAX_ITER) -> MinimalPolyResult:
    """Monic polynomial of degree n minimizing the sup norm on c.

    Convergence is a relative leveling gap below level_tol; iterations that
    stall above it (evaluation noise floor, see module docstring) are accepted
    at the best iterate once the gap is below STALL_ACCEPT, and the achieved
    gap is reported in `residual`.
    """
    if n < 1:
        raise InvalidInputError("degree must be at least 1")
    if n > DEGREE_CAP:
        raise DegreeCapError(f"degree {n} exceeds cap {DEGREE_CAP}")
    cn, fwd = normalize(c)
    rad = 1.0 / fwd.scale
    hull_scale = rad**n

    u = _init_reference(cn, n)
    best = None
    best_gap = math.inf
    stall = 0
    for it in range(1, max_iter + 1):
        ct, h, _ = _solve_on_reference(u, n)
        cands = _error_extrema(ct, cn, n)
        emax = max(abs(v) for _, v in cands)
        gap = max(emax - abs(h), 0.0)
        gap_rel = gap / emax if emax > 0 else 0.0
        if gap_rel < best_gap:
            best_gap, best, stall = gap_rel, (ct, h, u, emax, gap, it), 0
        else:
            stall += 1
        if gap_rel <= level_tol:
            break
        if stall >= STALL_COUNT and best_gap <= STALL_ACCEPT:
            break
        u = _select_reference(cands, n + 1, u, ct)
    else:
        last = _finalize(best, cn, fwd, rad, hull_scale, n) if best else None
        raise ConvergenceError(
            f"leveling gap {best_gap:.3e} after {max_iter} iterations (degree {n})",
            last_iterate=last,
        )
    return _finalize(best, cn, fwd, rad, hull_scale, n)


def _finalize(state, cn, fwd, rad, hull_scale, n) -> MinimalPolyResult:
    ct, h, u, emax, gap, it = state
    cheb = ChebExpansion(tuple(ct))
    mono_norm = to_monomial(cheb)
    inv = fwd.inverse()
    poly = (hull_scale * mono_norm.compose_affine(fwd)).coeffs
    poly = Polynomial(tuple(poly[:-1]) + (1.0,))  # snap the monic lead exactly
    alts = tuple(float(inv(x)) for x in u)
    return MinimalPolyResult(
        poly=poly,
        deviation=hull_scale * emax,
        alternation_points=alts,
        iterations=it,
        residual=hull_scale * gap,
        cheb=cheb,
        frame=fwd,
        hull_scale=hull_scale,
    )


def blow_up_set(c: IntervalUnion, result: MinimalPolyResult) -> BlowUpResult:
    """C' = M_n^{-1}([-L, L]), the largest set on which M_n stays minimal.

    Cut points come from the roots of M -+ L (isolated separately; the squared
    form M^2 - L^2 is numerically hopeless), and cells are classified by a
    level test at their midpoint.  The level test, not root multiplicity, is
    what absorbs tangency roots that rounding splits or pushes complex.
    """
    n = result.degree
    level = result.deviation / result.hull_scale
    mono = to_monomial(result.cheb)
    lvl = Polynomial((level,))
    # A monic minimal polynomial alternates at both hull endpoints and is
    # strictly above the level outside the hull, so C' lives in [-1, 1] of the
    # normalized frame.  Isolate over a barely padded hull: widening the
    # window inflates the reparametrized coefficients by (width/2)^n and
    # drowns the level-crossing signal for larger n.
    delta = 1e-3
    cuts = [-1.0 - delta, 1.0 + delta]
    for q in (mono - lvl, mono + lvl):
        cuts.extend(r for r, _ in real_roots_in(q, -1.0 - delta, 1.0 + delta))
    cuts = sorted(cuts)
    merged = []
    for r in cuts:
        if merged and r - merged[-1] <= 1e-12:
            continue
        merged.append(r)
    pieces = []
    for a, b in zip(merged, merged[1:]):
        mid = 0.5 * (a + b)
        if abs(result.cheb(mid)) <= level * (1.0 + 1e-9):
            if pieces and pieces[-1][1] == a:
                pieces[-1] = (pieces[-1][0], b)
            else:
                pieces.append((a, b))
    pieces = [(max(a, -1.0), min(b, 1.0)) for a, b in pieces]
    pieces = [(a, b) for a, b in pieces if b - a > 1e-12]
    if not pieces:
        raise InvalidInputError("empty blow-up set; level classification failed")
    inv = result.frame.inverse()
    flat = [inv(x) for piece in pieces for x in piece]
    c_prime = IntervalUnion(tuple(flat))
    if not is_subset(c, c_prime, tol=1e-8):
        raise ConvergenceError("blow-up set does not contain the input set", last_iterate=c_prime)
    if not 1 <= c_prime.ell <= n:
        raise ConvergenceError(f"blow-up produced {c_prime.ell} intervals for degree {n}",
                               last_iterate=c_prime)
    return BlowUpResult(c_prime=c_prime, ell_prime=c_prime.ell)


def minimality_witness(c: IntervalUnion, result: MinimalPolyResult,
                       grid_density: int = 2000, c_double_prime=None) -> WitnessReport:
    """Check the two alternation facts and the sandwich invariance of L_n.

    The sandwich: any C'' with C subset C'' subset C' has the same minimal
    polynomial and deviation.  Passing a C'' that is not inside C' is reported
    as not applicable rather than a failure.
    """
    n = result.degree
    dev = result.deviation
    slack = result.residual + 1e-12 * dev

    lengths = [b - a for a, b in c.intervals]
    total = sum(lengths)
    sup = 0.0
    for (a, b), w in zip(c.intervals, lengths):
        k = max(16, int(grid_density * w / total))
        xs = np.linspace(a, b, k)
        sup = max(sup, float(np.max(np.abs(result.evaluate(xs)))))
    sup_excess = max(0.0, sup - dev)
    sup_ok = sup_excess <= slack

    vals = result.evaluate(np.array(result.alternation_points))
    signs_ok = all(
        (v > 0) == ((n - j) % 2 == 0) and v != 0.0 for j, v in enumerate(vals)
    )
    level_ok = bool(np.max(np.abs(np.abs(vals) - dev)) <= slack + 1e-9 * dev)
    alternation_ok = signs_ok and level_ok

    blow = blow_up_set(c, result)
    cpp = blow.c_prime if c_double_prime is None else c_double_prime
    applicable = is_subset(c, cpp, tol=1e-9) and is_subset(cpp, blow.c_prime, tol=1e-9)
    diff = math.inf
    sandwich_ok = False
    if applicable:
        again = minimal_polynomial(cpp, n)
        diff = abs(again.deviation - dev)
        sandwich_ok = diff <= 1e-8 * max(dev, again.deviation)
    return WitnessReport(
        sup_ok=sup_ok,
        alternation_ok=alternation_ok,
        sandwich_applicable=applicable,
        sandwich_ok=sandwich_ok,
        sup_excess=sup_excess,
        sandwich_deviation_diff=diff,
    )
