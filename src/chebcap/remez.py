"""Monic minimal polynomials on interval unions via a Remez exchange.

The solve runs on the hull normalized to [-1, 1]; deviations are affinely
covariant, L_n(s E + t) = |s|^n L_n(E), which is how results return to the
original frame.  Each iterate is the leveled interpolant on the reference,
in the barycentric form of `leveled`, whose evaluation error on the set does
not grow with the size of M in the gaps; its extrema are refined together by
one bracket-safeguarded Newton loop.  Monomial coefficients of near-minimal
polynomials grow exponentially with the degree, so `poly` is for reporting
only; the Chebyshev coefficients `cheb` of the final reference serve the
blow-up crossings and the arc transfer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from . import chebpoly, leveled
from .chebpoly import ChebExpansion, Polynomial, clenshaw, to_monomial
from .errors import ConvergenceError, DegreeCapError, InvalidInputError
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


@dataclass(frozen=True)
class MinimalPolyResult:
    """Monic minimizer of the sup norm on a union of intervals.

    `poly` holds monomial coefficients in the original frame for reporting.
    Numerical work should use `evaluate`, which reads the leveled
    interpolant of the final reference in the normalized frame: its `nodes`,
    scaled barycentric `weights` and `level` h, with M(nodes[j]) = +-h.
    `cheb` holds the same polynomial's Chebyshev coefficients on the
    normalized hull (`frame`, `hull_scale`).  `residual` is the leveling gap
    sup|M| - min leveled |M| at acceptance, in original-frame units; the
    reported deviation is the actual sup of M on the set, so the true
    minimum deviation lies within residual below it.
    """

    poly: Polynomial
    deviation: float
    alternation_points: tuple
    iterations: int
    residual: float
    cheb: ChebExpansion
    frame: AffineMap
    hull_scale: float
    nodes: tuple
    weights: tuple
    level: float

    @property
    def degree(self) -> int:
        return self.cheb.degree

    def evaluate(self, x):
        """M_n(x) from the barycentric form of the final reference.

        Accurate on the set, where its error grows with the reference's
        Lebesgue function; deep in the gaps and outside the hull it loses
        digits as |M| grows past the deviation.
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
    """n+1 starting points, allocated per interval by equilibrium mass and
    placed within it at quantiles of the equilibrium measure (on a single
    interval, the Chebyshev-Lobatto points); each interval gets at least one
    point whenever n+1 >= ell.
    """
    m = n + 1
    eq = leveled.equilibrium(e.endpoints)
    mu = [mass for mass, _ in eq]
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
    angles = np.linspace(0.0, math.pi, leveled.EQ_GRID + 1)
    pts = []
    for (a, b), k, (_, cdf) in zip(e.intervals, counts, eq):
        if k == 0:
            continue
        mid, rad = 0.5 * (a + b), 0.5 * (b - a)
        if k == 1:
            pts.append(mid)
        else:
            theta = np.interp(np.linspace(0.0, 1.0, k), cdf, angles)
            pts.extend((mid - rad * np.cos(theta)).tolist())
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


def _grid_size(n: int, w: float, total: float) -> int:
    """Grid points for a zero search on a piece of arccos length w."""
    return max(24, int(16 * (n + 1) * w / total) + 8)


def _zeros(coeffs: list, a: float, b: float, k: int) -> list:
    """Zeros of a Chebyshev series on [a, b], ascending: sign changes on a
    k-point grid, bisected on Python floats through chebpoly.clenshaw (the
    IEEE operations of chebval without its per-scalar dispatch, which
    dominated the solve) until the bracket collapses to adjacent floats."""
    grid = np.linspace(a, b, k)
    dv = npcheb.chebval(grid, coeffs).tolist()
    xs = grid.tolist()
    out = []
    for i in range(k - 1):
        da, db = dv[i], dv[i + 1]
        if da == 0.0:
            out.append(xs[i])
        elif da * db < 0.0:
            ta, tb = xs[i], xs[i + 1]
            for _ in range(60):
                tm = 0.5 * (ta + tb)
                if tm == ta or tm == tb:
                    break
                dm = clenshaw(tm, coeffs)
                if dm == 0.0:
                    break
                if da * dm < 0.0:
                    tb = tm
                else:
                    ta, da = tm, dm
            out.append(0.5 * (ta + tb))
    if dv[-1] == 0.0:
        out.append(xs[-1])
    return out


def _error_extrema(ct: np.ndarray, e: IntervalUnion, n: int) -> list:
    """Interval endpoints plus interior critical points of the Chebyshev series
    ct on the intervals of e, with its values."""
    der = npcheb.chebder(ct).tolist()
    mu = _angle_lengths(e)
    total = sum(mu)
    out = []
    for (a, b), w in zip(e.intervals, mu):
        locs = [a, b] + _zeros(der, a, b, _grid_size(n, w, total))
        pts = np.array(sorted(set(locs)))
        out.extend(zip(pts.tolist(), npcheb.chebval(pts, ct).tolist()))
    return _sorted_unique(out)


def _sorted_unique(out: list) -> list:
    out.sort()
    dedup = []
    for x, v in out:
        if dedup and x - dedup[-1][0] <= 1e-14:
            continue
        dedup.append((x, v))
    return dedup


def _extremum_grid(e: IntervalUnion, n: int):
    """One grid over all intervals of e for the extremum search, the mask of
    its interval endpoints and the mask of its cells inside an interval."""
    mu = _angle_lengths(e)
    total = sum(mu)
    grids = [np.linspace(a, b, _grid_size(n, wt, total)) for (a, b), wt in zip(e.intervals, mu)]
    last = np.cumsum([len(g) for g in grids]) - 1
    ends = np.zeros(last[-1] + 1, dtype=bool)
    ends[last] = ends[last[:-1] + 1] = ends[0] = True
    inner = np.ones(last[-1], dtype=bool)
    inner[last[:-1]] = False
    return np.concatenate(grids), ends, inner


def _leveled_extrema(u, w, h, grid) -> list:
    """Interval endpoints plus interior critical points of the leveled
    interpolant, with M values: the sign changes of M' on the grid of
    `_extremum_grid`, refined together."""
    xs, ends, inner = grid
    vals, d1 = leveled.evaluate(xs, u, w, h, 1)
    sd = np.sign(d1)
    cells = np.flatnonzero(inner & (sd[:-1] * sd[1:] < 0.0))
    keep = ends | (sd == 0.0)
    out = list(zip(xs[keep].tolist(), vals[keep].tolist()))
    if len(cells):
        crit = leveled.refine(xs[cells], xs[cells + 1], d1[cells], d1[cells + 1], u, w, h)
        out += zip(crit.tolist(), leveled.evaluate(crit, u, w, h, 0)[0].tolist())
    return _sorted_unique(out)


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


def _single_point_exchange(u: np.ndarray, vals: np.ndarray, cands: list) -> np.ndarray:
    x_star, v_star = max(cands, key=lambda c: abs(c[1]))
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


def _select_reference(cands: list, m: int, u: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Next reference from the candidates; vals are M's values on u."""
    pts = _collapse_sign_runs(cands)
    if len(pts) < m:
        return _single_point_exchange(u, vals, cands)
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
    stall above it are accepted at the best iterate once the gap is below
    STALL_ACCEPT, and the achieved gap is reported in `residual`.
    """
    if n < 1:
        raise InvalidInputError("degree must be at least 1")
    if n > chebpoly.DEGREE_CAP:
        raise DegreeCapError(f"degree {n} exceeds cap {chebpoly.DEGREE_CAP}")
    cn, fwd = normalize(c)
    rad = 1.0 / fwd.scale
    hull_scale = rad**n

    u = _init_reference(cn, n)
    grid = _extremum_grid(cn, n)
    best = None
    best_gap = math.inf
    stall = 0
    for it in range(1, max_iter + 1):
        w, h = leveled.weights_and_level(u)
        cands = _leveled_extrema(u, w, h, grid)
        emax = max(abs(v) for _, v in cands)
        gap = max(emax - h, 0.0)
        gap_rel = gap / emax if emax > 0 else 0.0
        if gap_rel < best_gap:
            best_gap, best, stall = gap_rel, (u, w, h, emax, gap, it), 0
        else:
            stall += 1
        if gap_rel <= level_tol:
            break
        if stall >= STALL_COUNT and best_gap <= STALL_ACCEPT:
            break
        u = _select_reference(cands, n + 1, u, np.sign(w) * h)
    else:
        last = _finalize(best, fwd, hull_scale, n) if best else None
        raise ConvergenceError(
            f"leveling gap {best_gap:.3e} after {max_iter} iterations (degree {n})",
            last_iterate=last,
        )
    return _finalize(best, fwd, hull_scale, n)


def _finalize(state, fwd, hull_scale, n) -> MinimalPolyResult:
    u, w, h, emax, gap, it = state
    cheb = ChebExpansion(tuple(_solve_on_reference(u, n)[0]))
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
    nodes, weights = np.array(result.nodes), np.array(result.weights)
    return leveled.evaluate(t, nodes, weights, result.level, 0)[0]


def blow_up_set(c: IntervalUnion, result: MinimalPolyResult) -> BlowUpResult:
    """C' = M_n^{-1}([-L, L]), the largest set on which M_n stays minimal.

    Cut points are c's endpoints plus the crossings of M = +-L in its gaps;
    outside the hull |M| exceeds L.  On `result.cheb` in the normalized
    frame, the critical points of M (`_error_extrema` on the gaps) split each
    gap into monotone pieces with at most one crossing of each level; a gap
    may hold whole bands of C'.  Cells are classified by a level test of the
    leveled interpolant at their midpoint.
    """
    n = result.degree
    dev = result.deviation / result.hull_scale
    pts = _normalized_endpoints(c, result)
    coeffs = list(result.cheb.cheb_coeffs)
    m_minus = [coeffs[0] - dev] + coeffs[1:]
    m_plus = [coeffs[0] + dev] + coeffs[1:]
    gaps = pts[1:-1]
    crit = []
    if gaps:
        crit = [x for x, _ in _error_extrema(np.array(coeffs), IntervalUnion(tuple(gaps)), n)]
    cuts = list(pts)
    for a, b in zip(gaps[0::2], gaps[1::2]):
        ends = [a] + [x for x in crit if a < x < b] + [b]
        for p, q in zip(ends, ends[1:]):
            cuts += _zeros(m_minus, p, q, 2) + _zeros(m_plus, p, q, 2)
    cuts.sort()
    merged = []
    for r in cuts:
        if merged and r - merged[-1] <= 1e-12:
            continue
        merged.append(r)
    cells = list(zip(merged, merged[1:]))
    inside = np.abs(_leveled_values(result, np.array([0.5 * (a + b) for a, b in cells])))
    pieces = []
    for (a, b), v in zip(cells, inside.tolist()):
        if v <= dev * (1.0 + 1e-9):
            if pieces and pieces[-1][1] == a:
                pieces[-1] = (pieces[-1][0], b)
            else:
                pieces.append((a, b))
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

    The sup is taken on a grid over c in the normalized frame, with the hull
    snapped to [-1, 1]: mapped through the frame, the hull of a set far from
    the origin lands just outside it, where |M| already exceeds L.
    The sandwich: any C'' with C subset C'' subset C' has the same minimal
    polynomial and deviation, up to 1e-8 relative plus the residual of each
    solve (a stall-accepted deviation may sit that far above L_n).  Passing a
    C'' that is not inside C' is reported as not applicable rather than a
    failure.
    """
    n = result.degree
    dev = result.deviation
    slack = result.residual + 1e-12 * dev

    pts = _normalized_endpoints(c, result)
    lengths = [b - a for a, b in c.intervals]
    total = sum(lengths)
    grid = np.concatenate([np.linspace(a, b, max(16, int(grid_density * w / total)))
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

    blow = blow_up_set(c, result)
    cpp = blow.c_prime if c_double_prime is None else c_double_prime
    applicable = is_subset(c, cpp, tol=1e-9) and is_subset(cpp, blow.c_prime, tol=1e-9)
    diff = math.inf
    sandwich_ok = False
    if applicable:
        again = minimal_polynomial(cpp, n)
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
    )
