"""Inverse polynomial images P^{-1}([-1,1]) and the sets where L_n = 2 cap^n.

For a degree-n real polynomial whose full complex inverse image of [-1, 1] is
real, the image A satisfies cap A = (2|c_n|)^{-1/n} and the composed sequence
2/(2 c_n)^k T_k(P) realizes L_{kn}(A) = 2 (cap A)^{kn} exactly; these are the
equality cases of the lower bound L_n >= 2 cap^n.

`inverse_image` works from the critical values (Peherstorfer, J. Comput.
Appl. Math. 153, 2003): the real zeros of P' split the line into monotone
pieces, and the image is real iff there are n - 1 of them and P runs over all
of [-1, 1] on every piece, that is, every local maximum is >= 1 and every
local minimum <= -1.  Each piece meets the image in at most one interval,
bounded by its crossings of P = -1 and P = +1.  Every decision is made up to
the rounding estimate of the monomial coefficients, eps * sum |c_i| |x|^i,
and input whose estimate is too large for that is refused.

The work runs in two stages.  Stage one (`_monotone_pieces`) reads the
critical values, decides realness and refuses input whose estimate on the
window of the critical points is too large.  Stage two, in `inverse_image`
only, searches the crossings, each by Newton from where the quadratic
Taylor model of P at a critical end of its piece reaches the level, and
judges the estimate again on the window that also holds them.
`composed_minimal_sequence` and `capacity_of_inverse_image` read only
realness and the leading coefficient, so they run stage one alone, with no
crossing search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as nppoly

from .chebpoly import Polynomial, compose_T
from .errors import EmptyImageError, IllConditionedError, InvalidInputError, NonRealImageError
from .intervals import IntervalUnion

# Largest rounding estimate eps * sum |c_i| r^i, on the window [-r, r] that
# holds every critical point and crossing, for which inverse_image answers;
# the composed sequence and the capacity judge it on the critical points.
# Snapping moves a critical value by at most the estimate, so below the limit
# no band gap whose critical value clears +-1 by more than 1e-6 is closed.
# Monomial T_k stays below it up to k = 26.
ROUNDING_LIMIT = 1e-6
# verify_sharpness passes when the Remez deviation is within this relative
# error of 2 cap^n and its monomial coefficients within this distance of P/c_n.
SHARPNESS_REL_TOL = 1e-7
SHARPNESS_COEFF_TOL = 1e-6
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class InverseImageResult:
    """Real section of P^{-1}([-1,1]) with the realness certificate.

    is_real records whether the full complex inverse image is real, decided
    from the critical values of P; exactly then the real section is the
    entire image.  boundary_points are the real solutions of P = +-1,
    ascending: the crossings of the levels on the monotone pieces and the
    critical points whose value is +-1 within rounding (tangencies, each
    listed once).
    """

    image: IntervalUnion
    is_real: bool
    boundary_points: tuple


@dataclass(frozen=True)
class SharpnessReport:
    """Remez deviation versus the closed form 2 (cap A)^n on one fixture."""

    degree: int
    deviation_remez: float
    deviation_theory: float
    rel_error: float
    coeff_distance: float
    deviation_ok: bool
    poly_ok: bool

    @property
    def passed(self) -> bool:
        return self.deviation_ok and self.poly_ok


def _values(x, cols, absc):
    """Columns of cols summed as monomial series at the points x, and the
    rounding scale sum |c_i| |x|^i there."""
    v = x[..., None] ** np.arange(len(absc))
    return v @ cols, np.abs(v) @ absc


def _critical_points(cols, absc):
    """Real zeros of P', ascending, with [P, P', P''] and the rounding scale
    there.  The zeros are the companion-matrix eigenvalues of P' (LAPACK
    returns a real eigenvalue with zero imaginary part), polished by one
    Newton step each where the step lowers |P'|."""
    lam = nppoly.polyroots(cols[:-1, 1])
    y = lam.real[lam.imag == 0.0]
    f, scale = _values(y, cols, absc)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y1 = y - f[:, 1] / f[:, 2]
        f1, scale1 = _values(y1, cols, absc)
    better = np.abs(f1[:, 1]) < np.abs(f[:, 1])
    y = np.where(better, y1, y)
    f = np.where(better[:, None], f1, f)
    scale = np.where(better, scale1, scale)
    order = np.argsort(y)
    return y[order], f[order], scale[order]


def _split(a):
    # Dekker's split of a into two halves of 26 bits each, hi + lo = a exactly.
    t = 134217729.0 * a  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _compensated_residual(c, x, level):
    """P(x) - level by compensated Horner (Graillat, Langlois and Louvet,
    2005): the rounding error of each product and sum is carried exactly
    (Dekker's product and Knuth's sum), so the value is as accurate as
    Horner's in twice the working precision."""
    s = np.full_like(x, c[-1])
    r = np.zeros_like(x)
    xh, xl = _split(x)
    for ci in c[-2::-1]:
        p = s * x
        sh, sl = _split(s)
        pe = sl * xl - (((p - sh * xh) - sl * xh) - sh * xl)
        s = p + ci
        z = s - p
        se = (p - (s - z)) + (ci - z)
        r = r * x + (pe + se)
    t = s - level
    z = t - s
    return t + (r + ((s - (t - z)) + (-level - z)))


def _crossings(cols, absc, a, b, x, ga, level):
    """The x in [a, b] with P(x) = level, for every row at once.

    P is monotone on each [a, b], and P - level has the nonzero value ga at
    a and the other sign at b.  Newton runs from the start x inside [a, b]
    (`inverse_image` places it by a Taylor model at a critical point),
    narrowing the bracket as it goes, and a step that leaves the bracket is
    replaced by bisection.  A row stops once P - level is below its rounding
    estimate or the step is a few ulps.  A last Newton step on the
    compensated residual then lands each crossing within about an ulp of
    the crossing of the polynomial the coefficients define exactly.
    """
    s = np.sign(ga)
    lo, hi = a, b
    done = np.zeros(len(a), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(100):  # bisection alone reaches adjacent floats in < 100
            f, scale = _values(x, cols[:, :2], absc)
            g = f[:, 0] - level
            done |= np.abs(g) <= _EPS * (4.0 * np.abs(x * f[:, 1]) + scale)
            if done.all():
                break
            a_side = s * g > 0.0
            lo = np.where(a_side, x, lo)
            hi = np.where(a_side, hi, x)
            xn = x - g / f[:, 1]
            xn = np.where((lo < xn) & (xn < hi), xn, 0.5 * (lo + hi))
            x = np.where(done, x, xn)
        slope = _values(x, cols[:, 1:2], absc)[0][:, 0]
        step = _compensated_residual(cols[:, 0], x, level) / slope
    return np.where(np.isfinite(step), x - step, x)


def _refuse_ill_conditioned(r, absc):
    # The rounding estimate eps * sum |c_i| r^i grows with r, so a window
    # refused here is refused on every wider one.
    rounding = _EPS * float(nppoly.polyval(r, absc))
    if not rounding <= ROUNDING_LIMIT:
        raise IllConditionedError(
            f"monomial coefficients too ill-conditioned for the inverse image: rounding "
            f"estimate eps * sum |c_i| r^i = {rounding:.3g} on [-{r:.6g}, {r:.6g}] exceeds "
            f"{ROUNDING_LIMIT:g}"
        )


def _monotone_pieces(p: Polynomial):
    """Stage one of the inverse image: the monotone pieces of P and realness.

    Returns (is_real, cols, absc, y, f, v, va, vb, lo_v, hi_v): the
    realness certificate, the columns [P, P', P''] of monomial coefficients
    and the scale |c_i|, the critical points y with [P, P', P''] there and
    their values v with tangencies snapped to +-1, and the values va, vb of
    P at the ends of each piece, lo_v and hi_v their minimum and maximum.
    The outer pieces run to +-infinity, where P has the sign of its growth.

    Raises IllConditionedError when the rounding estimate on the critical
    window [-r0, r0], r0 = max |y|, exceeds ROUNDING_LIMIT, and
    EmptyImageError when P covers no point of (-1, 1) on any piece.
    """
    if p.degree < 1:
        raise InvalidInputError("inverse image needs degree >= 1")
    n = p.degree
    c = np.asarray(p.coeffs)
    absc = np.abs(c)
    dc = np.append(c[1:] * np.arange(1, n + 1), 0.0)
    cols = np.stack([c, dc, np.append(dc[1:] * np.arange(1, n + 1), 0.0)], axis=1)
    y, f, scale = _critical_points(cols, absc)
    _refuse_ill_conditioned(float(np.max(np.abs(y), initial=0.0)), absc)
    v = f[:, 0]
    tol = _EPS * scale
    v = np.where(np.abs(v - 1.0) <= tol, 1.0, np.where(np.abs(v + 1.0) <= tol, -1.0, v))
    grow = math.copysign(math.inf, c[-1])
    va = np.concatenate(([(-1.0) ** n * grow], v))
    vb = np.concatenate((v, [grow]))
    lo_v, hi_v = np.minimum(va, vb), np.maximum(va, vb)
    if not np.any((lo_v < 1.0) & (hi_v > -1.0)):
        raise EmptyImageError("P^{-1}([-1,1]) has empty real section")
    is_real = len(y) == n - 1 and bool(np.all((lo_v <= -1.0) & (hi_v >= 1.0)))
    return is_real, cols, absc, y, f, v, va, vb, lo_v, hi_v


def inverse_image(p: Polynomial) -> InverseImageResult:
    """The set {x real : -1 <= P(x) <= 1} plus the realness certificate.

    The critical points y_1 < ... < y_m of P cut the line into monotone
    pieces.  A critical value within its rounding estimate of +-1 is a
    tangency and is snapped to +-1, so it neither splits a band nor leaves a
    sliver.  The image is real iff m = n - 1 and P covers [-1, 1] on every
    piece (`_monotone_pieces`).  On each piece P - 1 and P + 1 change sign
    at most once; all these crossings are found together (`_crossings`),
    and the piece meets the image between them.  Each search starts where
    the quadratic Taylor model of P at the piece's critical end whose value
    is nearer the level reaches that level, or at the piece's midpoint when
    that point is not strictly inside; the outer pieces end at the Cauchy
    bound.

    Raises IllConditionedError when the rounding estimate eps * sum |c_i| r^i
    exceeds ROUNDING_LIMIT: first on the window [-r, r] of the critical
    points, before any crossing is searched, then on the window of the
    critical points and crossings.  Raises EmptyImageError when the real
    section is empty.
    """
    is_real, cols, absc, y, f, v, va, vb, lo_v, hi_v = _monotone_pieces(p)

    # Every root of P - l, |l| <= 1, lies inside the Cauchy bound, the far
    # end of the outer pieces.
    cauchy = 1.0 + max([absc[0] + 1.0, *absc[1:-1]]) / absc[-1]
    knots = np.concatenate(([-cauchy], y, [cauchy]))
    a, b = knots[:-1], knots[1:]

    levels = np.array([-1.0, 1.0])
    li, pj = np.nonzero((lo_v < levels[:, None]) & (levels[:, None] < hi_v))
    lv = levels[li]
    # k indexes the knot of each crossing's Taylor model.  Beyond the
    # outermost critical point, when all zeros of P' are real, every higher
    # derivative keeps one sign (Gauss-Lucas), so the model's start lies
    # beyond the crossing and Newton approaches it from that side.
    k = np.where(np.abs(va[pj] - lv) < np.abs(vb[pj] - lv), pj, pj + 1)
    kv = np.append(va, vb[-1])
    curv = np.concatenate(([np.nan], f[:, 2], [np.nan]))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x0 = knots[k] + np.where(k == pj, 1.0, -1.0) * np.sqrt(2.0 * (lv - kv[k]) / curv[k])
    x0 = np.where((a[pj] < x0) & (x0 < b[pj]), x0, 0.5 * (a[pj] + b[pj]))
    cross = np.full((2, len(a)), np.nan)
    xs = _crossings(cols, absc, a[pj], b[pj], x0, va[pj] - lv, lv)
    cross[li, pj] = xs
    _refuse_ill_conditioned(float(np.max(np.abs(np.concatenate((xs, y))), initial=0.0)), absc)

    up = vb > va
    left = np.where(up, np.where(va >= -1.0, a, cross[0]), np.where(va <= 1.0, a, cross[1]))
    right = np.where(up, np.where(vb <= 1.0, b, cross[1]), np.where(vb >= -1.0, b, cross[0]))
    pieces = []
    for lo, hi in zip(left.tolist(), right.tolist()):
        if not lo < hi:  # no image on this piece, or only a tangency point
            continue
        if pieces and lo <= pieces[-1][1]:
            pieces[-1][1] = hi
        else:
            pieces.append([lo, hi])
    if not pieces:
        raise EmptyImageError("P^{-1}([-1,1]) has empty real section")
    image = IntervalUnion(tuple(x for piece in pieces for x in piece))
    boundary = tuple(sorted(xs.tolist() + y[np.abs(v) == 1.0].tolist()))
    return InverseImageResult(image=image, is_real=is_real, boundary_points=boundary)


def capacity_of_inverse_image(p: Polynomial) -> float:
    """cap P^{-1}([-1,1]) = (2 |c_n|)^{-1/n}, valid when the image is real.

    Realness is read from the critical values alone; no crossing of P = +-1
    is searched.  IllConditionedError therefore judges the rounding estimate
    on the window of the critical points only, the only values the answer
    reads.
    """
    return _capacity(p, _monotone_pieces(p)[0])


def _capacity(p: Polynomial, is_real: bool) -> float:
    # capacity_of_inverse_image once realness is known
    if not is_real:
        raise NonRealImageError(
            "capacity formula requires the full inverse image to be real"
        )
    n = p.degree
    return (2.0 * abs(p.leading)) ** (-1.0 / n)


def composed_minimal_sequence(p: Polynomial, k: int):
    """Monic minimal polynomial of degree k*n on A = P^{-1}([-1,1]) and its deviation.

    The pair is (2/(2 c_n)^k * T_k(P), 2/(2|c_n|)^k); the polynomial is monic
    because T_k(P) has leading coefficient 2^{k-1} c_n^k.  Realness is read
    from the critical values alone; no crossing of P = +-1 is searched, and
    IllConditionedError judges the rounding estimate on the window of the
    critical points only, the only values the answer reads.
    """
    if k < 1:
        raise InvalidInputError("need k >= 1")
    return _composed(p, k, _monotone_pieces(p)[0])


def _composed(p: Polynomial, k: int, is_real: bool):
    # composed_minimal_sequence once realness is known
    if not is_real:
        raise NonRealImageError("composed sequence requires a real inverse image")
    c_n = p.leading
    scale = 2.0 / (2.0 * c_n) ** k
    if not math.isfinite(scale) or scale == 0.0:
        raise InvalidInputError("composition scale overflows double precision")
    poly = scale * compose_T(k, p)
    poly = Polynomial(tuple(poly.coeffs[:-1]) + (1.0,))  # snap the monic lead
    return poly, 2.0 / (2.0 * abs(c_n)) ** k


def verify_sharpness(p: Polynomial) -> SharpnessReport:
    """Check L_n(A) = 2 (cap A)^n by an independent Remez solve on A, to
    SHARPNESS_REL_TOL relative error.

    Also checks that the Remez minimizer is the monic rescale P/c_n itself
    (the k = 1 member of the composed sequence), to SHARPNESS_COEFF_TOL in
    the largest monomial coefficient.
    """
    from .remez import minimal_polynomial

    res = inverse_image(p)
    if not res.is_real:
        raise NonRealImageError("sharpness holds for real inverse images")
    n = p.degree
    cap = _capacity(p, res.is_real)
    theory = 2.0 * cap**n
    solve = minimal_polynomial(res.image, n)
    rel = abs(solve.deviation - theory) / theory
    monic, _ = _composed(p, 1, res.is_real)
    a = np.zeros(n + 1)
    a[: len(monic.coeffs)] = monic.coeffs
    b = np.zeros(n + 1)
    b[: len(solve.poly.coeffs)] = solve.poly.coeffs
    dist = float(np.max(np.abs(a - b)))
    return SharpnessReport(
        degree=n,
        deviation_remez=solve.deviation,
        deviation_theory=theory,
        rel_error=rel,
        coeff_distance=dist,
        deviation_ok=rel <= SHARPNESS_REL_TOL,
        poly_ok=dist <= SHARPNESS_COEFF_TOL,
    )


def symmetric_two_interval_minpoly(alpha: float, n: int):
    """Closed-form minimal polynomial and deviation on [-1,-alpha] u [alpha,1].

    M_n(z) = 2^{1-n} (1-alpha^2)^{n/2} T_{n/2}((2 z^2 - alpha^2 - 1)/(1 - alpha^2)),
    L_n = 2^{1-n} (1-alpha^2)^{n/2}; stated for even n only.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError("alpha must lie strictly between 0 and 1")
    if n < 2 or n % 2 != 0:
        raise InvalidInputError("closed form requires even degree n >= 2")
    w = 1.0 - alpha * alpha
    q = Polynomial(((-alpha * alpha - 1.0) / w, 0.0, 2.0 / w))
    dev = 2.0 ** (1 - n) * w ** (n / 2)
    poly = dev * compose_T(n // 2, q)
    poly = Polynomial(tuple(poly.coeffs[:-1]) + (1.0,))
    return poly, dev


def e_alpha(alpha: float) -> IntervalUnion:
    """The symmetric two-interval set [-1,-alpha] u [alpha,1]."""
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError("alpha must lie strictly between 0 and 1")
    return IntervalUnion((-1.0, -alpha, alpha, 1.0))
