"""Symmetric arc sets on the unit circle.

A union of intervals C inside [-1, 1] is the projection of the arc set
Gamma = {z : |z| = 1, Re z in C}, which is symmetric about the real axis.
Three facts are implemented here: the capacity relation
cap Gamma = sqrt(2 cap C); the reduction of |P(z)| on the circle to a
Chebyshev series in Re z, which turns arc sup-norms into interval maxima;
and the lifting of a monic minimal polynomial on C to a monic polynomial
of doubled degree on Gamma whose sup-norm is an explicit multiple of the
interval deviation.  Together these bracket the arc deviation L_n(Gamma)
without ever solving a complex minimax problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as npcheb

from .capacity import golden_max
from .chebpoly import ChebExpansion, Polynomial, autocorrelate, clenshaw, to_cheb
from .errors import ConvergenceError, InvalidInputError
from .intervals import IntervalUnion
from .remez import minimal_polynomial

# Monomial coefficients below this are treated as exact zeros when locating
# the lowest nonvanishing one.
COEFF_TOL = 1e-13


@dataclass(frozen=True)
class ArcSet:
    """Arcs {z : |z| = 1, Re z in projection}."""

    projection: IntervalUnion

    def __post_init__(self):
        lo, hi = self.projection.hull
        if lo < -1.0 - 1e-12 or hi > 1.0 + 1e-12:
            raise InvalidInputError("arc projection must lie inside [-1, 1]")


@dataclass(frozen=True)
class ArcBoundReport:
    """Certified lower bound on an arc sup-norm, with the attained value."""

    n: int
    k_star: int
    b_kstar: float
    lower: float
    sup_norm: float
    cap_gamma: float


def robinson_capacity(cap_c: float) -> float:
    """Capacity of the arc set from the capacity of its projection:
    cap Gamma = sqrt(2 cap C)."""
    if not 0.0 < cap_c <= 0.5 + 1e-12:
        raise InvalidInputError(
            f"projection capacity must lie in (0, 1/2], got {cap_c!r}"
        )
    return math.sqrt(2.0 * cap_c)


def _series_max(c, a: float, b: float, n_grid: int) -> float:
    """Max of a Chebyshev series on [a, b]: dense grid, then golden polish
    of the winning cell pair."""
    xs = np.linspace(a, b, n_grid)
    vals = npcheb.chebval(xs, c)
    i = int(np.argmax(vals))
    lo = float(xs[max(i - 1, 0)])
    hi = float(xs[min(i + 1, n_grid - 1)])
    return max(float(vals[i]), golden_max(lambda x: clenshaw(x, c), lo, hi, 1e-13)[1])


def arc_sup_norm(p: Polynomial, arcs: ArcSet) -> float:
    """Sup of |p| over the arc set.

    On |z| = 1 with real coefficients, |p(z)|^2 collapses to a Chebyshev
    series in x = Re z with autocorrelation coefficients, so the complex
    maximum is a real one over the projection.
    """
    if p.is_zero:
        return 0.0
    a_coeffs = autocorrelate(p.coeffs)
    series = [a_coeffs[0]] + [2.0 * v for v in a_coeffs[1:]]
    n_grid = 64 * (p.degree + 1)
    best = 0.0
    for lo, hi in arcs.projection.intervals:
        best = max(best, _series_max(series, lo, hi, n_grid))
    # the series is |p|^2, nonnegative up to rounding
    return math.sqrt(max(best, 0.0))


def arc_lower_bound(p: Polynomial, arcs: ArcSet, cap_gamma: float) -> ArcBoundReport:
    """Lower bound sqrt(2 |b_{k*}|) cap_gamma^(n - k*) on the arc sup-norm
    of a monic p, where k* indexes the lowest nonvanishing coefficient.

    Valid whenever cap_gamma does not exceed the capacity of the arc set;
    the report carries the attained sup-norm so slack is visible.
    """
    n = p.degree
    if n < 1 or abs(p.leading - 1.0) > 1e-9:
        raise InvalidInputError("need a monic polynomial of degree at least 1")
    if not 0.0 < cap_gamma < math.inf:
        raise InvalidInputError(f"capacity must be positive, got {cap_gamma!r}")
    k_star = next(k for k, c in enumerate(p.coeffs) if abs(c) > COEFF_TOL)
    if k_star == n:
        raise InvalidInputError(
            "pure power z^n: no lower coefficient, the bound does not apply"
        )
    b = p.coeffs[k_star]
    lower = math.sqrt(2.0 * abs(b)) * cap_gamma ** (n - k_star)
    return ArcBoundReport(
        n=n,
        k_star=k_star,
        b_kstar=float(b),
        lower=lower,
        sup_norm=arc_sup_norm(p, arcs),
        cap_gamma=cap_gamma,
    )


def _monic_cheb(m_exp: ChebExpansion, m: int) -> tuple:
    if m_exp.degree != m:
        raise InvalidInputError(
            f"expansion has degree {m_exp.degree}, expected {m}"
        )
    b = m_exp.cheb_coeffs
    target = 1.0 if m == 0 else 2.0 ** (1 - m)
    if abs(b[m] - target) > 1e-9 * target:
        raise InvalidInputError(
            f"leading Chebyshev coefficient {b[m]!r} is not the monic "
            f"normalization {target!r}"
        )
    return b


def lift_even(m_exp: ChebExpansion, m: int) -> Polynomial:
    """Degree-2m monic lift of a monic degree-m polynomial M on the
    projection: 2^m z^m sum_k (b_k / 2)(z^k + z^-k), whose modulus on the
    circle is 2^m |M(Re z)|."""
    b = _monic_cheb(m_exp, m)
    coeffs = [0.0] * (2 * m + 1)
    coeffs[m] += 2.0**m * b[0]
    for k in range(1, m + 1):
        coeffs[m + k] += 2.0 ** (m - 1) * b[k]
        coeffs[m - k] += 2.0 ** (m - 1) * b[k]
    return Polynomial(tuple(coeffs))


def lift_odd(m_exp: ChebExpansion, m: int) -> Polynomial:
    """Degree-(2m+1) monic lift: the even lift times z, same modulus on the
    circle."""
    return Polynomial((0.0,) + lift_even(m_exp, m).coeffs)


def arc_deviation_upper(arcs: ArcSet, n: int) -> float:
    """Constructive upper bound on the degree-n arc deviation L_n(Gamma):
    the sup-norm of the lifted minimal polynomial of degree floor(n/2) on
    the projection, which evaluates to 2^m L_m(C)."""
    if n < 1:
        raise InvalidInputError("degree must be at least 1")
    m = n // 2
    if m == 0:
        lifted = lift_odd(ChebExpansion((1.0,)), 0)
        return arc_sup_norm(lifted, arcs)
    result = minimal_polynomial(arcs.projection, m)
    m_exp = to_cheb(result.poly)
    lifted = lift_even(m_exp, m) if n % 2 == 0 else lift_odd(m_exp, m)
    sup = arc_sup_norm(lifted, arcs)
    expected = 2.0**m * result.deviation
    if abs(sup - expected) > 1e-9 * max(1.0, expected):
        raise ConvergenceError(
            f"lift sup-norm {sup!r} disagrees with 2^m L_m = {expected!r}"
        )
    return sup
