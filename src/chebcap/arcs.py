"""Symmetric arc sets on the unit circle.

A union of intervals C inside [-1, 1] is the projection of the arc set
Gamma = {z : |z| = 1, Re z in C}, which is symmetric about the real axis.
Three facts are implemented here: the capacity relation
cap Gamma = sqrt(2 cap C); a lower bound on the arc sup-norm of a monic
polynomial from its lowest coefficient; and the lift of a monic minimal
polynomial M of degree m on C to a monic polynomial of degree 2m or 2m + 1
whose modulus on the circle is 2^m |M(Re z)|, so L_n(Gamma) <= 2^m L_m(C),
m = n // 2, read straight from the interval deviation.  Together these
bracket L_n(Gamma) without ever solving a complex minimax problem.  The
sup-norm on the arcs is taken at the critical points of |p|^2 found by
Newton's method from a grid, exact up to the noise of complex Horner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebpoly import ChebExpansion, Polynomial
from .errors import InvalidInputError
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


def arc_sup_norm(p: Polynomial, arcs: ArcSet) -> float:
    """Sup of |p| over the arc set, with relative error about
    eps sum |c_k| / |p|, the noise of complex Horner.  p is real, so the
    upper arcs theta in [arccos hi, arccos lo] suffice.  A grid of 64(N + 1)
    angles per arc finds each peak's basin, and from every grid peak four
    Newton steps on d|p|^2/dtheta, taken where |p|^2 is concave and clipped
    to the arc, reach the peak: an equioscillating p has many near-equal
    peaks.  The value is the largest |p| on the grid or at a step."""
    c = np.asarray(p.coeffs, dtype=float)[::-1]
    n_grid = 64 * (p.degree + 1)
    best = 0.0
    for lo, hi in arcs.projection.intervals:
        # ArcSet admits a projection overhanging [-1, 1] by rounding
        t0, t1 = np.arccos(np.clip((hi, lo), -1.0, 1.0))
        thetas = np.linspace(t0, t1, n_grid)
        vals = np.abs(p(np.exp(1j * thetas)))
        padded = np.concatenate(([-np.inf], vals, [-np.inf]))
        t = thetas[(vals > padded[:-2]) & (vals >= padded[2:])]  # a plateau once
        best = max(best, float(vals.max()))
        for _ in range(5):  # four steps, each valued by the next pass
            z = np.exp(1j * t)
            v, d1, d2 = np.full_like(z, c[0]), np.zeros_like(z), np.zeros_like(z)
            for ck in c[1:]:  # p, p' and p''/2 in one pass
                d2 = d2 * z + d1
                d1 = d1 * z + v
                v = v * z + ck
            best = max(best, float(np.abs(v).max()))
            dv = 1j * z * d1  # theta-derivatives of p(e^(i theta))
            d2v = -z * (d1 + 2.0 * z * d2)
            slope = (v.conj() * dv).real  # halves of d|p|^2/dtheta and d2|p|^2/dtheta2
            curv = np.abs(dv) ** 2 + (v.conj() * d2v).real
            t = np.clip(t - slope / np.where(curv < 0.0, curv, -np.inf), t0, t1)
    return best


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
    2^m L_m(C) with m = n // 2, the sup-norm on Gamma of either lift of the
    minimal polynomial of degree m on the projection.  At n = 1 it is the
    sup of |z|, 1."""
    if n < 1:
        raise InvalidInputError("degree must be at least 1")
    m = n // 2
    if m == 0:
        return 1.0
    return 2.0**m * minimal_polynomial(arcs.projection, m).deviation
