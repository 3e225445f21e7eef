"""Symmetric arc sets on the unit circle.

A union of intervals C inside [-1, 1] is the projection of the arc set
Gamma = {z : |z| = 1, Re z in C}, which is symmetric about the real axis.
Three facts are implemented here: the capacity relation
cap Gamma = sqrt(2 cap C); a lower bound on the arc sup-norm of a monic
polynomial from its lowest coefficient; and the lift of a monic minimal
polynomial M of degree m on C to a monic polynomial of degree 2m or 2m + 1
whose modulus on the circle is 2^m |M(Re z)|, so L_n(Gamma) <= 2^m L_m(C),
m = n // 2, read straight from the interval deviation.  Together these
bracket L_n(Gamma) without ever solving a complex minimax problem.
"""

from __future__ import annotations

import cmath
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


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple:
    """Golden-section search for the maximum of a unimodal f on [lo, hi]:
    (abscissa, value), the midpoint of the final bracket, narrower than tol,
    and the larger of the two values probed inside it."""
    inv = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo, hi
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b), max(f1, f2)


def arc_sup_norm(p: Polynomial, arcs: ArcSet) -> float:
    """Sup of |p| over the arc set: |p(e^(i theta))| by complex Horner, with
    relative error about eps sum |c_k| / |p|, on a grid over the upper arcs
    theta in [arccos hi, arccos lo] (p is real, so the lower arcs mirror
    them), then golden polish of every grid peak that its sampling error,
    half its second difference, may lift to the best sample: an
    equioscillating p has many near-equal peaks."""

    def modulus(theta):  # Horner on Python complex: numpy's per-scalar cost is most of a polish
        z, v = cmath.exp(1j * theta), 0j
        for c in reversed(p.coeffs):
            v = v * z + c
        return abs(v)

    n_grid = 64 * (p.degree + 1)
    grids = []
    for lo, hi in arcs.projection.intervals:
        # ArcSet admits a projection overhanging [-1, 1] by rounding
        thetas = np.linspace(*np.arccos(np.clip((hi, lo), -1.0, 1.0)), n_grid)
        vals = np.abs(p(np.exp(1j * thetas)))
        padded = np.concatenate(([-np.inf], vals, [-np.inf]))
        peak = (vals > padded[:-2]) & (vals >= padded[2:])  # a plateau once
        sampling = 0.5 * np.abs(np.diff(np.concatenate(([vals[0]], vals, [vals[-1]])), 2))
        grids.append((thetas, vals, peak, vals + sampling))
    best = max(float(vals.max()) for _, vals, _, _ in grids)
    for thetas, vals, peak, reach in grids:
        for i in np.flatnonzero(peak & (reach >= best)):
            a, b = float(thetas[max(i - 1, 0)]), float(thetas[min(i + 1, n_grid - 1)])
            best = max(best, _golden_max(modulus, a, b, 1e-13)[1])
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
