"""Inverse polynomial images P^{-1}([-1,1]) and the sets where L_n = 2 cap^n.

For a degree-n real polynomial whose full complex inverse image of [-1, 1] is
real, the image A satisfies cap A = (2|c_n|)^{-1/n} and the composed sequence
2/(2 c_n)^k T_k(P) realizes L_{kn}(A) = 2 (cap A)^{kn} exactly; these are the
equality cases of the lower bound L_n >= 2 cap^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebpoly import Polynomial, RootChain, compose_T
from .errors import EmptyImageError, InvalidInputError, NonRealImageError
from .intervals import IntervalUnion

# Roots of P -+ 1 closer than this are one boundary point (cluster threshold).
BOUNDARY_CLUSTER = 1e-8
# A critical value this close to +-1 counts as a boundary tangency.
TANGENCY_TOL = 1e-9


@dataclass(frozen=True)
class InverseImageResult:
    """Real section of P^{-1}([-1,1]) with the realness certificate.

    is_real records whether the 2n solutions of P^2 = 1, counted with
    multiplicity (tangencies twice), are all real; exactly then the real
    section is the entire complex inverse image.
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


def _cauchy_bound(p: Polynomial) -> float:
    lead = abs(p.leading)
    return 1.0 + max(abs(c) for c in p.coeffs[:-1]) / lead if p.degree > 0 else 1.0


def inverse_image(p: Polynomial) -> InverseImageResult:
    """The set {x real : -1 <= P(x) <= 1} plus the realness certificate.

    Boundary points are the real solutions of P = +-1, isolated separately for
    the two levels (the squared form P^2 - 1 doubles the coefficient growth
    and loses roots to rounding).  Membership of the cells between consecutive
    boundary points is decided by the sign of (1 - P)(1 + P) at midpoints,
    which absorbs tangency roots that rounding splits or hides.
    """
    if p.degree < 1:
        raise InvalidInputError("inverse image needs degree >= 1")
    n = p.degree
    bound = _cauchy_bound(p) + 1.0
    one = Polynomial((1.0,))
    # P - 1, P + 1 and P' below share the derivative chain P', P'', ...
    chain = RootChain()
    roots_hi = chain.real_roots_in(p - one, -bound, bound, cluster_tol=BOUNDARY_CLUSTER)
    roots_lo = chain.real_roots_in(p + one, -bound, bound, cluster_tol=BOUNDARY_CLUSTER)
    cuts = sorted([r for r, _ in roots_hi] + [r for r, _ in roots_lo])
    boundary = tuple(cuts)

    merged = []
    for r in cuts:
        if merged and r - merged[-1] <= 1e-12:
            continue
        merged.append(r)
    pieces = []
    for a, b in zip(merged, merged[1:]):
        v = p(0.5 * (a + b))
        if (1.0 - v) * (1.0 + v) >= -TANGENCY_TOL:
            if pieces and pieces[-1][1] == a:
                pieces[-1] = (pieces[-1][0], b)
            else:
                pieces.append((a, b))
    if not pieces:
        raise EmptyImageError("P^{-1}([-1,1]) has empty real section")
    image = IntervalUnion(tuple(x for piece in pieces for x in piece))
    if image.ell > n:
        raise InvalidInputError(f"classification produced {image.ell} components for degree {n}")

    # Realness: 2n solutions of P^2 = 1 with multiplicity.  Tangencies (double
    # roots) can drift complex under coefficient rounding and vanish from the
    # isolation, so they are counted from the critical points instead: each
    # critical point y with |P(y)| rounding-close to 1 contributes its order
    # plus one, replacing whatever the isolation found nearby.
    tangent = []
    if n >= 2:
        for y, m in chain.real_roots_in(p.derivative(), -bound, bound):
            if abs(abs(float(p(y))) - 1.0) <= TANGENCY_TOL * max(1.0, abs(float(p(y)))):
                tangent.append((y, m))
    count = 0
    for roots in (roots_hi, roots_lo):
        for r, m in roots:
            if any(abs(r - y) <= BOUNDARY_CLUSTER for y, _ in tangent):
                continue
            count += m
    count += sum(m + 1 for _, m in tangent)
    return InverseImageResult(image=image, is_real=(count == 2 * n), boundary_points=boundary)


def capacity_of_inverse_image(p: Polynomial) -> float:
    """cap P^{-1}([-1,1]) = (2 |c_n|)^{-1/n}, valid when the image is real."""
    return _capacity(p, inverse_image(p))


def _capacity(p: Polynomial, res: InverseImageResult) -> float:
    # capacity_of_inverse_image for an image already computed
    if not res.is_real:
        raise NonRealImageError(
            "capacity formula requires the full inverse image to be real"
        )
    n = p.degree
    return (2.0 * abs(p.leading)) ** (-1.0 / n)


def composed_minimal_sequence(p: Polynomial, k: int):
    """Monic minimal polynomial of degree k*n on A = P^{-1}([-1,1]) and its deviation.

    The pair is (2/(2 c_n)^k * T_k(P), 2/(2|c_n|)^k); the polynomial is monic
    because T_k(P) has leading coefficient 2^{k-1} c_n^k.
    """
    if k < 1:
        raise InvalidInputError("need k >= 1")
    return _composed(p, k, inverse_image(p))


def _composed(p: Polynomial, k: int, res: InverseImageResult):
    # composed_minimal_sequence for an image already computed
    if not res.is_real:
        raise NonRealImageError("composed sequence requires a real inverse image")
    c_n = p.leading
    scale = 2.0 / (2.0 * c_n) ** k
    if not math.isfinite(scale) or scale == 0.0:
        raise InvalidInputError("composition scale overflows double precision")
    poly = scale * compose_T(k, p)
    poly = Polynomial(tuple(poly.coeffs[:-1]) + (1.0,))  # snap the monic lead
    return poly, 2.0 / (2.0 * abs(c_n)) ** k


def verify_sharpness(p: Polynomial, rel_tol: float = 1e-7,
                     coeff_tol: float = 1e-6) -> SharpnessReport:
    """Check L_n(A) = 2 (cap A)^n by an independent Remez solve on A.

    Also checks that the Remez minimizer is the monic rescale P/c_n itself
    (the k = 1 member of the composed sequence).
    """
    from .remez import minimal_polynomial

    res = inverse_image(p)
    if not res.is_real:
        raise NonRealImageError("sharpness holds for real inverse images")
    n = p.degree
    cap = _capacity(p, res)
    theory = 2.0 * cap**n
    solve = minimal_polynomial(res.image, n)
    rel = abs(solve.deviation - theory) / theory
    monic, _ = _composed(p, 1, res)
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
        deviation_ok=rel <= rel_tol,
        poly_ok=dist <= coeff_tol,
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
