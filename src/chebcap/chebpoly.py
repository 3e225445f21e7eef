"""Polynomial algebra in the monomial and Chebyshev bases.

Monomial coefficients are fine for bookkeeping (leading coefficients, exact
examples, the critical values of inverse images), but on [-1, 1] Horner on
them loses digits to cancellation from about degree 15, where Clenshaw
summation of Chebyshev coefficients does not.  Minimal polynomials are
evaluated in the barycentric form of `leveled`; their coefficients here are
for reporting and for the arc lifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly

from .errors import DegreeCapError, InvalidInputError

# Monomial-basis conversions and compositions are meaningless in doubles far
# beyond this; refuse rather than return noise.
DEGREE_CAP = 100


def _trim(coeffs) -> tuple:
    c = [float(v) for v in coeffs]
    if not c:
        raise InvalidInputError("empty coefficient list")
    if not all(math.isfinite(v) for v in c):
        raise InvalidInputError("coefficients must be finite")
    k = len(c) - 1
    while k > 0 and c[k] == 0.0:
        k -= 1
    return tuple(c[: k + 1])


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial by ascending monomial coefficients, trailing exact zeros
    trimmed: far from the origin a monic lead may be 1e-13 of the others."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> float:
        return self.coeffs[-1]

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def __call__(self, x):
        return nppoly.polyval(x, self.coeffs)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0.0,))
        c = np.asarray(self.coeffs)
        return Polynomial(tuple(c[1:] * np.arange(1, len(c))))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial(tuple(np.convolve(self.coeffs, other.coeffs)))
        return Polynomial(tuple(float(other) * np.asarray(self.coeffs)))

    __rmul__ = __mul__

    def __add__(self, other) -> "Polynomial":
        a, b = list(self.coeffs), list(other.coeffs)
        if len(a) < len(b):
            a, b = b, a
        for i, v in enumerate(b):
            a[i] += v
        return Polynomial(tuple(a))

    def __sub__(self, other) -> "Polynomial":
        return self + (-1.0) * other

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise InvalidInputError("zero polynomial has no monic form")
        return Polynomial(tuple(np.asarray(self.coeffs) / self.leading))

    def compose_affine(self, a) -> "Polynomial":
        """Coefficients of p(scale * x + shift) via Horner in (scale*x + shift)."""
        out = [self.coeffs[-1]]
        for c in reversed(self.coeffs[:-1]):
            out = list(np.convolve(out, [a.shift, a.scale]))
            out[0] += c
        return Polynomial(tuple(out))


@dataclass(frozen=True)
class ChebExpansion:
    """Expansion against T_0 ... T_n on [-1, 1]; evaluated by Clenshaw recurrence."""

    cheb_coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "cheb_coeffs", tuple(float(v) for v in self.cheb_coeffs))
        if not self.cheb_coeffs:
            raise InvalidInputError("empty coefficient list")

    @property
    def degree(self) -> int:
        return len(self.cheb_coeffs) - 1

    def __call__(self, x):
        return npcheb.chebval(x, self.cheb_coeffs)

    def derivative(self) -> "ChebExpansion":
        if self.degree == 0:
            return ChebExpansion((0.0,))
        return ChebExpansion(tuple(npcheb.chebder(self.cheb_coeffs)))


def cheb_T(k: int, x):
    """T_k(x) by the three-term recurrence, valid for all real x (scalar or array)."""
    if k < 0:
        raise InvalidInputError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if k == 0:
        return prev if prev.ndim else float(prev)
    cur = x.copy()
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur if cur.ndim else float(cur)


def compose_T(k: int, p: Polynomial) -> Polynomial:
    """Monomial coefficients of T_k(p(x)), by the recurrence
    T_{j+1}(p) = 2 p T_j(p) - T_{j-1}(p) on coefficient arrays.

    Leading coefficient is 2^(k-1) * leading(p)^k, which is what makes composed
    sequences of minimal polynomials work out.
    """
    if k < 1:
        raise InvalidInputError("compose_T requires k >= 1")
    if k * p.degree > DEGREE_CAP:
        raise DegreeCapError(f"composition degree {k * p.degree} exceeds cap {DEGREE_CAP}")
    c = np.array(p.coeffs)
    prev, cur = np.ones(1), c
    for _ in range(k - 1):
        nxt = 2.0 * np.convolve(c, cur)
        nxt[:len(prev)] -= prev
        prev, cur = cur, nxt
    if not np.all(np.isfinite(cur)):
        raise InvalidInputError("coefficient overflow in Chebyshev composition")
    return Polynomial(tuple(cur))


def to_cheb(p: Polynomial) -> ChebExpansion:
    """Rewrite monomial coefficients against T_0..T_n."""
    if p.degree > DEGREE_CAP:
        raise DegreeCapError(f"degree {p.degree} exceeds conversion cap {DEGREE_CAP}")
    return ChebExpansion(tuple(npcheb.poly2cheb(p.coeffs)))


def to_monomial(b: ChebExpansion) -> Polynomial:
    """Inverse of to_cheb."""
    if b.degree > DEGREE_CAP:
        raise DegreeCapError(f"degree {b.degree} exceeds conversion cap {DEGREE_CAP}")
    return Polynomial(tuple(npcheb.cheb2poly(b.cheb_coeffs)))
