"""Polynomial arithmetic, Chebyshev conversions, and the roots of P -+ 1."""

import numpy as np
import numpy.polynomial.polynomial as nppoly
import pytest

from chebcap.chebpoly import (
    ChebExpansion,
    Polynomial,
    cheb_T,
    compose_T,
    to_cheb,
    to_monomial,
)
from chebcap.errors import DegreeCapError
from chebcap.inverse_image import inverse_image


# ---------------------------------------------------------------------------
# Arithmetic and conversions.


def test_polynomial_basics():
    p = Polynomial((1.0, 0.0, -2.0))
    assert p.degree == 2
    assert p.leading == -2.0
    assert p(2.0) == pytest.approx(-7.0)
    assert p.derivative().coeffs == (0.0, -4.0)
    assert (3.0 * p).coeffs == (3.0, 0.0, -6.0)
    assert p.monic().leading == 1.0


def test_trailing_zero_trim():
    p = Polynomial((1.0, 2.0, 0.0, 0.0))
    assert p.degree == 1
    # Only exact zeros go: a small lead is still the lead.
    assert Polynomial((1.0, 2.0, 0.0, 1e-15)).degree == 3
    zero = Polynomial((0.0,))
    assert zero.is_zero


def test_arithmetic_matches_numpy():
    rng = np.random.RandomState(2)
    for _ in range(40):
        a = rng.uniform(-2, 2, rng.randint(1, 7))
        b = rng.uniform(-2, 2, rng.randint(1, 7))
        a[-1] = a[-1] or 1.0
        b[-1] = b[-1] or 1.0
        p, q = Polynomial(tuple(a)), Polynomial(tuple(b))
        assert np.allclose((p * q).coeffs, nppoly.polymul(a, b), atol=1e-12)
        s = nppoly.polyadd(a, b)
        assert np.allclose(np.asarray((p + q).coeffs), np.trim_zeros(s, "b"),
                           atol=1e-12)
        xs = rng.uniform(-1, 1, 8)
        assert np.allclose((p - q)(xs), p(xs) - q(xs), atol=1e-12)


def test_compose_affine_is_substitution():
    rng = np.random.RandomState(3)
    for _ in range(20):
        c = rng.uniform(-2, 2, rng.randint(2, 7))
        c[-1] = 1.0
        p = Polynomial(tuple(c))
        lo = rng.uniform(-1, 1)
        from chebcap.intervals import AffineMap

        a = AffineMap(lo, lo + rng.uniform(1.0, 4.0))
        s, t = a.scale, a.shift
        q = p.compose_affine(a)
        xs = rng.uniform(-2, 2, 16)
        assert np.allclose(q(xs), p(s * xs + t), rtol=1e-12, atol=1e-12)


def test_cheb_T_matches_cosine_form():
    xs = np.linspace(-1.0, 1.0, 201)
    for k in range(9):
        t = cheb_T(k, xs)
        ref = np.cos(k * np.arccos(xs))
        assert np.max(np.abs(t - ref)) < 1e-12


def test_compose_T_nests_chebyshev():
    # T_k(T_m) = T_{km}
    t3 = Polynomial(tuple(np.polynomial.chebyshev.cheb2poly([0, 0, 0, 1])))
    t12 = compose_T(4, t3)
    xs = np.linspace(-1, 1, 101)
    assert np.max(np.abs(t12(xs) - np.cos(12 * np.arccos(xs)))) < 1e-10
    with pytest.raises(DegreeCapError):
        compose_T(60, t3)


def _compose_T_objects(k, p):
    # The recurrence on Polynomial objects, each step trimmed: the reference
    # for compose_T's array recurrence.
    prev, cur = Polynomial((1.0,)), p
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * (p * cur) - prev
    return cur


@pytest.mark.parametrize("c", [1.2, 1.25, 1.3])
def test_compose_T_on_arrays_matches_the_object_recurrence_bit_for_bit(c):
    for m in (3, 4):
        p = Polynomial(tuple(c * np.polynomial.chebyshev.cheb2poly([0] * m + [1])))
        for k in range(1, 9):
            assert compose_T(k, p).coeffs == _compose_T_objects(k, p).coeffs, (c, m, k)


def test_cheb_monomial_roundtrip():
    rng = np.random.RandomState(4)
    for _ in range(30):
        c = rng.uniform(-3, 3, rng.randint(1, 21))
        c[-1] = c[-1] or 1.0
        p = Polynomial(tuple(c))
        q = to_monomial(to_cheb(p))
        assert np.allclose(q.coeffs, p.coeffs, rtol=1e-10, atol=1e-10)
    with pytest.raises(DegreeCapError):
        to_cheb(Polynomial(tuple([0.0] * 101 + [1.0])))


def test_cheb_expansion_evaluates_like_series():
    b = ChebExpansion((0.5, -1.0, 0.25))
    xs = np.linspace(-1, 1, 50)
    ref = 0.5 - np.cos(np.arccos(xs)) + 0.25 * np.cos(2 * np.arccos(xs))
    assert np.allclose(b(xs), ref, atol=1e-13)


# The roots of P -+ 1 on the real line are the boundary points of the inverse
# image P^{-1}([-1, 1]); inverse_image finds them from the critical values.


def test_roots_tangency_structure_of_shifted_chebyshev():
    # T_8 - 1 vanishes doubly at interior extrema and simply at +-1
    t8 = Polynomial(tuple(np.polynomial.chebyshev.cheb2poly([0] * 8 + [1])))
    dt8 = Polynomial(tuple(nppoly.polyder(t8.coeffs)))
    got = inverse_image(t8).boundary_points
    minus = [x for x in got if abs(t8(x) - 1.0) < 1e-9]
    plus = [x for x in got if abs(t8(x) + 1.0) < 1e-9]
    assert len(minus) + len(plus) == len(got)
    assert [2 if abs(dt8(x)) < 1e-6 else 1 for x in minus] == [1, 2, 2, 2, 1]
    assert [2 if abs(dt8(x)) < 1e-6 else 1 for x in plus] == [2, 2, 2, 2]


def test_roots_scaled_chebyshev_all_simple():
    t12 = Polynomial(tuple(np.polynomial.chebyshev.cheb2poly([0] * 12 + [1.05])))
    dt12 = Polynomial(tuple(nppoly.polyder(t12.coeffs)))
    got = inverse_image(t12).boundary_points
    up = t12 - Polynomial((1.0,))
    down = t12 + Polynomial((1.0,))
    for q in (up, down):
        roots = [x for x in got if abs(q(x)) < 1e-8]
        assert len(roots) == 12
        assert all(abs(dt12(x)) > 1e-2 for x in roots)
    assert len(got) == 24
    assert np.all(np.diff(got) > 0.0)
