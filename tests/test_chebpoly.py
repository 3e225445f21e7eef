"""Polynomial arithmetic, Chebyshev conversions, and real-root isolation."""

import math

import numpy as np
import numpy.polynomial.chebyshev as npcheb
import numpy.polynomial.polynomial as nppoly
import pytest

from chebcap.chebpoly import (
    ChebExpansion,
    Polynomial,
    autocorrelate,
    cheb_T,
    clenshaw,
    compose_T,
    real_roots_in,
    to_cheb,
    to_monomial,
)
from chebcap.errors import DegreeCapError, InvalidInputError


def from_roots(roots) -> Polynomial:
    return Polynomial(tuple(nppoly.polyfromroots(roots)))


def test_clenshaw_bit_identical_to_chebval():
    # float.hex tells signed zeros apart, so the branches and the final
    # c0 + c1*x must match chebval operation for operation.
    rng = np.random.default_rng(5)
    xs = [-1.0, 1.0, 0.0, -0.0] + rng.uniform(-1.0, 1.0, 12).tolist()
    for length in range(1, 102):
        c = rng.standard_normal(length) * 10.0 ** rng.uniform(-12, 2, length)
        c[rng.random(length) < 0.2] = 0.0
        c[rng.random(length) < 0.1] = -0.0
        coeffs = c.tolist()
        for x in xs:
            want = float(npcheb.chebval(x, c))
            assert clenshaw(x, coeffs).hex() == want.hex(), (length, x)
    for coeffs in ([0.0], [-0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0, -0.0]):
        for x in (-1.0, -0.0, 0.0, 1.0):
            want = float(npcheb.chebval(x, np.array(coeffs)))
            assert clenshaw(x, coeffs).hex() == want.hex(), (coeffs, x)


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
    p = Polynomial((1.0, 2.0, 0.0, 1e-15))
    assert p.degree == 1
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
        s, t = rng.uniform(0.5, 2.0), rng.uniform(-1, 1)
        from chebcap.intervals import AffineMap

        q = p.compose_affine(AffineMap(s, t))
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


def test_autocorrelate_gives_square_modulus_on_circle():
    rng = np.random.RandomState(6)
    for _ in range(50):
        c = rng.uniform(-2, 2, rng.randint(1, 14))
        a = autocorrelate(c)
        theta = rng.uniform(0, 2 * math.pi, 4)
        for th in theta:
            z = complex(math.cos(th), math.sin(th))
            direct = abs(sum(ck * z**k for k, ck in enumerate(c))) ** 2
            series = a[0] + 2.0 * sum(
                a[l] * math.cos(l * th) for l in range(1, len(a))
            )
            assert abs(direct - series) < 1e-10
    with pytest.raises(InvalidInputError):
        autocorrelate([])


# ---------------------------------------------------------------------------
# Root isolation.


def test_roots_linear_and_constant():
    assert real_roots_in(Polynomial((-1.0, 2.0)), 0.0, 1.0) == [(0.5, 1)]
    assert real_roots_in(Polynomial((-1.0, 2.0)), 0.6, 1.0) == []
    assert real_roots_in(Polynomial((3.0,)), -1.0, 1.0) == []
    with pytest.raises(InvalidInputError):
        real_roots_in(Polynomial((0.0,)), -1.0, 1.0)
    with pytest.raises(InvalidInputError):
        real_roots_in(Polynomial((1.0, 1.0)), 1.0, -1.0)


def test_roots_simple_match_companion_eigenvalues():
    rng = np.random.RandomState(9)
    for _ in range(60):
        deg = rng.randint(2, 9)
        roots = np.sort(rng.uniform(-0.95, 0.95, deg))
        while deg > 1 and np.min(np.diff(roots)) < 0.02:
            roots = np.sort(rng.uniform(-0.95, 0.95, deg))
        p = from_roots(roots)
        got = real_roots_in(p, -1.0, 1.0)
        assert [m for _, m in got] == [1] * deg
        ref = np.sort(np.roots(p.coeffs[::-1]).real)
        assert np.max(np.abs(np.array([x for x, _ in got]) - roots)) < 1e-7
        assert np.max(np.abs(np.array([x for x, _ in got]) - ref)) < 1e-6


def test_roots_report_multiplicities():
    p = from_roots([-0.5, 0.3, 0.3])
    got = real_roots_in(p, -1.0, 1.0)
    assert [(round(x, 9), m) for x, m in got] == [(-0.5, 1), (0.3, 2)]
    q = from_roots([0.3, 0.3, 0.3])
    assert real_roots_in(q, -1.0, 1.0) == [(pytest.approx(0.3, abs=1e-7), 3)]
    r = from_roots([-0.2, -0.2, 0.6, 0.6])
    got = real_roots_in(r, -1.0, 1.0)
    assert [m for _, m in got] == [2, 2]


def test_roots_window_independent():
    # the same polynomial isolated over nested windows reports the same roots
    p = from_roots([-0.8, -0.1, -0.1, 0.7])
    expect = [(-0.8, 1), (-0.1, 2), (0.7, 1)]
    for lo, hi in [(-1, 1), (-2, 2), (-3, 3), (-5, 4), (-1.5, 0.9)]:
        got = real_roots_in(p, float(lo), float(hi))
        inside = [(x, m) for x, m in expect if lo <= x <= hi]
        assert len(got) == len(inside)
        for (gx, gm), (ex, em) in zip(got, inside):
            assert gm == em
            assert abs(gx - ex) < 1e-7


def test_roots_tangency_structure_of_shifted_chebyshev():
    # T_8 - 1 vanishes doubly at interior extrema and simply at +-1
    t8 = Polynomial(tuple(np.polynomial.chebyshev.cheb2poly([0] * 8 + [1])))
    minus = t8 - Polynomial((1.0,))
    got = real_roots_in(minus, -1.0, 1.0)
    assert [m for _, m in got] == [1, 2, 2, 2, 1]
    assert sum(m for _, m in got) == 8
    plus = t8 + Polynomial((1.0,))
    got = real_roots_in(plus, -1.0, 1.0)
    assert [m for _, m in got] == [2, 2, 2, 2]
    for x, _ in got:
        assert abs(t8(x) + 1.0) < 1e-9


def test_roots_scaled_chebyshev_all_simple():
    t12 = Polynomial(tuple(np.polynomial.chebyshev.cheb2poly([0] * 12 + [1.05])))
    up = t12 - Polynomial((1.0,))
    down = t12 + Polynomial((1.0,))
    for q in (up, down):
        got = real_roots_in(q, -1.0, 1.0)
        assert [m for _, m in got] == [1] * 12
        for x, _ in got:
            assert abs(q(x)) < 1e-8


def test_roots_outside_window_are_excluded():
    p = from_roots([-2.0, 0.5, 3.0])
    got = real_roots_in(p, -1.0, 1.0)
    assert len(got) == 1
    assert got[0][1] == 1
    assert abs(got[0][0] - 0.5) < 1e-10


def test_cluster_tolerance_merges_near_pairs():
    p = from_roots([0.2, 0.2 + 1e-10])
    got = real_roots_in(p, -1.0, 1.0, cluster_tol=1e-8)
    assert len(got) == 1
    assert got[0][1] == 2
    assert abs(got[0][0] - 0.2) < 1e-6
