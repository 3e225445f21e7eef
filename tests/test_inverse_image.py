"""Inverse images of [-1, 1]: realness, capacity, composed sequences."""

import importlib
import math

import numpy as np
import numpy.polynomial.chebyshev as npcheb
import pytest

from oracles import grid_sup_norm

from chebcap.chebpoly import Polynomial
from chebcap.errors import (
    ChebcapError,
    EmptyImageError,
    IllConditionedError,
    InvalidInputError,
    NonRealImageError,
)
from chebcap.inverse_image import (
    InverseImageResult,
    _capacity,
    _composed,
    capacity_of_inverse_image,
    composed_minimal_sequence,
    e_alpha,
    inverse_image,
    symmetric_two_interval_minpoly,
    verify_sharpness,
)
from chebcap.remez import minimal_polynomial

# the module, which the package's inverse_image function shadows
_inverse_image = importlib.import_module("chebcap.inverse_image")


def cheb(k: int, scale: float = 1.0) -> Polynomial:
    return Polynomial(tuple(scale * npcheb.cheb2poly([0] * k + [1])))


def test_chebyshev_images_are_the_full_interval():
    for k in (2, 3, 4, 8):
        res = inverse_image(cheb(k))
        assert res.is_real
        assert res.image.ell == 1
        assert np.allclose(res.image.endpoints, (-1.0, 1.0), atol=1e-9)


def test_scaled_chebyshev_splits_into_components():
    res = inverse_image(cheb(3, 1.2))
    assert res.is_real
    assert res.image.ell == 3
    # each band maps onto [-1, 1]: check the outermost endpoints
    p = cheb(3, 1.2)
    for x in res.image.endpoints:
        assert abs(abs(p(x)) - 1.0) < 1e-9


def closed_form_endpoints(k: int, c: float) -> np.ndarray:
    # c T_k = +-1 where cos(k theta) = +-1/c: k theta = (m + 1/2) pi +- arcsin(1/c)
    d = math.asin(1.0 / c)
    return np.sort([math.cos(((m + 0.5) * math.pi + s * d) / k)
                    for m in range(k) for s in (1.0, -1.0)])


def test_scaled_chebyshev_images_match_closed_form():
    for k in range(2, 21):
        tol = 1e-12 if k <= 10 else 1e-10
        for c in (1.05, 1.1, 1.2, 1.25, 1.3, 1.5, 1.6, 2.0):
            res = inverse_image(cheb(k, c))
            assert res.is_real, (k, c)
            assert res.image.ell == k, (k, c)
            err = np.max(np.abs(np.array(res.image.endpoints) - closed_form_endpoints(k, c)))
            assert err <= tol, (k, c, err)


def test_chebyshev_boundary_points_are_the_extrema():
    # T_k = +-1 exactly at cos(j pi / k): the interior ones are tangencies,
    # which must neither split [-1, 1] nor go missing
    for k in range(2, 21):
        res = inverse_image(cheb(k))
        assert res.is_real, k
        assert res.image.ell == 1, k
        assert np.allclose(res.image.endpoints, (-1.0, 1.0), rtol=0.0, atol=1e-11), k
        extrema = np.sort(np.cos(np.arange(k + 1) * math.pi / k))
        assert np.allclose(res.boundary_points, extrema, rtol=0.0, atol=1e-9), k


def test_contracted_chebyshev_never_real():
    # |0.8 T_k| <= 1 on the one interval where |T_k| <= 1.25
    for k in range(2, 21):
        res = inverse_image(cheb(k, 0.8))
        assert not res.is_real, k
        edge = math.cosh(math.acosh(1.25) / k)
        assert np.allclose(res.image.endpoints, (-edge, edge), rtol=0.0, atol=1e-10), k


def test_critical_values_on_one_side_are_not_real():
    # x^3 - 0.03 x + 10: |P| >= 1 at both critical points (10.002, 9.998), but
    # the minimum is not <= -1, so P = 0 has only one real solution
    res = inverse_image(Polynomial((10.0, -0.03, 0.0, 1.0)))
    assert not res.is_real
    assert res.image.ell == 1


def _no_crossing_search(*args):
    raise AssertionError("the crossing search ran")


def test_high_degree_monomial_chebyshev_is_right_or_refused(monkeypatch):
    answered = 0
    for k in range(21, 41):
        try:
            res = inverse_image(cheb(k))
        except IllConditionedError as exc:
            assert "rounding estimate" in str(exc)
            continue
        answered += 1
        assert res.is_real, k
        assert res.image.ell == 1, k
        assert np.allclose(res.image.endpoints, (-1.0, 1.0), rtol=0.0, atol=1e-9), k
    assert answered >= 4  # T_21..T_24 lie far below the rounding limit
    with pytest.raises(IllConditionedError, match=r"rounding estimate .* = 0\.2"):
        inverse_image(cheb(40))
    # the estimate on the critical points alone already exceeds the limit,
    # so these are refused before any crossing is searched
    monkeypatch.setattr(_inverse_image, "_crossings", _no_crossing_search)
    for k in (30, 35, 40):
        with pytest.raises(IllConditionedError, match="rounding estimate"):
            inverse_image(cheb(k))


def test_linear_and_constant_inputs():
    res = inverse_image(Polynomial((-1.0, 2.0)))
    assert res.is_real
    assert res.image.endpoints == (0.0, 1.0)
    assert res.boundary_points == (0.0, 1.0)
    res = inverse_image(Polynomial((0.0, 0.1)))  # crossings beyond 1 + |c_0|/|c_1|
    assert res.image.endpoints == pytest.approx((-10.0, 10.0), abs=1e-12)
    with pytest.raises(InvalidInputError):
        inverse_image(Polynomial((3.0,)))


def test_contracted_chebyshev_is_not_real():
    res = inverse_image(cheb(3, 0.8))
    assert not res.is_real
    with pytest.raises(NonRealImageError):
        capacity_of_inverse_image(cheb(3, 0.8))


def test_two_interval_quadratic():
    p = Polynomial((-3.0, 0.0, 2.0))
    res = inverse_image(p)
    assert res.is_real
    assert res.image.ell == 2
    expect = (-math.sqrt(2), -1.0, 1.0, math.sqrt(2))
    assert np.allclose(res.image.endpoints, expect, atol=1e-9)
    assert capacity_of_inverse_image(p) == pytest.approx(0.5, abs=1e-12)


def test_empty_image_raises():
    p = Polynomial((5.0, 0.0, 1.0))
    with pytest.raises(EmptyImageError):
        inverse_image(p)
    with pytest.raises(EmptyImageError):
        composed_minimal_sequence(p, 1)
    with pytest.raises(EmptyImageError):
        capacity_of_inverse_image(p)


def _random_images(count):
    # s (T_m + sum_{i<m} a_i T_i): real and non-real images of degree 2..8
    rng = np.random.RandomState(5)
    for _ in range(count):
        m = int(rng.randint(2, 9))
        a = np.append(rng.uniform(-0.3, 0.3, m), 1.0)
        yield Polynomial(tuple(float(rng.uniform(0.5, 3.0)) * npcheb.cheb2poly(a)))


def _outcome(f, *args):
    try:
        return f(*args)
    except ChebcapError as exc:
        return type(exc)


# T_k up to the rounding limit, c T_k with bands down to 1e-3 wide, and
# random real and non-real images
_FAMILIES = (
    [pytest.param(cheb(k), id=f"T_{k}") for k in range(2, 27)]
    + [pytest.param(cheb(k, c), id=f"{c:g}*T_{k}")
       for c in (1.05, 1.25, 2.0, 10.0, 1e3) for k in range(3, 7)]
    + [pytest.param(p, id=f"random-{i}") for i, p in enumerate(_random_images(16))]
)


@pytest.mark.parametrize("p", _FAMILIES)
def test_sequence_and_capacity_need_no_crossing_search(p, monkeypatch):
    # the full image decides realness; the sequence and the capacity must
    # agree with it bit for bit while reading the critical values alone
    res = _outcome(inverse_image, p)
    is_real = res.is_real if isinstance(res, InverseImageResult) else None
    expect = [res if is_real is None else _outcome(_composed, p, k, is_real)
              for k in (1, 2, 4, 8)]
    expect_cap = res if is_real is None else _outcome(_capacity, p, is_real)
    monkeypatch.setattr(_inverse_image, "_crossings", _no_crossing_search)
    got = [_outcome(composed_minimal_sequence, p, k) for k in (1, 2, 4, 8)]
    assert got == expect
    assert _outcome(capacity_of_inverse_image, p) == expect_cap


@pytest.mark.parametrize("p", _FAMILIES)
def test_crossings_land_within_an_ulp(p):
    # Every boundary point that is not a tangency is a crossing of P = +-1,
    # within an ulp of the exact one: P - level, evaluated in twice the
    # working precision, is at most an ulp's step along the slope.
    res = inverse_image(p)
    _, _, _, y, _, v, *_ = _inverse_image._monotone_pieces(p)
    c, dp = np.asarray(p.coeffs), p.derivative()
    crossings = [x for x in res.boundary_points if x not in y[np.abs(v) == 1.0]]
    assert crossings
    for x in crossings:
        level = math.copysign(1.0, p(x))
        residual = _inverse_image._compensated_residual(c, np.array([x]), level)[0]
        bound = math.ulp(x) * abs(dp(x))
        assert abs(residual) <= bound, (x, residual / bound)


@pytest.mark.parametrize(
    "p",
    [pytest.param(cheb(k), id=f"T_{k}") for k in range(5, 26)]
    + [pytest.param(cheb(k, 1.25), id=f"1.25*T_{k}") for k in (3, 4)],
)
def test_crossings_run_no_scan_and_no_outer_bracket(p, monkeypatch):
    # Two evaluations find the critical points; the crossings start from
    # the critical points' Taylor models, with no scan of the pieces and no
    # bracket evaluation on the outer ones: Newton and the last compensated
    # step take the rest, at most 9 in all.
    calls = []
    values = _inverse_image._values

    def counting(*args):
        calls.append(None)
        return values(*args)

    monkeypatch.setattr(_inverse_image, "_values", counting)
    inverse_image(p)
    assert len(calls) <= 9


def test_capacity_of_chebyshev_inverse_image():
    # cap [-1,1] = 1/2 through the formula at every degree
    for k in (2, 3, 5):
        assert capacity_of_inverse_image(cheb(k)) == pytest.approx(0.5, abs=1e-13)
    assert capacity_of_inverse_image(cheb(4, 1.05)) == pytest.approx(
        (2.0 * 1.05 * 8.0) ** -0.25, abs=1e-13
    )


def test_composed_sequence_small_cases():
    t2 = cheb(2)
    p1, d1 = composed_minimal_sequence(t2, 1)
    assert np.allclose(p1.coeffs, (-0.5, 0.0, 1.0), atol=1e-14)
    assert d1 == pytest.approx(0.5)
    p2, d2 = composed_minimal_sequence(t2, 2)
    assert np.allclose(p2.coeffs, (0.125, 0.0, -1.0, 0.0, 1.0), atol=1e-14)
    assert d2 == pytest.approx(0.125)
    q = Polynomial((-3.0, 0.0, 2.0))
    p3, d3 = composed_minimal_sequence(q, 1)
    assert np.allclose(p3.coeffs, (-1.5, 0.0, 1.0), atol=1e-14)
    assert d3 == pytest.approx(0.5)
    with pytest.raises(InvalidInputError):
        composed_minimal_sequence(t2, 0)
    with pytest.raises(NonRealImageError):
        composed_minimal_sequence(cheb(3, 0.8), 1)


def test_composed_sequence_attains_deviation_on_the_set():
    p = cheb(3, 1.2)
    a = inverse_image(p).image
    for k in (1, 2, 3):
        poly, dev = composed_minimal_sequence(p, k)
        assert poly.degree == 3 * k
        assert poly.leading == 1.0
        sup = grid_sup_norm(poly.coeffs, a.intervals)
        assert sup == pytest.approx(dev, rel=1e-8)


def test_composed_deviation_matches_independent_solve():
    p = Polynomial((-3.0, 0.0, 2.0))
    a = inverse_image(p).image
    for k in (1, 2, 3):
        _, dev = composed_minimal_sequence(p, k)
        solved = minimal_polynomial(a, 2 * k).deviation
        assert solved == pytest.approx(dev, rel=1e-9)


def test_sharpness_reports():
    r = verify_sharpness(cheb(3))
    assert r.passed
    assert r.rel_error < 1e-9
    r2 = verify_sharpness(Polynomial((-3.0, 0.0, 2.0)))
    assert r2.passed
    assert r2.coeff_distance < 1e-9


def test_symmetric_pair_formula():
    poly, dev = symmetric_two_interval_minpoly(0.5, 2)
    assert np.allclose(poly.coeffs, (-0.625, 0.0, 1.0), atol=1e-14)
    assert dev == pytest.approx(0.375)
    poly6, dev6 = symmetric_two_interval_minpoly(0.6, 2)
    assert np.allclose(poly6.coeffs, (-0.68, 0.0, 1.0), atol=1e-14)
    assert dev6 == pytest.approx(0.32)
    _, dev4 = symmetric_two_interval_minpoly(0.5, 4)
    assert dev4 == pytest.approx(0.0703125)
    with pytest.raises(InvalidInputError):
        symmetric_two_interval_minpoly(0.5, 3)
    with pytest.raises(InvalidInputError):
        symmetric_two_interval_minpoly(1.5, 2)


def test_e_alpha_set():
    e = e_alpha(0.6)
    assert e.endpoints == (-1.0, -0.6, 0.6, 1.0)
    with pytest.raises(InvalidInputError):
        e_alpha(0.0)


def test_realness_count_on_random_tangent_families():
    # c T_k with c >= 1 always has a real inverse image; c < 1 never does
    rng = np.random.RandomState(21)
    for _ in range(20):
        k = int(rng.randint(2, 7))
        c = float(rng.uniform(1.0, 1.6))
        assert inverse_image(cheb(k, c)).is_real
        c_small = float(rng.uniform(0.3, 0.95))
        assert not inverse_image(cheb(k, c_small)).is_real


def test_boundary_points_evaluate_to_unit_values():
    p = cheb(4, 1.3)
    res = inverse_image(p)
    for x in res.image.endpoints:
        assert abs(p(x)) == pytest.approx(1.0, abs=1e-9)
