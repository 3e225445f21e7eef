"""Exchange solver: closed forms, alternation, covariance, blow-up, witness."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from oracles import grid_sup_norm, minimax_deviation_oracle

from chebcap.chebpoly import Polynomial
from chebcap.errors import DegreeCapError, InvalidInputError
from chebcap.intervals import IntervalUnion, is_subset, normalize
from chebcap.inverse_image import e_alpha, inverse_image, symmetric_two_interval_minpoly
from chebcap.leveled import equilibrium, evaluate, weights_and_level
from chebcap.remez import (
    _angle_lengths,
    _error_extrema,
    _init_reference,
    _select_reference,
    _solve_on_reference,
    blow_up_set,
    minimal_polynomial,
    minimality_witness,
)

FULL = IntervalUnion((-1.0, 1.0))


def test_single_interval_closed_form():
    for n in range(1, 21):
        r = minimal_polynomial(FULL, n)
        assert r.deviation == pytest.approx(2.0 ** (1 - n), rel=1e-9)
        assert r.iterations >= 1
        assert r.residual <= 1e-9 * r.deviation + 1e-15


def test_degree_three_coefficients():
    r = minimal_polynomial(FULL, 3)
    assert r.deviation == pytest.approx(0.25, abs=1e-12)
    assert np.allclose(r.poly.coeffs, [0.0, -0.75, 0.0, 1.0], atol=1e-9)


def test_shifted_interval_linear():
    r = minimal_polynomial(IntervalUnion((0.0, 1.0)), 1)
    assert r.deviation == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(r.poly.coeffs, [-0.5, 1.0], atol=1e-12)


def test_symmetric_pair_closed_form():
    for alpha in (0.3, 0.5, 0.7):
        e = e_alpha(alpha)
        for n in (2, 4, 6):
            r = minimal_polynomial(e, n)
            expect = 2.0 ** (1 - n) * (1 - alpha * alpha) ** (n / 2)
            assert r.deviation == pytest.approx(expect, rel=1e-9)
            formula, dev = symmetric_two_interval_minpoly(alpha, n)
            assert dev == pytest.approx(expect, rel=1e-14)
            a = np.zeros(n + 1)
            a[: len(formula.coeffs)] = formula.coeffs
            b = np.zeros(n + 1)
            b[: len(r.poly.coeffs)] = r.poly.coeffs
            assert np.max(np.abs(a - b)) < 1e-8


def test_alternation_points_equioscillate():
    e = IntervalUnion((-1.0, -0.3, 0.2, 1.0))
    r = minimal_polynomial(e, 5)
    pts = np.array(r.alternation_points)
    assert len(pts) >= 6
    vals = r.evaluate(pts)
    assert np.max(np.abs(np.abs(vals) - r.deviation)) <= 1e-8 * r.deviation
    signs = np.sign(vals)
    assert np.all(signs[1:] * signs[:-1] == -1.0)


def test_deviation_is_attained_sup():
    e = IntervalUnion((-1.0, -0.2, 0.3, 1.0))
    for n in (2, 4, 7):
        r = minimal_polynomial(e, n)
        sup = grid_sup_norm(r.poly.coeffs, e.intervals)
        assert sup <= r.deviation * (1 + 1e-9)
        assert sup >= r.deviation * (1 - 1e-7)


def test_affine_covariance():
    rng = np.random.RandomState(13)
    base = IntervalUnion((-1.0, -0.4, 0.1, 1.0))
    for _ in range(10):
        s = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        t = rng.uniform(-2.0, 2.0)
        mapped = IntervalUnion(tuple(sorted(s * x + t for x in base.endpoints)))
        for n in (1, 3, 6):
            a = minimal_polynomial(base, n).deviation
            b = minimal_polynomial(mapped, n).deviation
            assert b == pytest.approx(abs(s) ** n * a, rel=1e-10)


def test_matches_bruteforce_oracle():
    cases = [
        (FULL, 2),
        (IntervalUnion((0.0, 1.0)), 2),
        (e_alpha(0.5), 3),
        (IntervalUnion((-1.0, 0.0, 0.5, 1.0)), 3),
    ]
    for e, n in cases:
        dev = minimal_polynomial(e, n).deviation
        oracle = minimax_deviation_oracle(e.intervals, n)
        assert abs(dev - oracle) < 1e-6


def test_validation_errors():
    with pytest.raises(InvalidInputError):
        minimal_polynomial(FULL, 0)
    with pytest.raises(DegreeCapError):
        minimal_polynomial(FULL, 101)


def test_blow_up_fixed_points_and_growth():
    r = minimal_polynomial(FULL, 4)
    b = blow_up_set(FULL, r)
    assert b.ell_prime == 1
    assert np.allclose(b.c_prime.endpoints, (-1.0, 1.0), atol=1e-9)

    e = e_alpha(0.5)
    r2 = minimal_polynomial(e, 2)
    b2 = blow_up_set(e, r2)
    assert b2.ell_prime == 2
    assert np.allclose(b2.c_prime.endpoints, e.endpoints, atol=1e-7)

    r1 = minimal_polynomial(e, 1)
    b1 = blow_up_set(e, r1)
    assert b1.ell_prime == 1
    assert np.allclose(b1.c_prime.endpoints, (-1.0, 1.0), atol=1e-7)


def test_blow_up_contains_original_set():
    rng = np.random.RandomState(17)
    for _ in range(20):
        ell = rng.randint(2, 4)
        pts = np.sort(rng.uniform(-1, 1, 2 * ell))
        while np.min(np.diff(pts)) < 0.1:
            pts = np.sort(rng.uniform(-1, 1, 2 * ell))
        pts[0], pts[-1] = -1.0, 1.0
        e = IntervalUnion(tuple(pts))
        n = int(rng.randint(1, 7))
        r = minimal_polynomial(e, n)
        b = blow_up_set(e, r)
        assert is_subset(e, b.c_prime, tol=1e-7)
        assert b.ell_prime <= n


def test_minimality_witness_passes_on_true_solution():
    e = e_alpha(0.5)
    r = minimal_polynomial(e, 4)
    w = minimality_witness(e, r)
    assert w.sup_ok and w.alternation_ok
    assert w.passed


def test_solver_accuracy_random_unions():
    rng = np.random.RandomState(23)
    for _ in range(25):
        ell = rng.randint(1, 4)
        pts = np.sort(rng.uniform(-1, 1, 2 * ell))
        while ell > 1 and np.min(np.diff(pts)) < 0.1:
            pts = np.sort(rng.uniform(-1, 1, 2 * ell))
        e = IntervalUnion(tuple(pts))
        n = int(rng.randint(1, 13))
        r = minimal_polynomial(e, n)
        assert r.residual <= 1e-6 * r.deviation
        # sup in the stable basis: the monomial form cancels catastrophically
        # once deviations shrink toward the coefficient noise floor
        sup = max(
            float(np.max(np.abs(r.evaluate(np.linspace(a, b, 4001)))))
            for a, b in e.intervals
        )
        assert sup <= r.deviation * (1 + 1e-9)
        assert sup >= r.deviation * (1 - 1e-7)


def _error_extrema_numpy_scalar(ct, e, n):
    """Reference: the extremum search with one numpy-scalar chebval per
    bisection step and per candidate, as the solver first ran it."""
    der = npcheb.chebder(ct)
    mu = _angle_lengths(e)
    total = sum(mu)
    out = []
    for (a, b), w in zip(e.intervals, mu):
        k = max(24, int(16 * (n + 1) * w / total) + 8)
        xs = np.linspace(a, b, k)
        dv = npcheb.chebval(xs, der)
        locs = [a, b]
        for i in range(k - 1):
            da, db = dv[i], dv[i + 1]
            if da == 0.0:
                locs.append(xs[i])
            elif da * db < 0.0:
                ta, tb = xs[i], xs[i + 1]
                for _ in range(60):
                    tm = 0.5 * (ta + tb)
                    dm = npcheb.chebval(tm, der)
                    if dm == 0.0:
                        break
                    if da * dm < 0.0:
                        tb = tm
                    else:
                        ta, da = tm, dm
                locs.append(0.5 * (ta + tb))
        if dv[-1] == 0.0:
            locs.append(xs[-1])
        for x in sorted(set(locs)):
            out.append((float(x), float(npcheb.chebval(x, ct))))
    out.sort()
    dedup = []
    for x, v in out:
        if dedup and x - dedup[-1][0] <= 1e-14:
            continue
        dedup.append((x, v))
    return dedup


def _seeded_union():
    rng = np.random.default_rng(20130626)
    while True:
        pts = np.sort(rng.uniform(-1.0, 1.0, 8))
        if np.min(np.diff(pts)) >= 0.05:
            return IntervalUnion(tuple(pts))


EXTREMA_SETS = {
    "interval": FULL,
    "pair-0.6": e_alpha(0.6),
    "triple": IntervalUnion((-1.0, -0.6, -0.2, 0.2, 0.6, 1.0)),
    "quad": IntervalUnion((-1.0, -0.65, -0.35, -0.05, 0.25, 0.55, 0.85, 1.0)),
    "random": _seeded_union(),
}


@pytest.mark.parametrize("name", sorted(EXTREMA_SETS))
def test_error_extrema_bit_identical_to_numpy_scalar_loop(name):
    # The float bisection must reproduce every point and value exactly, on the
    # first reference and on the two exchanges after it.
    cn, _ = normalize(EXTREMA_SETS[name])
    for n in (1, 2, 3, 7, 20, 48, 100):
        u = _init_reference(cn, n)
        for _ in range(3):
            ct, _, _ = _solve_on_reference(u, n)
            got = _error_extrema(ct, cn, n)
            assert got == _error_extrema_numpy_scalar(ct, cn, n), (name, n)
            u = _select_reference(got, n + 1, u, npcheb.chebval(u, ct))


TRIPLE = IntervalUnion((-1.0, -0.6, -0.2, 0.2, 0.6, 1.0))
QUAD = IntervalUnion((-1.0, -0.65, -0.35, -0.05, 0.25, 0.55, 0.85, 1.0))


@pytest.mark.parametrize("e", [TRIPLE, QUAD], ids=["triple", "quad"])
def test_blow_up_and_witness_at_degree_32(e):
    r = minimal_polynomial(e, 32)
    b = blow_up_set(e, r)
    assert is_subset(e, b.c_prime, tol=1e-8)
    assert 1 <= b.ell_prime <= 32
    assert minimality_witness(e, r).passed


def test_blow_up_band_inside_a_gap():
    # At degree 48 each outer gap of TRIPLE holds a whole band of C',
    # detached from both neighbouring intervals of E.
    r = minimal_polynomial(TRIPLE, 48)
    b = blow_up_set(TRIPLE, r)
    assert b.ell_prime == 5
    assert any(-0.6 < lo and hi < -0.2 for lo, hi in b.c_prime.intervals)
    new_ends = [x for x in b.c_prime.endpoints
                if min(abs(x - y) for y in TRIPLE.endpoints) > 1e-12]
    assert len(new_ends) == 4
    vals = np.abs(r.evaluate(np.array(new_ends)))
    assert np.max(np.abs(vals - r.deviation)) <= 1e-9 * r.deviation
    again = minimal_polynomial(b.c_prime, 48)
    assert again.deviation == pytest.approx(r.deviation, rel=1e-10)


def test_blow_up_rejects_result_from_another_hull():
    r = minimal_polynomial(e_alpha(0.5), 4)
    with pytest.raises(InvalidInputError):
        blow_up_set(IntervalUnion((-1.0, -0.5, 0.5, 0.9)), r)


def test_blow_up_far_from_origin():
    # The hull of this set maps onto [-1, 1] only to ~1.5e-11: the rounding
    # of the frame map itself, which the hull check must tolerate.
    e = IntervalUnion((31415.9, 31416.11, 31416.32, 31416.6))
    for n in (3, 6):
        r = minimal_polynomial(e, n)
        b = blow_up_set(e, r)
        assert is_subset(e, b.c_prime, tol=1e-8)
        assert b.c_prime.ell <= n


@pytest.mark.parametrize("name", sorted(EXTREMA_SETS))
def test_leveled_interpolant_matches_chebyshev_solve(name):
    # At low degree both forms are accurate: the barycentric level, values and
    # first two derivatives agree with the Chebyshev-basis solve, on a grid
    # over the set and exactly on the nodes.  (M'' is checked away from the
    # nodes' float neighbours, where its divided difference cancels.)
    cn, _ = normalize(EXTREMA_SETS[name])
    for n in (1, 2, 5, 10):
        u = _init_reference(cn, n)
        w, h = weights_and_level(u)
        ct, hc, _ = _solve_on_reference(u, n)
        assert h == pytest.approx(hc, rel=1e-12)
        x = np.concatenate([np.linspace(a, b, 13) for a, b in cn.intervals] + [u])
        far = np.min(np.abs(x[:, None] - u[None, :]), axis=1)
        checked = (far == 0.0) | (far > 1e-9)
        got = evaluate(x, u, w, h, 2)
        for k, v in enumerate(got):
            want = npcheb.chebval(x, npcheb.chebder(ct, k))
            on = checked if k == 2 else slice(None)
            err = np.max(np.abs(v - want)[on])
            assert err <= 1e-10 * max(np.max(np.abs(want)), h), (n, k, err)
        assert np.array_equal(got[0][-len(u):], np.sign(w) * h)


@pytest.mark.parametrize("n", [32, 40, 48])
def test_large_alpha_pair_matches_closed_form(n):
    alpha = 0.6
    r = minimal_polynomial(e_alpha(alpha), n)
    expect = 2.0 ** (1 - n) * (1 - alpha * alpha) ** (n / 2)
    assert r.deviation == pytest.approx(expect, rel=1e-10)
    assert r.residual <= 1e-12 * r.deviation


def test_witness_passes_on_large_alpha_pair_at_degree_32():
    e = e_alpha(0.6)
    assert minimality_witness(e, minimal_polynomial(e, 32)).passed


def test_witness_far_from_origin():
    # The frame maps this hull onto [-1, 1] only to ~1.5e-11, and |M| exceeds
    # L just outside it; the witness's sup grid must not step out there.
    e = IntervalUnion((31415.9, 31416.11, 31416.32, 31416.6))
    for n in (3, 6):
        assert minimality_witness(e, minimal_polynomial(e, n)).passed


def test_barycentric_sum_cancelled_to_zero():
    # Far outside the hull the terms of sum_j w_j/(x - u_j) cancel to exactly
    # zero in floating point; the value then comes from 1/l(x).
    u = np.array([-1.0, 0.0, 1.0])
    w, h = weights_and_level(u)
    m = evaluate(np.array([1e20]), u, w, h, 0)[0]
    assert m[0] == pytest.approx(1e40, rel=1e-12)  # M = x^2 - 1/2


def test_equilibrium_masses():
    assert [m for m, _ in equilibrium((-1.0, 1.0))] == [1.0]
    for alpha in (0.3, 0.6):
        cn, _ = normalize(e_alpha(alpha))
        assert [m for m, _ in equilibrium(cn.endpoints)] == pytest.approx([0.5, 0.5], abs=1e-12)
    # On P^{-1}([-1, 1]) with ell = deg P intervals, each interval carries 1/ell.
    image = inverse_image(Polynomial((0.0, -3.75, 0.0, 5.0))).image  # 1.25 * T_3
    cn, _ = normalize(image)
    assert [m for m, _ in equilibrium(cn.endpoints)] == pytest.approx([1 / 3] * 3, abs=1e-9)


def test_degree_cap_envelope():
    alpha = 0.6
    r = minimal_polynomial(e_alpha(alpha), 100)
    assert r.deviation == pytest.approx(2.0 ** -99 * (1 - alpha * alpha) ** 50, rel=1e-10)
    for e in (TRIPLE, QUAD):
        r = minimal_polynomial(e, 100)
        assert r.residual <= 1e-12 * r.deviation


def test_witness_sandwich_allows_the_residuals_of_a_stall_accepted_solve():
    # A stall-accepted deviation may sit up to its residual above L_n; the
    # re-solve on C' finds L_n itself.  A deviation 5e-8 high is consistent
    # with a residual of 1e-7 and not with a residual of 0.
    r = minimal_polynomial(TRIPLE, 12)
    high = r.deviation * (1.0 + 5e-8)
    stalled = dataclasses.replace(r, deviation=high, residual=1e-7 * r.deviation)
    w = minimality_witness(TRIPLE, stalled)
    assert w.sandwich_applicable
    assert w.sandwich_ok
    assert w.passed
    exact = dataclasses.replace(r, deviation=high, residual=0.0)
    w = minimality_witness(TRIPLE, exact)
    assert w.sandwich_applicable
    assert not w.sandwich_ok
