"""Exchange solver: closed forms, alternation, covariance, blow-up, witness."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from oracles import (
    _candidates,
    _collapse_sign_runs,
    blow_up_oracle,
    composed_on_blow_up,
    extremum_grid,
    grid_extrema,
    grid_sup_norm,
    leveled_value_oracle,
    minimax_deviation_oracle,
    next_reference_oracle,
    node_derivatives,
    pencil_zeros,
)

from chebcap import leveled
from chebcap import remez as _remez
from chebcap.chebpoly import Polynomial
from chebcap.cli import _random_union, _verify_fixtures, main
from chebcap.errors import ChebcapError, ConvergenceError, DegreeCapError, InvalidInputError
from chebcap.intervals import IntervalUnion, is_subset, normalize
from chebcap.inverse_image import e_alpha, inverse_image, symmetric_two_interval_minpoly
from chebcap.leveled import equilibrium, evaluate
from chebcap.remez import (
    _init_reference,
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


@pytest.mark.parametrize("ends, n", [((100.0, 101.0), 8), ((10.0, 11.0, 11.5, 12.0), 20)])
def test_poly_keeps_its_degree_and_monic_lead_on_a_shifted_hull(ends, n):
    # Far from the origin the lower monomial coefficients pass 1e13; the
    # snapped lead 1.0 is still the lead.
    poly = minimal_polynomial(IntervalUnion(ends), n).poly
    assert poly.degree == n and poly.leading == 1.0


@pytest.mark.parametrize("ends, n, above", [
    ((-1.0, -0.6, 0.6, 1.0), 10, False), ((-1.0, -0.6, 0.6, 1.0), 30, False),
    ((-1.0, -0.6, 0.6, 1.0), 40, True), ((100.0, 101.0), 8, True)])
def test_poly_rounding_is_horners_bound_over_the_deviation(ends, n, above):
    # eps sum |c_i| r^i / deviation, r the largest |x| on the set, from the
    # reported coefficients.  On e_0.6 it passes 1 between n = 30 (0.20) and
    # n = 40 (2.5e4); far from the origin the coefficients fail at n = 8.
    r = minimal_polynomial(IntervalUnion(ends), n)
    rad = max(abs(x) for x in ends)
    noise = math.fsum(abs(c) * rad ** i for i, c in enumerate(r.poly.coeffs))
    assert r.poly_rounding == pytest.approx(np.finfo(float).eps * noise / r.deviation, rel=1e-12)
    assert (r.poly_rounding > 1.0) == above


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
    # The hull radius to the power n leaves the double range: L_80 = 1.65e296
    # on [-1e4, 1e4] is a double but 1e4^80 is not, and L_100 on [0, 1e-5]
    # underflows to 0.
    for e, n, words in (((-1e4, 1e4), 80, "overflows"), ((0.0, 1e-5), 100, "below the normal")):
        with pytest.raises(InvalidInputError, match=f"n = {n} .*{words}"):
            minimal_polynomial(IntervalUnion(e), n)


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
    # C' takes E's own endpoints from E and keeps every other end within its
    # gap of E, so it contains E exactly.
    for e, degrees in ((IntervalUnion((31415.9, 31416.11, 31416.32, 31416.6)), (3, 6)),
                       (IntervalUnion((1e10, 1e10 + 1, 1e10 + 1.7, 1e10 + 3)), (3, 4, 6))):
        for n in degrees:
            r = minimal_polynomial(e, n)
            b = blow_up_set(e, r)
            assert is_subset(e, b.c_prime, tol=0.0), (e, n)
            assert b.c_prime.hull == e.hull, (e, n)
            assert b.c_prime.ell <= n


def _exactly_normalized(e):
    """e's hull mapped onto [-1, 1] in exact rationals, each end rounded once."""
    lo, hi = (Fraction(x) for x in e.hull)
    return IntervalUnion(tuple(float((2 * Fraction(x) - lo - hi) / (hi - lo))
                               for x in e.endpoints))


def test_translation_keeps_the_deviation_and_the_witness():
    # L_n(E + b) = L_n(E): on pair-0.6, asym, triple, quad and
    # [0, 1] u [1.7, 3] shifted by b, each deviation equals the solve on the
    # exactly normalized ends times rad^n within n eps, and the witness
    # passes wherever it passes unshifted, its sandwich re-solving on C' in
    # the frame.
    for e in (e_alpha(0.6), IntervalUnion((-1.0, 0.0, 0.5, 1.0)), TRIPLE, QUAD,
              IntervalUnion((0.0, 1.0, 1.7, 3.0))):
        verdicts = {n: minimality_witness(e, minimal_polynomial(e, n)).passed
                    for n in (4, 8, 16, 24, 32)}
        for b in (1e2, 1e4, 1e8, 1e12, 1e14):
            shifted = IntervalUnion(tuple(x + b for x in e.endpoints))
            exact = _exactly_normalized(shifted)
            for n in (4, 8, 16, 24, 32, 64):
                r = minimal_polynomial(shifted, n)
                if n != 24:
                    want = minimal_polynomial(exact, n).deviation * r.hull_scale
                    assert abs(r.deviation - want) <= n * np.finfo(float).eps * want, (e, b, n)
                if verdicts.get(n):
                    assert minimality_witness(shifted, r).passed, (e, b, n)


@pytest.mark.parametrize("name", sorted(EXTREMA_SETS))
def test_leveled_interpolant_matches_chebyshev_solve(name):
    # At low degree both forms are accurate: the barycentric level, values and
    # first two derivatives agree with the Chebyshev-basis solve, on a grid
    # over the set and exactly on the nodes.  (M'' is checked away from the
    # nodes' float neighbours, where its divided difference cancels.)
    cn, _ = normalize(EXTREMA_SETS[name])
    for n in (1, 2, 5, 10):
        u = _init_reference(cn, n)
        w, h = leveled.leveled(u)[:2]
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
    # |M| exceeds L just outside the hull; the witness's sup must not step
    # out there.
    e = IntervalUnion((31415.9, 31416.11, 31416.32, 31416.6))
    for n in (3, 6):
        assert minimality_witness(e, minimal_polynomial(e, n)).passed


def test_barycentric_sum_cancelled_to_zero():
    # Far outside the hull the terms of sum_j w_j/(x - u_j) cancel to exactly
    # zero in floating point; the value then comes from 1/l(x).
    u = np.array([-1.0, 0.0, 1.0])
    w, h = leveled.leveled(u)[:2]
    m = evaluate(np.array([1e20]), u, w, h, 0)[0]
    assert m[0] == pytest.approx(1e40, rel=1e-12)  # M = x^2 - 1/2


def test_equilibrium_masses():
    assert equilibrium((-1.0, 1.0))[0].tolist() == [1.0]
    for alpha in (0.3, 0.6):
        cn, _ = normalize(e_alpha(alpha))
        assert equilibrium(cn.endpoints)[0].tolist() == pytest.approx([0.5, 0.5], abs=1e-12)
    # On P^{-1}([-1, 1]) with ell = deg P intervals, each interval carries 1/ell.
    image = inverse_image(Polynomial((0.0, -3.75, 0.0, 5.0))).image  # 1.25 * T_3
    cn, _ = normalize(image)
    assert equilibrium(cn.endpoints)[0].tolist() == pytest.approx([1 / 3] * 3, abs=1e-9)


@pytest.mark.parametrize("ends", [(-1.0, 1.0), (-1.0, -0.3, 0.3, 1.0), TRIPLE.endpoints],
                         ids=["interval", "e_0.3", "triple"])
def test_equilibrium_arrays_are_read_only(ends):
    # The cache hands the same mass, cumulative mass and coefficient arrays
    # to every solve on the set, so a write into them would move every later
    # first reference.
    mass, cum, theta = equilibrium(ends)
    assert equilibrium(ends)[0] is mass
    assert mass.shape == cum.shape == (len(ends) // 2,) and theta.shape[0] == len(mass)
    for a in (mass, cum, theta):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


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
    assert w.sandwich_ok
    assert w.passed
    exact = dataclasses.replace(r, deviation=high, residual=0.0)
    w = minimality_witness(TRIPLE, exact)
    assert not w.sandwich_ok


def _interlaced_candidates(ends, u, w, h):
    """The interlaced search's candidates, on its own interlaced solve."""
    return _remez._interlaced_extrema(ends, u, w, h, leveled.interlaced_zeros(u, w)[1])


RESOLUTION_SETS = {
    "interval": FULL,
    "e_0.3": e_alpha(0.3),
    "e_0.6": e_alpha(0.6),
    "asym": IntervalUnion((-1.0, 0.0, 0.5, 1.0)),
    "triple": TRIPLE,
    "quad": QUAD,
}


@pytest.mark.parametrize("n", [48, 100])
@pytest.mark.parametrize("name", sorted(RESOLUTION_SETS))
def test_extremum_grid_resolves_adjacent_critical_points(name, n):
    # Adjacent interior critical points of the final M, located by a fine
    # cosine-spaced scan of M', lie at least two cells apart on every
    # interval of the extremum grid of the tests' grid search
    # (`oracles.extremum_grid`, the reference for the searches below), and
    # the interlaced search finds each of them inside its scan cell.
    cn, _ = normalize(RESOLUTION_SETS[name])
    r = minimal_polynomial(cn, n)
    u, w = np.array(r.nodes), np.array(r.weights)
    ends = np.array(cn.endpoints)
    found = np.sort(_interlaced_candidates(ends, u, w, r.level)[0])
    for (a, b), grid in zip(cn.intervals, extremum_grid(cn.endpoints, n)):
        assert grid[0] == a and grid[-1] == b
        assert np.all(np.diff(grid) > 0.0)
        scan = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(np.linspace(0.0, math.pi, 20001))
        d1 = evaluate(scan, u, w, r.level, 1)[1]
        cells = np.flatnonzero(np.sign(d1[:-1]) * np.sign(d1[1:]) < 0.0)
        crit = 0.5 * (scan[cells] + scan[cells + 1])
        at = np.interp(crit, grid, np.arange(len(grid)))
        assert len(crit) >= 2
        assert np.min(np.diff(at)) >= 2.0, (name, n, a, b)
        inner = found[(found > a) & (found < b)]
        assert len(inner) == len(cells), (name, n, a, b)
        assert np.all((inner >= scan[cells]) & (inner <= scan[cells + 1])), (name, n, a, b)


def test_failed_blow_up_search_is_numerical(monkeypatch):
    # A gap search that reads no finite M, or does not converge within
    # GAP_PASSES, is a failure of the computation, not of the input.
    r = minimal_polynomial(TRIPLE, 8)
    terms = leveled.gap_terms
    monkeypatch.setattr(leveled, "gap_terms", lambda *a: [np.full_like(v, np.nan) for v in terms(*a)])
    with pytest.raises(ConvergenceError):
        blow_up_set(TRIPLE, r)
    monkeypatch.undo()
    monkeypatch.setattr(_remez, "GAP_PASSES", 1)
    with pytest.raises(ConvergenceError, match="took 1 passes"):
        blow_up_set(TRIPLE, r)


def _scaled_image(c, k):
    return inverse_image(Polynomial(tuple(c * npcheb.cheb2poly([0] * k + [1])))).image


BLOW_UP_SETS = {**RESOLUTION_SETS, "e_0.7": e_alpha(0.7), "10*T_3": _scaled_image(10.0, 3),
                "10*T_4": _scaled_image(10.0, 4)}


@pytest.mark.parametrize("name, n", [("asym", 90), ("triple", 98), ("quad", 94), ("e_0.6", 33),
                                     ("triple", 48), ("quad", 48), ("e_0.3", 99), ("10*T_3", 32),
                                     ("10*T_4", 42), ("e_0.7", 35)])
def test_blow_up_matches_mpmath_oracle(name, n):
    # C' of the result's own leveled interpolant, evaluated exactly at 50
    # digits: interval count and every endpoint.  The Chebyshev-basis
    # crossings missed bands at the first four degrees (asym n = 90: the
    # band of width 4.9e-10 near 0.16) and were 3.8e-14 off at triple n = 48.
    # The gap grid's 1e-12 cut merge dropped the last four: the central band
    # at odd n on e_0.3 and e_0.7, and bands 3.2e-13 (10*T_3, n = 32) and
    # 1.1e-13 (10*T_4, n = 42) wide next to a zero of M deep in a gap.
    e = BLOW_UP_SETS[name]
    r = minimal_polynomial(e, n)
    want = blow_up_oracle(r.nodes, r.deviation / r.hull_scale, [r.frame(x) for x in e.endpoints])
    got = [r.frame(x) for x in blow_up_set(e, r).c_prime.endpoints]
    assert len(got) == 2 * len(want), (name, n)
    assert np.max(np.abs(np.array(got) - np.ravel(want))) <= 1e-12, (name, n)


@pytest.mark.parametrize("alpha, n", [(0.3, 73), (0.3, 89), (0.5, 41), (0.5, 51),
                                      (0.6, 33), (0.6, 39), (0.7, 27), (0.7, 31),
                                      (0.3, 99), (0.5, 55), (0.7, 35)])
def test_odd_degree_blow_up_keeps_the_central_band(alpha, n):
    # At odd n on e_alpha the minimizer is odd, so C' has a third interval
    # around 0, symmetric, where M runs from -L to L.
    e = e_alpha(alpha)
    b = blow_up_set(e, minimal_polynomial(e, n))
    assert b.ell_prime == 3
    (_, a), (lo, hi), (c, _) = b.c_prime.intervals
    assert lo < 0.0 < hi and a == -alpha and c == alpha
    assert abs(hi + lo) <= 1e-14


def test_blow_up_splits_gap_cells_at_critical_points():
    # On e_0.5 at n = 2, M = x^2 - 5/8 peaks in the gap at |M(0)| = 5/8.  A
    # level just below that peak crosses M twice within one grid cell around
    # the critical point 0, at +-sqrt(5/8 - level); the cells split there.
    r = minimal_polynomial(e_alpha(0.5), 2)
    level = 0.625 * (1.0 - 1e-6)
    b = blow_up_set(e_alpha(0.5), dataclasses.replace(r, deviation=level))
    cross = math.sqrt(0.625 - level)
    assert np.allclose(b.c_prime.endpoints, (-1.0, -cross, cross, 1.0), rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("e, n", [(e_alpha(0.5), 3), (IntervalUnion((-1.0, 0.0, 0.5, 1.0)), 2),
                                  (IntervalUnion((-1.0, 0.0, 0.5, 1.0)), 4)])
def test_blow_up_has_no_band_beside_a_gap_end_where_m_peaks(e, n):
    # Here |M| peaks on a gap end within rounding of L, and the zero of M'
    # beside it may come out just inside the gap; it is no peak of the gap,
    # so C' is the hull, with no cut a rounding error wide next to the end.
    b = blow_up_set(e, minimal_polynomial(e, n))
    assert b.c_prime.endpoints == (-1.0, 1.0)


def test_evaluate_outside_the_hull():
    # Past the hull every term of the first barycentric form has one sign.
    r = minimal_polynomial(FULL, 2)  # M = x^2 - 1/2 on the reference -1, 0, 1
    for x in (3e7, 1e10, -1e10):
        assert r.evaluate(x) == pytest.approx(x * x - 0.5, rel=1e-14)
    r = minimal_polynomial(e_alpha(0.5), 6)  # the second form was 0.17% off here
    want = r.hull_scale * leveled_value_oracle(r.nodes, r.frame(100.0))
    assert r.evaluate(100.0) == pytest.approx(want, rel=1e-14)
    assert math.isinf(minimal_polynomial(FULL, 100).evaluate(1e10))


def test_level_crossings_stop_on_the_newton_step(monkeypatch):
    # M = x^2 - 1/2 crosses |M| = 0.1, 0.2 and 0.3 at sqrt(0.5 -+ level), on
    # either side of its zero 1/sqrt(2).  From the crossings of the tangent
    # there, as `_gap_cuts` starts them, each pair ends within 2e-16 of the
    # roots in at most four evaluations, without bisecting the bracket down
    # to adjacent floats.
    u = np.array([-1.0, 0.0, 1.0])
    w, _ = leveled.leveled(u)[:2]
    calls = []
    terms = leveled.gap_terms
    monkeypatch.setattr(leveled, "gap_terms", lambda *a: calls.append(1) or terms(*a))
    z = math.sqrt(0.5)
    for level in (0.1, 0.2, 0.3):
        calls.clear()
        reach = level / (2.0 * z)
        cells = [[False, "down", 0.0, z, z - reach], [True, "up", z, 1.0, z + reach]]
        found = _remez._gap_search(cells, u, w, math.log(level))
        x = np.array([found["down"], found["up"]])
        assert np.max(np.abs(x - np.sqrt([0.5 - level, 0.5 + level]))) <= 2e-16, level
        assert len(calls) <= 4, level


def _start_sets():
    sets = dict(_verify_fixtures())
    rng = np.random.default_rng(1010)
    for ell in range(2, 9):
        while True:
            pts = np.sort(rng.uniform(-1.0, 1.0, 2 * ell))
            if np.min(np.diff(pts)) >= 1e-3:
                break
        sets[f"random-{ell}"] = IntervalUnion(tuple(pts.tolist()))
    sets["narrow"] = IntervalUnion((-1.0, -0.3, 0.2, 0.2001, 0.5, 1.0))
    sets["far"] = IntervalUnion((31415.9, 31416.11, 31416.32, 31416.6))
    return sets


START_SETS = _start_sets()


@pytest.mark.parametrize("name", sorted(START_SETS))
def test_init_reference_is_an_increasing_reference_in_the_set(name):
    # n + 1 strictly increasing points, each inside an interval: the set as
    # given and normalized, as the exchange solves it.
    e = START_SETS[name]
    for c in (e, normalize(e)[0]):
        lo, hi = np.array(c.endpoints[0::2]), np.array(c.endpoints[1::2])
        for n in range(1, 101):
            u = _init_reference(c, n)
            assert len(u) == n + 1 and np.all(np.diff(u) > 0.0), (name, n)
            assert np.all(((u[:, None] >= lo) & (u[:, None] <= hi)).any(axis=1)), (name, n)


def test_init_reference_on_one_interval_is_chebyshev_lobatto():
    for n in range(1, 101):
        u = _init_reference(FULL, n)
        assert u[0] == -1.0 and u[-1] == 1.0, n
        assert np.allclose(u, -np.cos(np.arange(n + 1) * math.pi / n), rtol=0.0, atol=1e-15)


def _per_point_quantiles(e, n):
    """The reference for `_init_reference`: each point's own series row,
    summed along it; and each point's rounding scale, an ulp of its
    interval's max(|a|, |b|) plus its radius times the series' own
    rounding, eps sum_k |theta_k|."""
    mass, cum, theta = equilibrium(e.endpoints)
    targets = np.linspace(0.0, cum[-1], n + 1)
    piece = np.searchsorted(cum, targets)
    q = (targets - (cum - mass)[piece]) / mass[piece]
    a, b, theta = np.array(e.endpoints[0::2])[piece], np.array(e.endpoints[1::2])[piece], theta[piece]
    t = np.arccos(np.clip(2.0 * q - 1.0, -1.0, 1.0))
    angle = (np.cos(np.outer(t, np.arange(theta.shape[1]))) * theta).sum(axis=1)
    x = np.clip(0.5 * (a + b) - 0.5 * (b - a) * np.cos(angle), a, b)
    series = np.finfo(float).eps * np.abs(theta).sum(axis=1)
    return x, np.spacing(np.maximum(np.abs(a), np.abs(b))) + 0.5 * (b - a) * series


def test_init_reference_matches_the_per_point_series_sums():
    # One product cos(t k) @ theta^T for all intervals, each point taking its
    # interval's column, moves the first reference by at most 4 of its
    # rounding scales against summing each point's own row (3.5 ulps of the
    # interval on the sets without narrow components; on these the series'
    # rounding is the larger term).
    for name, e in {**START_SETS, **_narrow_component_sets()}.items():
        for c in (e, normalize(e)[0]):
            for n in range(1, 101):
                want, scale = _per_point_quantiles(c, n)
                assert np.all(np.abs(_init_reference(c, n) - want) <= 4.0 * scale), (name, n)


def _scaled_chebyshev_image(k):
    return _scaled_image(1.25, k)


@pytest.mark.parametrize("name, e, ns", [
    ("e_0.3", e_alpha(0.3), (32, 40, 48)),
    ("e_0.6", e_alpha(0.6), (32, 40, 48)),
    ("1.25*T_3", _scaled_chebyshev_image(3), (33, 39, 48)),
    ("1.25*T_4", _scaled_chebyshev_image(4), (32, 40, 48)),
], ids=["e_0.3", "e_0.6", "1.25*T_3", "1.25*T_4"])
def test_first_reference_is_nearly_leveled_on_inverse_images(name, e, ns):
    # On P^{-1}([-1, 1]) at degrees divisible by deg P, the quantiles j/n of
    # the equilibrium measure are the minimizer's extrema, so the first
    # iterate is leveled to rounding and the exchange stops after one pass.
    cn, _ = normalize(e)
    for n in ns:
        u = _init_reference(cn, n)
        w, h = leveled.leveled(u)[:2]
        emax = np.max(np.abs(_interlaced_candidates(np.array(cn.endpoints), u, w, h)[1]))
        assert (emax - h) / emax <= 1e-12, (name, n, (emax - h) / emax)
        assert minimal_polynomial(e, n).iterations == 1, (name, n)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.6, 0.7, 0.9])
def test_init_reference_hits_the_extrema_on_symmetric_pairs(alpha):
    # e_alpha = P^{-1}([-1, 1]) for P(x) = (2x^2 - 1 - alpha^2)/(1 - alpha^2);
    # at even n the extrema of T_{n/2}(P) are the points with
    # P(x) = cos(2 pi j / n), and the quantiles j/n fall on them.
    e = e_alpha(alpha)
    for n in range(2, 101, 2):
        c = np.cos(2.0 * math.pi * np.arange(n // 2 + 1) / n)
        r = np.sqrt(((1.0 - alpha * alpha) * c + 1.0 + alpha * alpha) / 2.0)
        extrema = np.concatenate([-r, r])
        u = _init_reference(e, n)
        err = np.max(np.min(np.abs(u[:, None] - extrema[None, :]), axis=1))
        assert err <= 1e-12, (alpha, n, err)


def _narrow_component_sets():
    sets = {}
    for alpha, n in ((0.5, 41), (0.3, 89)):  # C' with a central band 8e-10 and 3e-12 wide
        e = e_alpha(alpha)
        sets[f"C'(e_{alpha}, {n})"] = blow_up_set(e, minimal_polynomial(e, n)).c_prime
    for k in (3, 4):
        for c in (10.0, 1e3, 1e5):  # bands 3e-2 down to 2e-6 wide
            p = Polynomial(tuple(c * npcheb.cheb2poly([0] * k + [1])))
            sets[f"{c:g}*T_{k}"] = inverse_image(p).image
    return sets


def test_init_reference_on_narrow_components():
    # 64 density samples under-resolve the equilibrium measure next to a
    # narrow component; the inverted distribution functions must still give
    # an increasing reference inside the set.
    for name, e in _narrow_component_sets().items():
        lo, hi = np.array(e.endpoints[0::2]), np.array(e.endpoints[1::2])
        for n in range(1, 101):
            u = _init_reference(e, n)
            assert len(u) == n + 1 and np.all(np.diff(u) > 0.0), (name, n)
            assert np.all(((u[:, None] >= lo) & (u[:, None] <= hi)).any(axis=1)), (name, n)


def _exchange_references(e, n):
    """The references of the iterations of minimal_polynomial(e, n), in the
    normalized frame it solves in."""
    refs = []
    node_pass = leveled.leveled
    leveled.leveled = lambda u, *order: refs.append(u) or node_pass(u, *order)
    try:
        minimal_polynomial(e, n)
    finally:
        leveled.leveled = node_pass
    return refs


def test_interlaced_search_on_critical_points_at_the_nodes():
    # On the interval the first reference is the Chebyshev-Lobatto points,
    # and its interior nodes are the zeros of M' = (2^(1-n) T_n)': the
    # eigenvalue solve puts each one within a few ulps of its node, or on
    # it, where evaluate takes M' from the node's row of the
    # differentiation matrix.  The Newton step leaves every candidate within
    # 8 ulps of the hull's radius of its node (a node is the rounded cosine,
    # and the critical point of the interpolant on the rounded nodes moves
    # with it), and M there at +-h to 1e-14 h.
    ends = np.array(FULL.endpoints)
    for n in range(1, 101):
        u = _init_reference(FULL, n)
        w, h = leveled.leveled(u)[:2]
        x, v = _merged_candidates(*_interlaced_candidates(ends, u, w, h))
        assert len(x) == n + 1, n
        assert np.max(np.abs(x - u)) <= 8.0 * np.finfo(float).eps, n
        assert np.max(np.abs(v - np.sign(w) * h)) <= 1e-14 * h, n


@pytest.mark.parametrize("name", ["interval", "e_0.3", "e_0.6", "triple", "quad"])
def test_node_slope_from_the_sums_matches_the_differentiation_matrix(name):
    # M'(u_k) = (f_j - f_k) rest_k / w_k and M''(u_k) = 2 (f_j - f_k)
    # (sigma_k rest_k - rest2_k) / w_k, from the sums of one evaluate pass,
    # are the node's rows of the barycentric differentiation matrices, on
    # the first reference and on the solve's final one, where the zeros of
    # M' sit on the nodes.
    cn, _ = normalize(RESOLUTION_SETS[name])
    for n in range(1, 101):
        grid = np.concatenate(extremum_grid(cn.endpoints, n))
        for u in (_init_reference(cn, n), np.array(minimal_polynomial(cn, n).nodes)):
            w, h = leveled.leveled(u)[:2]
            want = node_derivatives(u, w, h, np.arange(n + 1))
            scale = np.max(np.abs(evaluate(grid, u, w, h, 2)[1:]), axis=1)
            for order in (1, 2):
                for i, got in enumerate(evaluate(u, u, w, h, order)[1:]):
                    assert np.max(np.abs(got - want[i])) <= 4e-15 * scale[i], (name, n, order, i)


@pytest.mark.parametrize("name", ["e_0.3", "e_0.6", "triple", "quad", "asym"])
def test_refine_returns_m_at_its_points(name):
    # The interlaced search's values at the critical points come from its
    # Newton pass's Taylor expansion, not from a separate evaluate pass.
    cn, _ = normalize(RESOLUTION_SETS[name])
    for n in range(1, 101):
        u = _init_reference(cn, n)
        w, h = leveled.leveled(u)[:2]
        xs, vals = _interlaced_candidates(np.array(cn.endpoints), u, w, h)
        want = evaluate(xs, u, w, h, 0)[0]
        assert np.max(np.abs(vals - want)) <= 1e-14 * h, (name, n)


@pytest.mark.parametrize("e", [TRIPLE, QUAD], ids=["triple", "quad"])
def test_blow_up_searches_take_few_passes(monkeypatch, e):
    # One first-form pass at the zeros of M and M' in the gaps, then the
    # level crossings, all cells together, one pass at a time: at n = 8..32
    # a blow-up set takes at most five passes in all.
    results = [(n, minimal_polynomial(e, n)) for n in range(8, 33)]
    passes = _counting(monkeypatch, leveled, "gap_terms")
    for n, r in results:
        passes.clear()
        b = blow_up_set(e, r)
        assert is_subset(e, b.c_prime, tol=1e-8)
        assert len(passes) <= 5, (n, len(passes))


def _frontier_solves():
    images = {k: _scaled_chebyshev_image(k) for k in (3, 4)}
    solves = [(e, n) for e in (FULL, e_alpha(0.3), e_alpha(0.6)) for n in (32, 40, 48)]
    solves += [(images[k], k * round(n / k)) for k in (3, 4) for n in (32, 40, 48)]
    return solves + [(e, n) for e in (TRIPLE, QUAD) for n in (32, 40, 48)]


def _sweep_solves():
    rng = np.random.RandomState(0)
    solves = [(e, n) for _, e in _verify_fixtures() for n in range(1, 21)]
    unions = [_random_union(rng) for _ in range(20)]
    return solves + [(e, n) for e in unions for n in range(1, 11)]


@pytest.mark.parametrize("solves, bound", [(_frontier_solves, 1.5), (_sweep_solves, 1.5)],
                         ids=["frontier", "sweep"])
def test_evaluate_passes_per_exchange_iteration(monkeypatch, solves, bound):
    # One evaluate pass per iteration: the node pass's values at its Newton
    # points and the interval ends, or where it runs, the interlaced
    # search's Newton step and Taylor values, 1.00 per iteration
    # on the 21 frontier solves (n = 32/40/48) and on the 360 sweep solves
    # (the verify fixtures at n <= 20, 20 random unions at n = 1..10 each).
    # A further pass over the interpolant shows here.
    solves = solves()
    calls = []
    monkeypatch.setattr(leveled, "evaluate", lambda *a: calls.append(1) or evaluate(*a))
    iterations = sum(minimal_polynomial(e, n).iterations for e, n in solves)
    assert len(calls) <= bound * iterations, len(calls) / iterations


def test_plain_newton_phase_ends_the_exchange_refines():
    # The interlaced search's one Newton step ends the refine on every
    # reference of the 21 frontier solves and the 360 sweep solves: a
    # second step at its points would change M by at most 1e-3 of an ulp of
    # h (1.4e-11 measured): |M' step| <= ulp(h) holds after the one step.
    worst = 0.0
    for e, n in _frontier_solves() + _sweep_solves():
        cn, _ = normalize(e)
        ends = np.array(cn.endpoints)
        for u in _exchange_references(cn, n):
            w, h = leveled.leveled(u)[:2]
            xs = _interlaced_candidates(ends, u, w, h)[0]
            x = xs[len(ends):]
            if not len(x):
                continue
            _, dm, d2m = evaluate(x, u, w, h, 2)
            worst = max(worst, float(np.max(np.abs(dm * dm / d2m))) / math.ulp(h))
    assert worst <= 1e-3, worst


def _strided_evaluate(x, u, w, h):
    """The reference: M, M' and M'' as `leveled.evaluate` forms them, with
    each sign-split sum taken by a strided sum over the nodes and each term
    divided by x - u_j; and the rounding scale of M'', the sum of the moduli
    of its terms, off the nodes (its sums cancel next to a node)."""
    n = len(u) - 1
    d = np.subtract.outer(x, u)
    near = np.abs(d).argmin(axis=1)
    hit = d[np.arange(len(x)), near] == 0.0
    d[hit, near[hit]] = 1.0
    plus = (n - near) % 2 == 0

    def sums(v):
        p, q = v[:, n % 2::2].sum(axis=1), v[:, 1 - n % 2::2].sum(axis=1)
        return p + q, np.where(plus, q, p)

    a = w / d
    den, rest = sums(a)
    jump = np.where(plus, -2.0 * h, 2.0 * h)
    mk = jump * rest / den
    b = a / d
    b_all, b_rest = sums(b)
    d1 = (mk * b_all - jump * b_rest) / den
    c_all, c_rest = sums(b / d)
    out = [mk - 0.5 * jump, d1, 2.0 * (d1 * b_all - mk * c_all + jump * c_rest) / den]
    abs_c, abs_c_rest = sums(np.abs(b / d))
    noise = 2.0 * (np.abs(d1) * sums(np.abs(b))[0] + np.abs(mk) * abs_c
                   + 2.0 * h * abs_c_rest) / np.abs(den)
    k = near[hit]
    out[0][hit] = np.sign(w[k]) * h
    out[1][hit], out[2][hit] = node_derivatives(u, w, h, k)
    noise[hit] = 0.0
    return out, noise


@pytest.mark.parametrize("name", sorted(RESOLUTION_SETS))
def test_stacked_product_evaluation_matches_strided_sums(name):
    # M, M' and M'' from one matrix product of the stacked terms agree with
    # the strided sums on the extremum grid, at the interlaced search's candidates
    # and on some nodes, to 1e-14 of each one's largest modulus on the grid;
    # M'' also to 8 ulps of its terms' moduli, since both forms lose it to
    # cancellation within about 1e-16 of a node (a grid end one ulp from a
    # reference point).
    eps = np.finfo(float).eps
    cn, _ = normalize(RESOLUTION_SETS[name])
    for n in range(1, 101):
        u = _init_reference(cn, n)
        w, h = leveled.leveled(u)[:2]
        grid = np.concatenate(extremum_grid(cn.endpoints, n))
        crit = _interlaced_candidates(np.array(cn.endpoints), u, w, h)[0]
        x = np.concatenate([grid, crit, u[::7]])
        want, noise = _strided_evaluate(x, u, w, h)
        slack = [0.0, 0.0, 8.0 * eps * noise]
        for order in (0, 1, 2):
            got = evaluate(x, u, w, h, order)
            assert len(got) == order + 1
            for i in range(order + 1):
                scale = np.max(np.abs(want[i][:len(grid)]))
                assert np.all(np.abs(got[i] - want[i]) <= 1e-14 * scale + slack[i]), (name, n, i)


def test_evaluate_allocates_no_array_beyond_the_terms():
    # At 2,000 points and n = 100 an order-k evaluation holds the
    # reciprocals and k + 1 term arrays of N x (n + 1) doubles at its peak:
    # the strided sums peaked at 2.07, 3.11 and 4.14 such arrays, and a
    # separate reciprocal array would add one more.
    cn, _ = normalize(e_alpha(0.5))
    n, size = 100, 8 * 2000 * 101
    u = _init_reference(cn, n)
    w, h = leveled.leveled(u)[:2]
    x = np.linspace(-1.0, 1.0, 2000)
    for order, bound in ((0, 2.07), (1, 3.11), (2, 4.14)):
        evaluate(x, u, w, h, order)
        tracemalloc.start()
        try:
            evaluate(x, u, w, h, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * size, (order, peak / size)


@pytest.mark.parametrize("alpha", [0.3, 0.6])
def test_init_reference_puts_end_quantiles_on_the_interval_ends(alpha):
    # The quantiles q = 0 and q = 1 of an interval are its ends exactly: at
    # -alpha, mid + rad rounds to one ulp inside the end, and a node there
    # would read as interior to the node pass.
    e = e_alpha(alpha)
    for n in range(32, 101):
        u = _init_reference(e, n)
        assert u[0] == -1.0 and u[-1] == 1.0, n
        assert (n % 2 == 1) or -alpha in u.tolist(), n  # q = 1 of [-1, -alpha] at j = n/2


NODE_SETS = {**{f"e_{a}": e_alpha(a) for a in (0.3, 0.5, 0.6, 0.7)},
             "triple": TRIPLE, "quad": QUAD, "asym": IntervalUnion((-1.0, 0.0, 0.5, 1.0))}


def _node_bound(ends, u):
    """The node pass's bound U on sup |M| over the union with the endpoints
    `ends`, on the reference u, and the level h there."""
    w, h, d1, d2 = leveled.leveled(u)
    return _remez._node_pass(ends, u, w, h, d1, d2, False)[0], h


@pytest.mark.parametrize("name", sorted(NODE_SETS))
def test_node_search_matches_the_grid_search_on_converged_references(name):
    # On the final reference of each solve the node pass's bound U is the
    # sup of the tests' grid search (`oracles.grid_extrema`) within 1e-15 h
    # (equal on all 693 references: the peaks are leveled to rounding), and
    # it certifies the stop, U - h <= LEVEL_TOL U, on every one of them, those
    # with a peak on an interval end (asym at n = 2, 3 and 4, e_0.5 at n = 3)
    # included.
    cn, _ = normalize(NODE_SETS[name])
    ends = np.array(cn.endpoints)
    for n in range(2, 101):
        r = minimal_polynomial(cn, n)
        u, w = np.array(r.nodes), np.array(r.weights)
        bound, h = _node_bound(ends, u)
        sup = np.max(np.abs(grid_extrema(ends, u, w, h, evaluate)[1]))
        assert abs(bound - sup) <= 1e-15 * h, n
        assert bound - h <= _remez.LEVEL_TOL * bound, n


def _weights_reference(u):
    """The scaled weights s_j |w_j| e^(-m) and the level h formed on their
    own: the node differences with a unit diagonal, log-sums, signs by
    index."""
    n = len(u) - 1
    diff = u[:, None] - u[None, :]
    np.fill_diagonal(diff, 1.0)
    logw = -np.log(np.abs(diff)).sum(axis=1)
    m = float(logw.max())
    mag = np.exp(logw - m)
    s = np.where((n - np.arange(n + 1)) % 2 == 0, 1.0, -1.0)
    return s * mag, math.exp(-m) / float(mag.sum())


@pytest.mark.parametrize("name", sorted(NODE_SETS))
def test_node_pass_matches_the_weights_and_the_differentiation_matrix(name):
    # One pass over the reciprocal node differences gives the weights and
    # level bit for bit, and M' at every node and M'' at the interior ones
    # bit for bit as the differentiation matrix's term sums
    # (`oracles.node_derivatives`), on a seeded sample of the references the
    # solves visit at n <= 30 and above it.
    rng = np.random.RandomState(22)
    cn, _ = normalize(NODE_SETS[name])
    for n in sorted(set(rng.randint(1, 31, 4).tolist() + rng.randint(31, 101, 3).tolist())):
        for u in _exchange_references(cn, n):
            w, h, d1, d2 = leveled.leveled(u)
            w_ref, h_ref = _weights_reference(u)
            assert np.array_equal(w, w_ref) and h == h_ref, n
            want1, want2 = node_derivatives(u, w, h, np.arange(n + 1))
            assert np.array_equal(d1, want1) and np.array_equal(d2, want2[1:-1]), n


def _quadratic_reference(u1, a):
    """The degree-2 reference -1 < u1 < 1 on [-1, u1] u [a, 1]: M = x^2 -
    (1 + u1^2)/2 has its extremum at 0 and takes M(a) < 0 for |a| < 1."""
    u = np.array([-1.0, u1, 1.0])
    return np.array([-1.0, u1, a, 1.0]), u, *leveled.leveled(u)


def test_node_search_certifies_an_extremum_in_the_gap():
    # u1 = -0.1 on the right end of [-1, u1]: |M| grows out of the set, and
    # from a = 0.05, past the extremum at 0, |M| falls into [a, 1], so the
    # window's sup on the set is |M(a)| = 0.505 - a^2, the grid search's sup:
    # that is the bound, and a is a candidate with M(a).
    ends, u, w, h, d1, d2 = _quadratic_reference(-0.1, 0.05)
    bound, _, (xs, vals) = _remez._node_pass(ends, u, w, h, d1, d2, True)
    want = np.max(np.abs(grid_extrema(ends, u, w, h, evaluate)[1]))
    assert bound == pytest.approx(want, rel=1e-15, abs=0.0)
    assert bound == pytest.approx(0.505 - 0.05**2, rel=1e-14, abs=0.0)
    assert vals[xs == 0.05].tolist() == pytest.approx([0.05**2 - 0.505], rel=1e-14)


@pytest.mark.parametrize("u1, a", [(0.1, 0.3), (-0.1, -0.05)],
                         ids=["rises_into_the_set", "same_window_rising"])
def test_node_search_refuses_what_it_cannot_certify(u1, a):
    # At u1 = 0.1 on the right end of [-1, u1], |M| rises into the set: the
    # extremum at 0 lies inside it.  At u1 = -0.1 it grows out of the set,
    # but a = -0.05 lies in the same window before the extremum at 0, where
    # |M| rises into [a, 1]: the extremum lies in that interval.  Neither
    # reads the window's sup from the gap's ends; the bound is at least the
    # sup |M(0)| = (1 + u1^2)/2.
    bound = _remez._node_pass(*_quadratic_reference(u1, a), False)[0]
    assert bound >= (1.0 + u1 * u1) / 2.0 * (1.0 - 1e-15)


@pytest.mark.parametrize("u1", [0.0, -2.0**-52], ids=["edge_node", "inner_node"])
def test_node_search_certifies_a_peak_on_an_interval_end(u1):
    # M = x^2 - (1 + u1^2)/2 peaks at 0, the right end of [-1, 0].  On the
    # edge node u1 = 0, M'(0) = 0 exactly; from the inner node u1 = -2^-52
    # Newton is clipped onto the end.  Either way the bound is the grid
    # search's sup and certifies the stop: the pass returns no candidates.
    ends, u = np.array([-1.0, 0.0, 0.5, 1.0]), np.array([-1.0, u1, 1.0])
    w, h, d1, d2 = leveled.leveled(u)
    bound, _, cands = _remez._node_pass(ends, u, w, h, d1, d2, True)
    want = np.max(np.abs(grid_extrema(ends, u, w, h, evaluate)[1]))
    assert cands is None
    assert abs(bound - want) <= 1e-15 * h


def test_node_search_certifies_a_peak_on_an_end_to_an_ulp():
    # The final reference of the e_0.5 solve at n = 3, with its node 0.5 on
    # the left end of [0.5, 1], where M' = -1.1e-16 has the sign of |M|
    # growing into the set: the peak is on the end to rounding, and the
    # bound is the grid search's sup and certifies the stop.
    ends = np.array([-1.0, -0.5, 0.5, 1.0])
    u = np.array([-1.0, float.fromhex("-0x1.00000001c04c9p-1"), 0.5, 1.0])
    w, h, d1, d2 = leveled.leveled(u)
    assert d1[2] < 0.0 and abs(d1[2] / d2[1]) <= math.ulp(1.0)
    bound, _, cands = _remez._node_pass(ends, u, w, h, d1, d2, True)
    want = np.max(np.abs(grid_extrema(ends, u, w, h, evaluate)[1]))
    assert cands is None
    assert abs(bound - want) <= 1e-15 * h


def test_node_bound_where_the_interval_end_lies_past_the_next_node():
    # On [-1, 0] u [0.5, 1] at n = 5 the node u_1 = -0.85 has its peak,
    # 1.053 h near -0.815, inside [-1, 0]; that interval's end 0 lies past
    # u_2 = -0.34, in u_3's window, where M has u_1's sign and |M| grows out
    # of the set, and at 0.5 |M| = h falls into [0.5, 1].  A read of u_1's
    # window from those ends would give h; the bound reads the peak.
    ends = np.array([-1.0, 0.0, 0.5, 1.0])
    u = np.array([-1.0, -0.85, -0.34, 0.5, 0.82, 1.0])
    w, h = leveled.leveled(u)[:2]
    m, dm = evaluate(ends[1:3], u, w, h, 1)
    assert m[0] * w[1] > 0.0 and dm[0] * w[1] > 0.0 and m[1] * dm[1] < 0.0
    sup = np.max(np.abs(_interlaced_candidates(ends, u, w, h)[1]))
    assert max(abs(m[0]), abs(m[1])) < 0.96 * sup
    assert _node_bound(ends, u)[0] >= (1.0 - 1e-15) * sup


def test_every_iteration_tries_the_node_search_first(monkeypatch):
    # One node pass per iteration, also before the exchange has converged
    # and on a set whose masses are not multiples of 1/n.
    calls = _counting(monkeypatch, _remez, "_node_pass")
    r = minimal_polynomial(TRIPLE, 20)
    assert r.iterations > 1 and len(calls) == r.iterations


def _pencil_sets():
    rng = np.random.RandomState(7)
    return {**NODE_SETS, **{f"random-{i}": _random_union(rng) for i in range(20)}}


PENCIL_SETS = _pencil_sets()


def _merged_candidates(xs, vals):
    """A search's candidates in ascending order of x, less each point within
    1e-14 of the last one kept, as `_next_reference` reads them."""
    order = np.argsort(xs, kind="stable")
    x, v = xs[order], vals[order]
    keep, last = [], -math.inf
    for i, xi in enumerate(x.tolist()):
        if xi - last > 1e-14:
            keep.append(i)
            last = xi
    return x[keep], v[keep]


def _pencil_extrema(ends, u, w, h, d1):
    """The tests' pencil search: the interval ends and the zeros of M' of
    `oracles.pencil_zeros` inside an interval, with M at them, as two
    arrays; None where the pencil does not give n - 1 real zeros."""
    crit = pencil_zeros(u, w, d1)
    if crit is None:
        return None
    xs = np.concatenate((ends, crit[np.searchsorted(ends, crit) % 2 == 1]))
    return xs, evaluate(xs, u, w, h, 0)[0]


@pytest.mark.parametrize("name", sorted(PENCIL_SETS))
def test_pencil_search_matches_the_grid_search_on_the_references_it_visits(name):
    # On every reference that the solves at n = 1..30 visit, the tests' pencil
    # search returns the candidates of the tests' grid search
    # (`oracles.grid_extrema`): as many once points within 1e-14 merge, as
    # `_next_reference` merges them (a zero of M' on an interval end comes
    # out of either search on it or a few ulps to either side), values
    # within 1e-15 of the largest |M| (the rounding of M grows with |M|, up
    # to 1.7 h on the early references), and zeros of M' within 1e-10 of the
    # node spacing of three more order-2 Newton steps.  The node pass's
    # bound is at least their sup, to 1e-15 of it.
    cn, _ = normalize(PENCIL_SETS[name])
    ends = np.array(cn.endpoints)
    for n in range(1, 31):
        for u in _exchange_references(cn, n):
            w, h, d1 = leveled.leveled(u)[:3]
            got = _pencil_extrema(ends, u, w, h, d1)
            assert got is not None, n
            x, v = _merged_candidates(*got)
            x_grid, v_grid = _merged_candidates(*grid_extrema(ends, u, w, h, evaluate))
            assert len(x) == len(x_grid), (n, len(x), len(x_grid))
            sup = np.max(np.abs(v_grid))
            assert np.max(np.abs(v - v_grid)) <= 1e-15 * sup, n
            assert _node_bound(ends, u)[0] >= (1.0 - 1e-15) * sup, n
            crit = x[~np.isin(x, ends)]
            polished = crit
            for _ in range(3):
                _, d1, d2 = evaluate(polished, u, w, h, 2)
                polished = polished - d1 / d2
            assert np.max(np.abs(crit - polished), initial=0.0) <= 1e-10 * np.min(np.diff(u)), n


def _pencil_on_all_values(u, w, h, eigvals):
    """The zeros of M' from the companion pencil on all n + 1 node values of
    M': the shift-inverted block of size n + 1, sorted, or None where it
    does not give n - 1 real ones."""
    n = len(u) - 1
    d = node_derivatives(u, w, h, np.arange(n + 1))[0]
    r = 1.0 / (u - 3.0)
    rw = r * w
    mu = eigvals(np.diag(r) - np.outer(rw / (rw @ d), d * r))
    mu = mu[np.abs(mu) > 1e-3]
    if len(mu) != n - 1 or np.imag(mu).any():
        return None
    return np.sort(3.0 + 1.0 / mu.real)


@pytest.mark.parametrize("name", sorted(PENCIL_SETS))
def test_pencil_on_n_values_matches_the_pencil_on_all_of_them(monkeypatch, name):
    # The tests' pencil search rests on `oracles.pencil_zeros`, the pencil on
    # the first n values of M'.  On every reference that the solves at
    # n = 1..30 visit, its block has one exact zero eigenvalue, which comes
    # out below 1e-14 (the block on all n + 1 values has a Jordan pair near
    # 1e-8 there), and exactly n - 1 kept.  Its zeros are within 1e-11 of the
    # node spacing of the zeros of M' that the interlaced search takes
    # (8.1e-12 measured over the 27 sets), and within 2e-11 of those of the
    # pencil on all n + 1 values, the tolerance that
    # `test_interlaced_zeros_on_the_references_the_exchange_visits` gives
    # that pencil at n <= 30 (1.4e-11 measured, on e_0.7).
    cn, _ = normalize(PENCIL_SETS[name])
    refs = [(n, u) for n in range(1, 31) for u in _exchange_references(cn, n)]
    eigvals, solved = np.linalg.eigvals, []
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: solved.append(eigvals(a)) or solved[-1])
    for n, u in refs:
        w, h, d1 = leveled.leveled(u)[:3]
        want = _pencil_on_all_values(u, w, h, eigvals)
        got = pencil_zeros(u, w, d1)
        mu = np.sort(np.abs(solved[-1]))
        assert len(mu) == n and mu[0] <= 1e-14 and (n == 1 or mu[1] > 1e-3), (n, mu[:2])
        assert got is not None and want is not None and len(got) == n - 1, n
        spacing = np.min(np.diff(u))
        assert np.max(np.abs(got - want), initial=0.0) <= 2e-11 * spacing, n
        if n > 1:
            crit = leveled.interlaced_zeros(u, w)[1]
            assert np.max(np.abs(got - crit)) <= 1e-11 * spacing, n


@pytest.mark.parametrize("name", sorted(PENCIL_SETS))
def test_interlaced_zeros_on_the_references_the_exchange_visits(name):
    # On every reference that the solves at n = 2..100 visit, the two
    # symmetric solves give n zeros z of M, z_j in (u_j, u_{j+1}), and
    # n - 1 zeros of M', each strictly between consecutive z; those are
    # within 2e-11, 2e-10 and 1e-9 of the node spacing of the companion
    # pencil's on all n + 1 values at n <= 30, 31..60 and 61..100 (7.2e-12,
    # 7.3e-11 and 4.3e-10 measured over the 28 sets).  The node pass's bound
    # is at least the interlaced search's sup, to 1e-15 of it.
    cn, _ = normalize(PENCIL_SETS[name])
    ends = np.array(cn.endpoints)
    for n in range(2, 101):
        tol = 2e-11 if n <= 30 else 2e-10 if n <= 60 else 1e-9
        for u in _exchange_references(cn, n):
            w, h = leveled.leveled(u)[:2]
            z, crit = leveled.interlaced_zeros(u, w)
            assert len(z) == n and len(crit) == n - 1, n
            assert np.all((u[:-1] < z) & (z < u[1:])), n
            assert np.all((z[:-1] < crit) & (crit < z[1:])), n
            want = _pencil_on_all_values(u, w, h, np.linalg.eigvals)
            assert np.max(np.abs(crit - want)) <= tol * np.min(np.diff(u)), n
            sup = np.max(np.abs(_remez._interlaced_extrema(ends, u, w, h, crit)[1]))
            assert _node_bound(ends, u)[0] >= (1.0 - 1e-15) * sup, n


def test_pencil_at_degrees_one_and_two():
    # At n = 1 M' is a nonzero constant, all of the pencil's eigenvalues are
    # infinite, and M = x on the reference [-1, 1]: the bound is |M(+-1)| = 1
    # = h, which certifies the stop.  At n = 2, M = x^2 - (1 + u1^2)/2 on
    # [-1, u1, 1] has its critical point at 0, the pencil's one zero.  Where
    # 0 lies in the gap (-0.2, 0.3), Newton from u1 leaves u1's interval at
    # the end next to 0 (from -0.25 and 0.5) and |M| falls into the interval
    # across the gap, so the bound is the larger |M| at the gap's ends, the
    # sup on the set;
    # where 0 lies in the set, the bound is at least |M(0)|.
    u = np.array([-1.0, 1.0])
    w, h, d1, d2 = leveled.leveled(u)
    assert pencil_zeros(u, w, d1).tolist() == []
    assert _remez._node_pass(np.array([-1.0, -0.2, 0.3, 1.0]), u, w, h, d1, d2, True) == (1.0, None, None)
    for u1 in (-0.5, -0.25, 0.5):
        u = np.array([-1.0, u1, 1.0])
        w, h, d1 = leveled.leveled(u)[:3]
        crit = pencil_zeros(u, w, d1)
        assert len(crit) == 1 and abs(crit[0]) <= 1e-14, (u1, crit)
        peak = (1.0 + u1 * u1) / 2.0
        if u1 > -0.5:  # Newton from -0.5 stops short of -0.2
            bound = _node_bound(np.array([-1.0, -0.2, 0.3, 1.0]), u)[0]
            assert bound == pytest.approx(peak - 0.04, rel=1e-15, abs=0.0), u1
        if u1 < 0.1:
            assert _node_bound(np.array([-1.0, 0.1, 0.3, 1.0]), u)[0] >= peak * (1.0 - 1e-15), u1


def _counting(monkeypatch, module, name):
    """Patches module.name to record each call; returns the list of calls."""
    calls, func = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(1) or func(*a))
    return calls


def test_node_pass_runs_at_every_degree_and_the_interlaced_search_on_narrow_sets(monkeypatch):
    # Every iteration takes the node pass, at n = 30 and 31 alike, and on
    # quad no interlaced solve runs.  On 1e5*T_4, whose components are too
    # narrow for the bound, the iterations that it does not stop take the
    # interlaced search as well.
    passes = _counting(monkeypatch, _remez, "_node_pass")
    interlaced = _counting(monkeypatch, leveled, "interlaced_zeros")
    for n in (30, 31):
        r = minimal_polynomial(QUAD, n)
        assert r.iterations > 1 and len(passes) == r.iterations and interlaced == [], n
        passes.clear()
    r = minimal_polynomial(_scaled_image(1e5, 4), 31)
    assert r.iterations > 1 and len(passes) == r.iterations and len(interlaced) >= r.iterations - 1


def test_candidates_without_a_sign_run_fall_back_to_the_interlaced_search(monkeypatch):
    # Node-pass candidates that keep only the interval ends lack a sign run:
    # the selection raises on them, and every iteration runs the interlaced
    # search instead, whose candidates move the exchange, so the solve ends
    # at the deviation of the unpatched one to rounding.
    want = minimal_polynomial(QUAD, 12)
    search = _remez._node_pass

    def ends_only(ends, *args):
        bound, low, cands = search(ends, *args)
        if cands is None:
            return bound, low, None
        keep = np.isin(cands[0], ends)
        return bound, low, (cands[0][keep], cands[1][keep])

    monkeypatch.setattr(_remez, "_node_pass", ends_only)
    calls = _counting(monkeypatch, leveled, "interlaced_zeros")
    got = minimal_polynomial(QUAD, 12)
    assert len(calls) >= got.iterations - 1 and got.iterations > 1
    assert got.deviation == pytest.approx(want.deviation, rel=1e-12, abs=0.0)
    assert got.residual <= _remez.LEVEL_TOL * got.deviation


@pytest.mark.parametrize("c, k, n, most", [(1e5, 4, 31, 7), (1e5, 4, 52, 8), (1e5, 3, 93, 8),
                                           (1e5, 3, 99, 8), (1e5, 4, 76, 25)])
def test_interlaced_search_converges_on_narrow_images(c, k, n, most):
    # On the 1e5*T_3 and 1e5*T_4 images, whose components are about 2e-6
    # wide, M' is rounding noise in the first iterations; the interlaced
    # search's zeros are real whatever the noise, and the solves converge
    # (7, 6, 6, 6 and 25 iterations; 1e5*T_4 at n = 76 finds no gap below
    # its sixth iterate's for ten iterations first).  At multiples of k each
    # deviation is within 16 eps over the narrowest component's width (on the
    # hull [-1, 1]) of the exact 2 / (2|c 2^(k-1)|)^(n/k): 3.0, 5.6, 6.0 and
    # 4.4 of that unit measured.
    e = _scaled_image(c, k)
    r = minimal_polynomial(e, n)
    assert r.iterations <= most and r.residual <= _remez.LEVEL_TOL * r.deviation, r.iterations
    if n % k == 0:
        cn, _ = normalize(e)
        unit = np.finfo(float).eps / min(b - a for a, b in cn.intervals)
        exact = 2.0 / (2.0 * c * 2.0 ** (k - 1)) ** (n // k)
        assert abs(r.deviation - exact) <= 16.0 * unit * exact, (r.deviation / exact - 1.0) / unit


@pytest.mark.parametrize("c, k, n", [(1e5, 3, 39)])
def test_stall_accepted_solves_bracket_the_exact_deviation(c, k, n):
    # The one solve among c*T_3 and c*T_4 (c in {1.25, 10, 1e3, 1e5},
    # n <= 100) that does not reach LEVEL_TOL: it alternates between two
    # references (gaps 3.6e-9 and 1.7e-8) and is accepted at MAX_ITER at the
    # smaller.  The residual still brackets the exact 2 / (2|c 2^(k-1)|)^(n/k)
    # below the deviation, to 16 eps over the narrowest component's width
    # (1.1e-5 of that unit measured).
    e = _scaled_image(c, k)
    r = minimal_polynomial(e, n)
    assert _remez.LEVEL_TOL < r.residual / r.deviation <= _remez.STALL_ACCEPT
    cn, _ = normalize(e)
    unit = np.finfo(float).eps / min(b - a for a, b in cn.intervals)
    exact = 2.0 / (2.0 * c * 2.0 ** (k - 1)) ** (n // k)
    slack = 16.0 * unit * exact
    assert r.deviation - r.residual - slack <= exact <= r.deviation + slack


def test_stall_accepted_solve_reports_the_iterations_run():
    # 1e5*T_3 at n = 39 runs all MAX_ITER iterations and is accepted at its
    # smallest-gap iterate, the fifth: `iterations` counts the work done,
    # not the index of the iterate it reports.
    r = minimal_polynomial(_scaled_image(1e5, 3), 39)
    assert r.iterations == _remez.MAX_ITER
    assert r.residual > _remez.LEVEL_TOL * r.deviation


def test_refusal_at_max_iter_carries_the_best_iterate(monkeypatch):
    # Quad at n = 20 converges in 5 iterations.  Cut to 2, with a stall
    # tolerance below the gap left, the solve is refused: the error names
    # the gap and the cap, and its last iterate is the best of the two,
    # with the iterations run and that gap as residual over deviation.
    assert minimal_polynomial(QUAD, 20).iterations == 5
    monkeypatch.setattr(_remez, "MAX_ITER", 2)
    monkeypatch.setattr(_remez, "STALL_ACCEPT", 1e-9)
    with pytest.raises(ConvergenceError, match=r"^leveling gap \S+ after 2 iterations "
                                               r"\(degree 20\)$") as info:
        minimal_polynomial(QUAD, 20)
    r = info.value.last_iterate
    gap = float(str(info.value).split()[2])
    assert r.iterations == 2
    assert r.residual / r.deviation == pytest.approx(gap, rel=1e-3)
    assert gap == pytest.approx(1.49e-2, rel=1e-2)


@pytest.mark.parametrize("e, n", [(FULL, 4), (e_alpha(0.5), 6)], ids=["interval", "e_0.5"])
def test_node_pass_refuses_a_point_of_the_other_sign(monkeypatch, e, n):
    # The bound U_j holds only where M keeps its node's sign at the first
    # Newton step.  With one such point read with the other sign, the node
    # pass returns an infinite bound, and the iteration takes one
    # interlaced solve, which stops the solve at the unpatched deviation.
    want = minimal_polynomial(e, n)
    evaluate_ = leveled.evaluate
    flipped = []

    def other_sign(x, u, w, h, order):
        out = evaluate_(x, u, w, h, order)
        if order == 1 and not flipped:
            flipped.append(float(x[0]))
            out[0][0] = -out[0][0]
        return out

    monkeypatch.setattr(leveled, "evaluate", other_sign)
    node_pass, bounds = _remez._node_pass, []
    monkeypatch.setattr(_remez, "_node_pass",
                        lambda *a: bounds.append(node_pass(*a)) or bounds[-1])
    solved = _counting(monkeypatch, leveled, "interlaced_zeros")
    got = minimal_polynomial(e, n)
    assert len(flipped) == 1 and bounds[0][0] == math.inf
    assert got.iterations == 1 and len(solved) == 1
    assert got.deviation == want.deviation


def test_narrow_images_stop_only_on_level_tol_or_at_max_iter():
    # The exchange stops short of LEVEL_TOL only at MAX_ITER: on the 400
    # solves of 1e3*T_3, 1e3*T_4, 1e5*T_3 and 1e5*T_4 at n = 1..100 each one
    # but 1e5*T_3 at n = 39 converges within 25 iterations, and that one is
    # accepted at MAX_ITER with a gap below STALL_ACCEPT.
    for c in (1e3, 1e5):
        for k in (3, 4):
            e = _scaled_image(c, k)
            for n in range(1, 101):
                r = minimal_polynomial(e, n)
                if (c, k, n) == (1e5, 3, 39):
                    assert r.residual <= _remez.STALL_ACCEPT * r.deviation
                else:
                    assert r.residual <= _remez.LEVEL_TOL * r.deviation, (c, k, n)
                    assert r.iterations <= 25, (c, k, n, r.iterations)


def test_one_iteration_frontier_solves_build_no_extremum_grid(monkeypatch):
    # The 15 frontier solves on inverse images (the interval, e_0.3, e_0.6,
    # 1.25*T_3 and 1.25*T_4 at n = 32/40/48) end in their first iteration,
    # stopped by the node pass's bound: no grid and no eigenvalue solve; nor
    # does triple at n = 32, which moves on the pass's candidates.
    solved = _counting(monkeypatch, leveled, "interlaced_zeros")
    solves = _frontier_solves()[:15]
    assert [minimal_polynomial(e, n).iterations for e, n in solves] == [1] * 15
    assert solved == []
    assert minimal_polynomial(TRIPLE, 32).iterations > 1 and solved == []


@pytest.mark.parametrize("e", [TRIPLE, QUAD], ids=["triple", "quad"])
@pytest.mark.parametrize("n", [32, 40, 48])
def test_frontier_solves_take_at_most_one_interlaced_solve(monkeypatch, e, n):
    # The exchange moves on the node pass's candidates, and its bound stops
    # it: on these frontier solves the interlaced search never runs.
    solved = _counting(monkeypatch, leveled, "interlaced_zeros")
    passes = _counting(monkeypatch, _remez, "_node_pass")
    r = minimal_polynomial(e, n)
    assert r.iterations > 1 and len(passes) == r.iterations and solved == []


def _drop_the_largest(xs, vals):
    k = np.argmax(np.abs(vals))
    return np.delete(xs, k), np.delete(vals, k)


def _nodes_only(xs, vals, u, w, h):
    return u, np.sign(w) * h


@pytest.mark.parametrize("e, n", [(TRIPLE, 40), (QUAD, 48)], ids=["triple", "quad"])
@pytest.mark.parametrize("patch", ["drop-largest", "nodes-only"])
def test_uncertified_candidates_cannot_move_the_stop(monkeypatch, e, n, patch):
    # The exchange may move on any alternating candidates whose |M| is at
    # least h; only the bound, or the interlaced search, stops it.  Node-pass
    # candidates that lose their largest |M| (the exchange on them may then
    # lack a sign run, and the iteration takes the interlaced search), or
    # that are the nodes only (the exchange would give back the same
    # reference), converge to the same deviation within LEVEL_TOL.
    want = minimal_polynomial(e, n)
    search = _remez._node_pass
    calls = []

    def patched(ends, u, w, h, *rest):
        bound, low, cands = search(ends, u, w, h, *rest)
        if cands is None:
            return bound, low, None
        calls.append(1)
        return bound, low, (_drop_the_largest(*cands) if patch == "drop-largest"
                            else _nodes_only(*cands, u, w, h))

    monkeypatch.setattr(_remez, "_node_pass", patched)
    r = minimal_polynomial(e, n)
    assert calls
    assert r.deviation == pytest.approx(want.deviation, rel=1e-12, abs=0.0)
    assert r.residual <= _remez.LEVEL_TOL * r.deviation


def test_narrow_images_take_the_interlaced_search_where_the_bound_does_not_stop(monkeypatch):
    # On 1e5*T_3 and 1e5*T_4 the narrowest component is about 2e-6 wide on
    # the hull [-1, 1], eps over it 5e-11 to 1e-10, above LEVEL_TOL: every
    # iteration that the node pass's bound does not stop takes the
    # interlaced search, whose exact sup reads the gap, and their
    # trajectories, chaotic at the rounding floor, stay as the narrow-image
    # tests pin them.
    passes = _counting(monkeypatch, _remez, "_node_pass")
    solved = _counting(monkeypatch, leveled, "interlaced_zeros")
    for k in (3, 4):
        e = _scaled_image(1e5, k)
        for n in range(31, 101):
            passes.clear()
            solved.clear()
            minimal_polynomial(e, n)
            assert len(solved) >= len(passes) - 1, (k, n)


def test_verify_fixtures_iteration_totals():
    # The exchange's iteration count over n = 1..100 on each verify
    # fixture: a drift in the search that moves the exchange shows here.
    totals = {name: sum(minimal_polynomial(e, n).iterations for n in range(1, 101))
              for name, e in _verify_fixtures()}
    assert totals == {"interval": 100, "pair-0.3": 293, "pair-0.5": 292, "pair-0.6": 292,
                      "pair-0.7": 292, "asymmetric-pair": 474, "triple": 468, "quad": 500}


def _many_interval_unions(ells):
    """Ten unions for each of ell = 10, 20, 30, 40 and 50 intervals, drawn in
    that order from RandomState(4): 2 ell uniform endpoints on [-1, 1],
    redrawn until their spacing is at least 0.2 / ell^2; those of `ells`."""
    rng = np.random.RandomState(4)
    sets = []
    for ell in (10, 20, 30, 40, 50):
        for _ in range(10):
            while True:
                pts = np.sort(rng.uniform(-1.0, 1.0, 2 * ell))
                if np.min(np.diff(pts)) >= 0.2 / ell**2:
                    break
            if ell in ells:
                sets.append(IntervalUnion(tuple(pts.tolist())))
    return sets


def test_many_interval_solves_converge_or_raise_a_chebcap_error():
    # On unions of 40 and 50 intervals at n = 100 the equilibrium measure's
    # masses are off by up to 160 and the exchange may not converge (8 of
    # these 20 raise ConvergenceError), but each solve converges or raises a
    # ChebcapError: no bare RuntimeWarning (an overflow in the exchange's
    # search) escapes under the suite's warnings-as-errors filter, as it did
    # on two of the unions of 50.
    for e in _many_interval_unions((40, 50)):
        try:
            r = minimal_polynomial(e, 100)
        except ChebcapError:
            continue
        assert r.residual <= _remez.STALL_ACCEPT * r.deviation


def test_evaluate_reads_the_first_form_everywhere():
    # One form at every point, on the hull and outside it: the values are
    # `leveled.first_form`'s, and a point on a node is s_j h exactly (e_0.6's
    # hull is [-1, 1], so the frame and the hull scale are the identity).
    # The witness on e_0.6 passes.
    e = e_alpha(0.6)
    r = minimal_polynomial(e, 24)
    assert minimality_witness(e, r).passed
    assert r.frame(0.7) == 0.7 and r.hull_scale == 1.0
    u, w = np.array(r.nodes), np.array(r.weights)
    t = np.array([-1.5, -0.8, 0.0, 0.7, 1.2])
    assert np.array_equal(r.evaluate(t), leveled.first_form(t, u, w, r.level))
    assert np.array_equal(r.evaluate(u), np.sign(w) * r.level)


@pytest.mark.parametrize("alpha, n", [(0.6, 48), (0.3, 99)])
def test_evaluate_in_the_gaps_matches_the_oracle(alpha, n):
    # Against the 50-digit value of the same interpolant, max |error| over
    # max(|M|, L): 7.6e-16 (e_0.6, n = 48) and 9.0e-15 (e_0.3, n = 99) at 39
    # points of the gap, where the second form was 0.21 and 1.4e-2 off, and
    # 1.9e-14 and 2.9e-14 at 41 points of each interval (5.9e-14 and 1.9e-14).
    e = e_alpha(alpha)
    r = minimal_polynomial(e, n)
    gap = np.linspace(-alpha, alpha, 41)[1:-1]
    on_e = np.concatenate([np.linspace(a, b, 41) for a, b in e.intervals])
    for xs in (gap, on_e):
        want = np.array([r.hull_scale * leveled_value_oracle(r.nodes, r.frame(x)) for x in xs])
        err = np.max(np.abs(r.evaluate(xs) - want)) / max(np.max(np.abs(want)), r.deviation)
        assert err <= 1e-13, (alpha, n, err)


def test_blow_up_set_builds_no_grid_and_solves_no_equilibrium(monkeypatch):
    # C' comes from the interlacing structure alone: the zeros of M and M'
    # from one interlaced solve per blow-up set, and no equilibrium measure
    # of the gaps' union.
    results = [(e, minimal_polynomial(e, n)) for e, n in
               ((TRIPLE, 32), (QUAD, 48), (e_alpha(0.6), 33), (BLOW_UP_SETS["10*T_4"], 42))]
    interlaced = _counting(monkeypatch, leveled, "interlaced_zeros")
    built = []
    monkeypatch.setattr(leveled, "equilibrium", lambda ends: built.append(ends) or equilibrium(ends))
    for e, r in results:
        interlaced.clear()
        blow_up_set(e, r)
        assert len(interlaced) == 1
    assert built == []


def _random_candidates(rng):
    """Candidate arrays in random order with the cases the selection must
    agree on: repeated x, near-duplicates 5e-15 and 2e-14 apart, |M| drawn
    from three values so that runs and ends tie, and zeros."""
    k = rng.randint(1, 16)
    xs = np.sort(rng.uniform(-1.0, 1.0, k))
    signs = np.cumprod(np.where(rng.uniform(size=k) < 0.6, -1.0, 1.0))
    vals = signs * rng.choice([0.5, 1.0, 2.0], k)
    vals[rng.uniform(size=k) < 0.1] = 0.0
    pick = rng.randint(0, k, rng.randint(0, 4))
    offsets = rng.choice([0.0, 5e-15, 2e-14], len(pick))
    xs = np.concatenate((xs, xs[pick] + offsets))
    vals = np.concatenate((vals, rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], len(pick))))
    order = rng.permutation(len(xs))
    return xs[order], vals[order]


def test_next_reference_matches_the_list_oracle():
    # The one-pass selection returns the points of the list-of-tuples code it
    # replaced, and raises wherever that code found fewer than m sign runs.
    # The draws trim from either end, tie the ends' |M| while trimming, and
    # ask for more runs than there are.
    rng = np.random.RandomState(16)
    seen = dict.fromkeys(("raised", "left", "right", "tie"), 0)
    for _ in range(1000):
        xs, vals = _random_candidates(rng)
        runs = _collapse_sign_runs(_candidates(xs, vals))
        m = rng.randint(1, len(runs) + 3)
        want = next_reference_oracle(xs, vals, m)
        if want is None:
            seen["raised"] += 1
            with pytest.raises(ConvergenceError, match=f"{len(runs)} sign runs"):
                _remez._next_reference(xs, vals, m)
            continue
        assert _remez._next_reference(xs, vals, m).tolist() == want, (xs, vals, m)
        seen["left"] += want[0] != runs[0][0]
        seen["right"] += want[-1] != runs[-1][0]
        seen["tie"] += len(runs) > m and abs(runs[0][1]) == abs(runs[-1][1])
    assert min(seen.values()) >= 50, seen


def _drop_the_middle_candidate(monkeypatch):
    """Patches the node pass's candidates and the interlaced search to lose
    the interior candidate nearest 0, and starts the exchange from
    equispaced points, which are not leveled (the Chebyshev-Lobatto start
    on the interval is, and ends the exchange before any selection).
    Returns the list of searches that gave candidates."""
    calls = []

    def dropped(xs, vals):
        calls.append(1)
        inner = np.flatnonzero(np.abs(xs) < 1.0)
        k = inner[np.argmin(np.abs(xs[inner]))]
        return np.delete(xs, k), np.delete(vals, k)

    node_pass, interlaced = _remez._node_pass, _remez._interlaced_extrema

    def passing(*args):
        bound, low, cands = node_pass(*args)
        return bound, low, None if cands is None else dropped(*cands)

    monkeypatch.setattr(_remez, "_init_reference", lambda e, n: np.linspace(-1.0, 1.0, n + 1))
    monkeypatch.setattr(_remez, "_interlaced_extrema", lambda *a: dropped(*interlaced(*a)))
    monkeypatch.setattr(_remez, "_node_pass", passing)
    return calls


def test_missing_sign_run_raises_at_the_first_selection(monkeypatch):
    # Without the middle window's peak the candidates hold 5 sign runs, not
    # n + 1 = 7: no reference alternates over them, neither the node pass's
    # nor the interlaced search's, which runs in its place, and the exchange
    # stops at its first selection with the best iterate so far.
    calls = _drop_the_middle_candidate(monkeypatch)
    with pytest.raises(ConvergenceError, match="5 sign runs") as info:
        minimal_polynomial(FULL, 6)
    assert len(calls) == 2
    assert info.value.last_iterate.iterations == 1


@pytest.mark.parametrize("n", [3, 5])
def test_component_too_narrow_for_the_equilibrium_raises_convergence_error(n):
    # The middle component is one ulp wide: the equilibrium's midpoint
    # samples sit on its ends and its masses are nan.
    e = IntervalUnion((-1.0, -0.6, 0.3, 0.3000000000000001, 0.6, 1.0))
    with pytest.raises(ConvergenceError, match="narrowest component, 1.11e-16 wide"):
        minimal_polynomial(e, n)


# C' of e_0.6 at n = 93 and of e_0.7 at n = 73 as the solver computed them
# when the test below was written: the central band's ends come out of the
# last bits of the solve.
CENTRAL_BAND_C_PRIME = {
    (0.6, 93): (-1.0, -0.6, 1.2767075975363244e-14, 1.276707597536385e-14, 0.6, 1.0),
    (0.7, 73): (-1.0, -0.7, 4.9958041737928784e-15, 4.995804173795379e-15, 0.7, 1.0),
}


@pytest.mark.parametrize("alpha, n, width", [(0.6, 93, "6.06e-28"), (0.7, 73, "2.5e-27")])
def test_resolve_on_a_central_band_too_narrow_raises_convergence_error(alpha, n, width):
    # C' of e_alpha at odd n holds a central band around 0, here far below
    # an ulp of the hull: the re-solve on it is a numerical failure.  On the
    # literal C' the equilibrium measure names the band's width; on the
    # solver's own C', whose band moves with the solve's last bits, the
    # re-solve fails there or in the extremum search.
    with pytest.raises(ConvergenceError, match=f"narrowest component, {width} wide"):
        minimal_polynomial(IntervalUnion(CENTRAL_BAND_C_PRIME[alpha, n]), n)
    e = e_alpha(alpha)
    c_prime = blow_up_set(e, minimal_polynomial(e, n)).c_prime
    with pytest.raises(ConvergenceError):
        minimal_polynomial(c_prime, n)


@pytest.mark.parametrize("alpha, n", [(0.5, 63), (0.6, 51), (0.7, 41)])
def test_witness_reports_a_re_solve_that_raises(alpha, n):
    # The re-solve on C' of e_alpha at these odd n raises ConvergenceError
    # (C''s central band is a few 1e-15 wide); the witness reports it, with
    # the error class and the band's width, as a sandwich that is not ok.
    e = e_alpha(alpha)
    r = minimal_polynomial(e, n)
    c_prime = blow_up_set(e, r).c_prime
    width = min(b - a for a, b in c_prime.intervals)
    with pytest.raises(ConvergenceError):
        minimal_polynomial(c_prime, n)
    w = minimality_witness(e, r)
    assert w.sup_ok and w.alternation_ok
    assert not w.sandwich_ok and not w.passed and w.sandwich_deviation_diff == math.inf
    assert w.sandwich_error == f"ConvergenceError: narrowest component of C' {width:.3g} wide"
    assert minimality_witness(e, minimal_polynomial(e, n + 1)).sandwich_error is None


def test_missing_sign_run_exits_as_non_convergence(monkeypatch):
    _drop_the_middle_candidate(monkeypatch)
    assert main(["minpoly", "--intervals", "-1 1", "--degree", "6"]) == 3


@pytest.mark.parametrize("name, e, n", [
    ("asym", IntervalUnion((-1.0, 0.0, 0.5, 1.0)), 40), ("quad", QUAD, 60), ("triple", TRIPLE, 80),
], ids=["asym", "quad", "triple"])
def test_witness_rejects_the_level_reported_as_the_deviation(monkeypatch, name, e, n):
    # Stopped after three iterations, with STALL_ACCEPT raised to accept
    # them, these solves accept an iterate whose leveling gap, in
    # `residual`, is 1.7e-4 (asym) to 2.6e-4 of the deviation.  Reported with
    # the level h as its deviation and no residual, |M| is h at the interval
    # ends, and only the peaks of |M| inside the intervals are above it; the
    # witness's sup reads them, to at most the gap, which the node pass's
    # bound, the deviation, overstates.  The honest iterate passes.
    monkeypatch.setattr(_remez, "MAX_ITER", 3)
    monkeypatch.setattr(_remez, "STALL_ACCEPT", 1e-3)
    r = minimal_polynomial(e, n)
    assert r.iterations == 3 and r.residual > 1e-8 * r.deviation
    low = dataclasses.replace(r, deviation=r.level * r.hull_scale, residual=0.0)
    w = minimality_witness(e, low)
    assert not w.sup_ok and not w.passed, name
    assert w.sup_excess <= r.residual
    assert minimality_witness(e, r).passed


def test_witness_and_blow_up_share_one_interlaced_solve(monkeypatch):
    # The witness passes.  The result caches its interlaced solve and each
    # C', so the witness and `blow_up_set` take one interlaced solve per
    # result between them, in either order with each called twice, and the
    # witness reads no first form.  On one interval C' is the hull, and
    # `blow_up_set` alone takes none.  The re-solve on C' takes no
    # interlaced solve.
    sets = ((FULL, 20), (e_alpha(0.6), 24), (IntervalUnion((-1.0, 0.0, 0.5, 1.0)), 12),
            (TRIPLE, 20), (QUAD, 30))
    interlaced = _counting(monkeypatch, leveled, "interlaced_zeros")
    first = _counting(monkeypatch, leveled, "first_form")
    for e, n in sets:
        for calls in ((minimality_witness, blow_up_set), (blow_up_set, minimality_witness)):
            r = minimal_polynomial(e, n)
            interlaced.clear()
            for call in calls + calls:
                got = call(e, r)
                assert call is blow_up_set or got.passed, (e, n)
            assert len(interlaced) == 1 and first == [], (e, calls)
    r = minimal_polynomial(FULL, 20)
    interlaced.clear()
    blow_up_set(FULL, r)
    blow_up_set(FULL, r)
    assert interlaced == []


@pytest.mark.parametrize("name, n", [(name, n) for name in ("e_0.6", "triple", "quad")
                                     for n in (8, 16, 24, 32)] + [("asym", 12)])
def test_sharing_the_solve_changes_no_answer(name, n):
    # `blow_up_set` and the witness on one result, in both orders and twice
    # each, return field for field what each returns on a freshly solved
    # result; the cache hands back the same C'.  A set with the same hull
    # and other gaps gets its own C' from the same result.  The cached
    # arrays are read-only.
    e = {"e_0.6": e_alpha(0.6), "triple": TRIPLE, "quad": QUAD,
         "asym": IntervalUnion((-1.0, 0.0, 0.5, 1.0))}[name]
    a, b, *rest = e.endpoints  # the first interval's right end a tenth of its width in
    other = IntervalUnion((a, b - 0.1 * (b - a), *rest))
    want = {blow_up_set: blow_up_set(e, minimal_polynomial(e, n)),
            minimality_witness: minimality_witness(e, minimal_polynomial(e, n))}
    want_other = blow_up_set(other, minimal_polynomial(e, n))
    for calls in ((blow_up_set, minimality_witness, minimality_witness, blow_up_set),
                  (minimality_witness, blow_up_set, blow_up_set, minimality_witness)):
        r = minimal_polynomial(e, n)
        for call in calls:
            assert call(e, r) == want[call], (name, n, call.__name__)
        assert blow_up_set(e, r) is blow_up_set(e, r)
        got = blow_up_set(other, r)
        assert got == want_other and got is not blow_up_set(e, r)
        assert set(r._blow_ups) == {e.endpoints, other.endpoints}
        for a in r._reference + r._interlaced:
            with pytest.raises(ValueError):
                a[0] = 0.0


@pytest.mark.parametrize("defect", ["outside", "too_many"])
def test_a_blow_up_set_that_raises_caches_nothing(monkeypatch, defect):
    # Gap cuts that leave part of the set out of C', or give C' more than n
    # intervals, raise ConvergenceError carrying that C', on every call: a
    # raise stores no C'.  Unpatched, the same result then returns the C'
    # of a freshly solved result.
    e, n = e_alpha(0.6), 3
    r = minimal_polynomial(e, n)
    if defect == "outside":  # the first interval's right end cut in by 0.1
        cuts = [-0.7, 0.6]
        message = "does not contain the input set"
    else:  # n bands in the gap, n + 2 intervals
        cuts = [-0.6, *np.linspace(-0.5, 0.5, 2 * n), 0.6]
        message = f"blow-up produced {n + 2} intervals for degree {n}"
    monkeypatch.setattr(_remez, "_gap_cuts", lambda *a: cuts)
    for _ in range(2):
        with pytest.raises(ConvergenceError, match=message) as exc:
            blow_up_set(e, r)
        assert isinstance(exc.value.last_iterate, IntervalUnion)
        assert r._blow_ups == {}
    monkeypatch.undo()
    assert blow_up_set(e, r) == blow_up_set(e, minimal_polynomial(e, n))


MULTI_FIXTURES = {name: e for name, e in _verify_fixtures() if e.ell > 1}


@pytest.mark.parametrize("name", sorted(MULTI_FIXTURES))
def test_solves_on_the_blow_up_set_match_the_composed_deviations(name):
    # C' is an inverse image of degree n, so L_kn(C') = 2 (L_n / 2)^k exactly
    # (`oracles.composed_on_blow_up`): a degree-kn solve on C' is checked
    # against the degree-n solve on E.  The tolerance is k 1e-12, L_n's error
    # carried to the k-th power, plus 16 eps / w for the error of C''s ends,
    # w its narrowest width over its hull.  Over the seven fixtures (1,456
    # solves) the worst error was 1.5e-12, at most 0.15 of its tolerance.
    eps = np.finfo(float).eps
    for n in range(2, 13):
        c_prime, exact = composed_on_blow_up(MULTI_FIXTURES[name], n)
        ends = c_prime.endpoints
        width = min(b - a for a, b in c_prime.intervals) / (ends[-1] - ends[0])
        for k, want in exact.items():
            err = abs(minimal_polynomial(c_prime, k * n).deviation - want) / want
            assert err <= k * 1e-12 + 16.0 * eps / width, (name, n, k, err)
