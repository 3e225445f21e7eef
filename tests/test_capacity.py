"""Capacity bounds: closed-form product, midpoint form, ascent, brackets."""

import math

import numpy as np
import pytest

from chebcap import capacity as _capacity
from chebcap.capacity import (
    BOUNDARY_MARGIN,
    SolyninParams,
    capacity_bracket,
    capacity_lower_bound,
    capacity_upper_estimate,
    ratio_sequence,
    solynin_bound,
    solynin_midpoint_bound,
    solynin_optimized_bound,
)
from chebcap.cli import _verify_fixtures
from chebcap.errors import InvalidInputError
from chebcap.intervals import IntervalUnion, normalize, to_angles
from chebcap.inverse_image import e_alpha
from chebcap.remez import minimal_polynomial
from oracles import solynin_midpoint_closed_form

FULL = IntervalUnion((-1.0, 1.0))
ASYM = IntervalUnion((-1.0, 0.0, 0.5, 1.0))
TRIPLE = IntervalUnion((-1.0, -0.6, -0.2, 0.2, 0.6, 1.0))

# frozen reference values of the midpoint bound, computed once by hand from
# the closed form
ASYM_MIDPOINT = 0.48294528775375567
TRIPLE_MIDPOINT = 0.47436393690864248


def random_union(rng, ell_max: int = 4) -> IntervalUnion:
    ell = int(rng.randint(2, ell_max + 1))
    while True:
        pts = np.sort(rng.uniform(-1.0, 1.0, 2 * ell))
        if float(np.min(np.diff(pts))) >= 0.05:
            break
    pts[0], pts[-1] = -1.0, 1.0
    return IntervalUnion(tuple(float(x) for x in pts))


def test_symmetric_pair_bound_is_exact_at_central_delta():
    ang = to_angles(e_alpha(0.6))
    params = SolyninParams(gamma=(0.0, math.pi), delta=(math.pi / 2,))
    assert solynin_bound(ang, params) == pytest.approx(0.4, abs=1e-15)
    ang5 = to_angles(e_alpha(0.5))
    params5 = SolyninParams(gamma=(0.0, math.pi), delta=(math.pi / 2,))
    expect = 0.5 * math.sqrt(0.75)
    assert solynin_bound(ang5, params5) == pytest.approx(expect, abs=1e-15)


def test_bound_rejects_infeasible_parameters():
    ang = to_angles(e_alpha(0.6))
    with pytest.raises(InvalidInputError):
        solynin_bound(ang, SolyninParams(gamma=(0.1, math.pi), delta=(1.5,)))
    with pytest.raises(InvalidInputError):
        solynin_bound(ang, SolyninParams(gamma=(0.0, 3.0), delta=(1.5,)))
    with pytest.raises(InvalidInputError):
        # delta outside the gap [psi_1, phi_2]
        solynin_bound(ang, SolyninParams(gamma=(0.0, math.pi), delta=(0.1,)))
    with pytest.raises(InvalidInputError):
        solynin_bound(ang, SolyninParams(gamma=(0.0, math.pi), delta=(1.0, 2.0)))
    with pytest.raises(InvalidInputError):
        solynin_bound(to_angles(FULL), SolyninParams(gamma=(0.0,), delta=()))


def test_degenerate_parameters_zero_out_or_drop_factors():
    ang = to_angles(TRIPLE)
    phi, psi = ang.phi, ang.psi
    # gamma_2 pinned at the arc's left edge makes one sine argument zero:
    # a valid bound of zero
    params = SolyninParams(
        gamma=(0.0, phi[1], math.pi),
        delta=(0.5 * (psi[0] + phi[1]), 0.5 * (psi[1] + phi[2])),
    )
    assert solynin_bound(ang, params) == 0.0
    # delta_2 pushed onto the same pinned gamma gives a zero-weight factor,
    # which must evaluate to 1, leaving the bound positive
    params2 = SolyninParams(
        gamma=(0.0, phi[1], math.pi),
        delta=(phi[1], 0.5 * (psi[1] + phi[2])),
    )
    assert solynin_bound(ang, params2) > 0.0
    # _check_params lets an angle 1e-12 past its box; the bound clamps it in,
    # so gamma_2 just outside [phi_2, psi_2] gives the same 0.0, not a complex
    # number.
    for gamma in (phi[1] - 5e-13, psi[1] + 5e-13):
        params3 = SolyninParams(gamma=(0.0, gamma, math.pi), delta=params.delta)
        assert solynin_bound(ang, params3) == 0.0


def test_midpoint_closed_form_values():
    assert solynin_midpoint_bound(to_angles(e_alpha(0.6))) == pytest.approx(
        0.4, abs=1e-12
    )
    assert solynin_midpoint_bound(to_angles(e_alpha(0.5))) == pytest.approx(
        0.5 * math.sqrt(0.75), abs=1e-12
    )
    assert solynin_midpoint_bound(to_angles(ASYM)) == pytest.approx(
        ASYM_MIDPOINT, abs=1e-12
    )
    assert solynin_midpoint_bound(to_angles(TRIPLE)) == pytest.approx(
        TRIPLE_MIDPOINT, abs=1e-12
    )


def test_midpoint_agrees_with_generic_evaluation():
    # The midpoint bound is the generic product at the midpoint parameters;
    # the closed form with the midpoints substituted by hand checks it.
    rng = np.random.RandomState(31)
    for _ in range(50):
        ang = to_angles(random_union(rng))
        closed = solynin_midpoint_closed_form(ang.phi, ang.psi)
        assert abs(solynin_midpoint_bound(ang) - closed) <= 1e-12


def test_optimizer_dominates_midpoint_and_is_deterministic():
    rng = np.random.RandomState(37)
    for _ in range(100):
        e = random_union(rng)
        ang = to_angles(e)
        mid = solynin_midpoint_bound(ang)
        val, params = solynin_optimized_bound(ang)
        assert val >= mid - 1e-14
        # the reported parameters reproduce the reported value
        assert solynin_bound(ang, params) == pytest.approx(val, abs=1e-13)
        val2, params2 = solynin_optimized_bound(ang)
        assert val2 == val
        assert params2 == params


def test_optimizer_keeps_symmetric_pair_sharp():
    for alpha in (0.3, 0.5, 0.6, 0.7):
        ang = to_angles(e_alpha(alpha))
        val, _ = solynin_optimized_bound(ang)
        assert val == pytest.approx(0.5 * math.sqrt(1 - alpha * alpha), abs=1e-8)


def test_upper_estimate_closed_forms():
    assert capacity_upper_estimate(FULL, 8) == pytest.approx(0.5, abs=1e-12)
    assert capacity_upper_estimate(e_alpha(0.6), 8) == pytest.approx(0.4, abs=1e-9)
    with pytest.raises(InvalidInputError):
        capacity_upper_estimate(FULL, 0)


def test_upper_estimate_monotone_under_nesting():
    nested = [
        e_alpha(0.7),
        e_alpha(0.5),
        e_alpha(0.3),
        FULL,
    ]
    values = [capacity_upper_estimate(e, 8) for e in nested]
    for small, big in zip(values, values[1:]):
        assert small <= big + 1e-12


def test_bracket_single_interval_is_exact():
    b = capacity_bracket(IntervalUnion((0.0, 4.0)), 8)
    assert b.lower == pytest.approx(1.0, abs=1e-10)
    assert b.upper == pytest.approx(1.0, abs=1e-10)
    assert b.lower_params is None
    assert b.scale == pytest.approx(2.0)
    unit = capacity_bracket(FULL, 6)
    assert unit.lower == 0.5 and unit.upper == pytest.approx(0.5, abs=1e-12)


def test_bracket_orders_and_scales():
    rng = np.random.RandomState(41)
    for _ in range(15):
        e = random_union(rng, ell_max=3)
        b = capacity_bracket(e, 8)
        assert 0.0 < b.lower <= b.upper + 1e-9
        s = float(rng.uniform(0.5, 3.0))
        t = float(rng.uniform(-1.0, 1.0))
        mapped = IntervalUnion(tuple(s * x + t for x in e.endpoints))
        bm = capacity_bracket(mapped, 8)
        assert bm.lower == pytest.approx(s * b.lower, rel=1e-10)
        assert bm.upper == pytest.approx(s * b.upper, rel=1e-10)
    # Down to s = 1e-13: the copy's gap is far below MERGE_GAP, but not
    # relative to its hull, so it keeps its two intervals.
    e = IntervalUnion((0.0, 1.0, 3.0, 4.0))
    tiny = capacity_bracket(IntervalUnion(tuple(1e-13 * x for x in e.endpoints)), 8)
    b = capacity_bracket(e, 8)
    assert tiny.lower == pytest.approx(1e-13 * b.lower, rel=1e-10, abs=0.0)
    assert tiny.upper == pytest.approx(1e-13 * b.upper, rel=1e-10, abs=0.0)
    assert b.lower == pytest.approx(0.5 * math.sqrt(3.0), rel=1e-12)


def test_deviation_dominates_twice_lower_power():
    # the two sides come from unrelated algorithms: an exchange solve and a
    # closed-form product maximization
    for e in (e_alpha(0.5), ASYM, TRIPLE):
        e_norm, fwd = normalize(e)
        lower = solynin_optimized_bound(to_angles(e_norm))[0] * fwd.rad
        for n in range(1, 31):
            dev = minimal_polynomial(e, n).deviation
            assert dev >= 2.0 * lower**n * (1 - 1e-9)


def test_ratio_sequence_full_interval():
    rep = ratio_sequence(FULL, 10)
    assert rep.cap_est == pytest.approx(0.5, abs=1e-14)
    for r in rep.ratios:
        assert r == pytest.approx(2.0, rel=1e-9)
    assert rep.min_ratio == pytest.approx(2.0, rel=1e-9)


def test_ratio_sequence_symmetric_pair_parity():
    rep = ratio_sequence(e_alpha(0.6), 8)
    for k, r in enumerate(rep.ratios, start=1):
        if k % 2 == 0:
            assert r == pytest.approx(2.0, rel=1e-9)
        else:
            assert r > 2.0 + 1e-3
    assert rep.min_ratio >= 2.0 - 1e-9
    assert rep.max_ratio == max(rep.ratios)


def test_ratio_sequence_validates_k_max():
    with pytest.raises(InvalidInputError):
        ratio_sequence(FULL, 0)
    with pytest.raises(InvalidInputError):
        ratio_sequence(FULL, 51)


def test_capacity_bracket_validates_degree_on_every_set_shape():
    for e in (FULL, e_alpha(0.5)):
        for n in (0, -5):
            with pytest.raises(InvalidInputError, match="degree must be at least 1"):
                capacity_bracket(e, n)


def test_ratio_sequence_solves_each_degree_once(monkeypatch):
    calls = []

    def counting(e, n):
        calls.append(n)
        return minimal_polynomial(e, n)

    monkeypatch.setattr(_capacity, "minimal_polynomial", counting)
    for e, k_max in ((FULL, 4), (ASYM, 5), (TRIPLE, 14)):
        calls.clear()
        upper = ratio_sequence(e, k_max).upper_est
        assert sorted(calls) == list(range(1, k_max + 1))
        assert upper == capacity_bracket(e, min(k_max, 12)).upper


def test_one_lower_bound_behind_bracket_and_ratios():
    for e in (IntervalUnion((0.0, 4.0)), e_alpha(0.6), ASYM, TRIPLE):
        e_norm, fwd = normalize(e)
        scale = fwd.rad
        lower, params = capacity_lower_bound(e)
        if e_norm.ell == 1:
            assert (lower, params) == (0.5 * scale, None)
        else:
            best, best_params = solynin_optimized_bound(to_angles(e_norm))
            assert (lower, params) == (best * scale, best_params)
        b = capacity_bracket(e, 6)
        assert (b.lower, b.lower_params) == (lower, params)
        assert ratio_sequence(e, 6).cap_est == lower


def _full_product_ascent(ang):
    """Reference: the coordinate ascent that evaluates the whole bound, with
    its parameter checks, at every probe of every line search.  It stops
    when a sweep gains less than SWEEP_TOL, or after MAX_SWEEPS sweeps."""
    SWEEP_TOL = 1e-13
    MAX_SWEEPS = 500
    ell = ang.ell
    gamma = [0.0] + [0.5 * (ang.phi[j] + ang.psi[j]) for j in range(1, ell - 1)] + [math.pi]
    delta = [0.5 * (ang.psi[j] + ang.phi[j + 1]) for j in range(ell - 1)]

    def value():
        return solynin_bound(ang, SolyninParams(gamma=tuple(gamma), delta=tuple(delta)))

    def line_max(coords, j, lo, hi):
        m = min(BOUNDARY_MARGIN, 0.25 * (hi - lo))
        a, b = lo + m, hi - m
        inv = 0.5 * (math.sqrt(5.0) - 1.0)

        def f(x):
            coords[j] = x
            return value()

        x1, x2 = b - inv * (b - a), a + inv * (b - a)
        f1, f2 = f(x1), f(x2)
        while b - a > 1e-12:
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + inv * (b - a)
                f2 = f(x2)
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - inv * (b - a)
                f1 = f(x1)
        coords[j] = 0.5 * (a + b)

    best = value()
    for _ in range(MAX_SWEEPS):
        previous = best
        for j in range(1, ell - 1):
            line_max(gamma, j, ang.phi[j], ang.psi[j])
        for j in range(ell - 1):
            line_max(delta, j, ang.psi[j], ang.phi[j + 1])
        best = value()
        if best - previous < SWEEP_TOL:
            break
    return max(best, solynin_midpoint_bound(ang))


def test_ascent_on_its_own_factors_matches_full_product_ascent():
    rng = np.random.RandomState(41)
    sets = [e for _, e in _verify_fixtures() if e.ell > 1]
    sets += [random_union(rng, ell_max=5) for _ in range(150)]
    for e in sets:
        ang = to_angles(e)
        val, params = solynin_optimized_bound(ang)
        assert val == pytest.approx(_full_product_ascent(ang), rel=1e-13, abs=0.0)
        assert val >= solynin_midpoint_bound(ang)
        assert solynin_bound(ang, params) == pytest.approx(val, rel=1e-15, abs=1e-13)


def test_newton_ascent_takes_few_steps(monkeypatch):
    # The Newton ascent makes at most 12 Newton solves per call (6.0 on
    # average, the last one's step below STEP_TOL) on the sets of the two
    # ascent tests above: the verify fixtures and 250 random unions of 2 to
    # 5 intervals.
    solves = []
    newton_step = _capacity._newton_step
    monkeypatch.setattr(_capacity, "_newton_step",
                        lambda *a: solves.__setitem__(-1, solves[-1] + 1) or newton_step(*a))
    sets = [e for _, e in _verify_fixtures() if e.ell > 1]
    rng = np.random.RandomState(41)
    sets += [random_union(rng, ell_max=5) for _ in range(150)]
    rng = np.random.RandomState(37)
    sets += [random_union(rng) for _ in range(100)]
    for e in sets:
        solves.append(0)
        solynin_optimized_bound(to_angles(e))
    assert max(solves) <= 12 and sum(solves) <= 6.5 * len(solves), (max(solves), np.mean(solves))


def test_gradient_steps_where_newton_has_none(monkeypatch):
    # Where -H is not positive definite the ascent steps along the gradient.
    # Taking that step every time, the ascent still reaches the Newton
    # ascent's value to rounding on the multi-interval verify fixtures,
    # never below the midpoint bound, with params that give the value.
    sets = [to_angles(e) for _, e in _verify_fixtures() if e.ell > 1]
    want = [solynin_optimized_bound(ang)[0] for ang in sets]
    monkeypatch.setattr(_capacity, "_newton_step", lambda *a: None)
    for ang, value in zip(sets, want):
        got, params = solynin_optimized_bound(ang)
        assert got == pytest.approx(value, rel=2e-16, abs=0.0)
        assert got >= solynin_midpoint_bound(ang)
        assert solynin_bound(ang, params) == got


def test_ascent_ending_below_the_midpoint_returns_the_midpoint(monkeypatch):
    # An ascent that walks downhill, each of its trials read 1 too high so it
    # accepts them, ends below the midpoint bound (on TRIPLE at 0.4408, against
    # 0.4744); the midpoint bound and its parameters are returned instead.
    newton_step, log_bound = _capacity._newton_step, _capacity._log_bound

    def downhill(*args):
        step = newton_step(*args)
        return step and [-s for s in step]

    def trial_reads_higher(phi, psi, z, order):
        f, *rest = log_bound(phi, psi, z, order)
        return (f + 1.0 if order == 0 else f, *rest)

    monkeypatch.setattr(_capacity, "_newton_step", downhill)
    monkeypatch.setattr(_capacity, "_log_bound", trial_reads_higher)
    for e in (TRIPLE, ASYM):
        ang = to_angles(e)
        got = solynin_optimized_bound(ang)
        assert got == (solynin_midpoint_bound(ang), _capacity._midpoint_params(ang))
