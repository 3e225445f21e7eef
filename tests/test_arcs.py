"""Arc sets: capacity transfer, sup-norms, coefficient bound, lifting."""

import math

import numpy as np
import pytest
from oracles import arc_sup_oracle

from chebcap.arcs import (
    ArcSet,
    arc_deviation_upper,
    arc_lower_bound,
    arc_sup_norm,
    lift_even,
    lift_odd,
    robinson_capacity,
)
from chebcap.capacity import solynin_optimized_bound
from chebcap.chebpoly import ChebExpansion, Polynomial, to_cheb
from chebcap.errors import InvalidInputError
from chebcap.intervals import IntervalUnion, to_angles
from chebcap.inverse_image import e_alpha
from chebcap.remez import minimal_polynomial

FULL = ArcSet(IntervalUnion((-1.0, 1.0)))
LAM05 = ArcSet(e_alpha(0.5))
LAM06 = ArcSet(e_alpha(0.6))
ASYM = ArcSet(IntervalUnion((-0.9, -0.2, 0.1, 0.7)))
TRIPLE = ArcSet(IntervalUnion((-1.0, -0.6, -0.2, 0.2, 0.6, 1.0)))


def direct_sup(coeffs, projection: IntervalUnion, n_theta: int = 20001) -> float:
    """Refined complex-grid evaluation of the arc sup-norm."""
    best = 0.0
    mono = np.asarray(coeffs)[::-1]
    for lo, hi in projection.intervals:
        th = np.linspace(math.acos(hi), math.acos(lo), n_theta)
        vals = np.abs(np.polyval(mono, np.exp(1j * th)))
        i = int(np.argmax(vals))
        a, b = th[max(i - 1, 0)], th[min(i + 1, n_theta - 1)]
        fine = np.abs(np.polyval(mono, np.exp(1j * np.linspace(a, b, 4001))))
        best = max(best, float(np.max(fine)))
    return best


def test_arc_set_validates_projection():
    ArcSet(IntervalUnion((-0.5, 0.5)))
    with pytest.raises(InvalidInputError):
        ArcSet(IntervalUnion((0.0, 2.0)))


def test_capacity_transfer_values_and_domain():
    assert robinson_capacity(0.5) == pytest.approx(1.0, abs=1e-15)
    assert robinson_capacity(0.4) == pytest.approx(math.sqrt(0.8), abs=1e-15)
    assert robinson_capacity(0.125) == pytest.approx(0.5, abs=1e-15)
    for bad in (0.0, -1.0, 0.51):
        with pytest.raises(InvalidInputError):
            robinson_capacity(bad)


def test_sup_norm_closed_cases():
    assert arc_sup_norm(Polynomial((0.0, 0.0, 0.0, 1.0)), FULL) == pytest.approx(1.0)
    p = Polynomial((0.5, 0.0, 1.0))
    assert arc_sup_norm(p, FULL) == pytest.approx(1.5, abs=1e-12)
    half = ArcSet(IntervalUnion((-1.0, 0.0)))
    assert arc_sup_norm(p, half) == pytest.approx(1.5, abs=1e-12)
    assert arc_sup_norm(Polynomial((0.0,)), FULL) == 0.0


def test_sup_norm_matches_refined_complex_grid():
    rng = np.random.RandomState(43)
    fixtures = [FULL, LAM05, ArcSet(IntervalUnion((-1.0, 0.0, 0.5, 1.0)))]
    for _ in range(30):
        deg = int(rng.randint(1, 13))
        c = rng.uniform(-2, 2, deg + 1)
        c[-1] = 1.0
        p = Polynomial(tuple(c))
        arcs = fixtures[int(rng.randint(0, len(fixtures)))]
        assert arc_sup_norm(p, arcs) == pytest.approx(
            direct_sup(c, arcs.projection), abs=1e-9
        )


def test_sup_norm_accepts_projection_overhang():
    # ArcSet admits a projection overhanging [-1, 1] by rounding; arccos
    # must not see it
    arcs = ArcSet(IntervalUnion((-1.0 - 5e-13, -0.5, 0.5, 1.0 + 5e-13)))
    assert arc_sup_norm(Polynomial((0.5, 0.0, 1.0)), arcs) == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("m", [4, 8, 12, 16])
@pytest.mark.parametrize("name", ["pair-0.5", "asym", "triple"])
def test_arc_sup_norm_matches_mpmath_oracle(name, m):
    # The lifts of interval minimizers equioscillate on the arcs, the
    # hardest case for locating the sup, and their coefficients grow with m.
    # The oracle evaluates the same coefficients at 40 digits; z * p has the
    # modulus of p on the circle, so one oracle value serves both lifts.
    arcs = {"pair-0.5": LAM05, "asym": ASYM, "triple": TRIPLE}[name]
    b = to_cheb(minimal_polynomial(arcs.projection, m).poly)
    want = arc_sup_oracle(lift_even(b, m).coeffs, arcs.projection.intervals)
    for lift in (lift_even, lift_odd):
        assert arc_sup_norm(lift(b, m), arcs) == pytest.approx(want, rel=1e-9), lift.__name__


@pytest.mark.parametrize("m", [4, 8, 12, 16, 20, 24, 28, 32])
@pytest.mark.parametrize("name", ["pair-0.5", "asym", "triple"])
def test_arc_sup_norm_within_evaluation_noise_of_oracle(name, m):
    # Every grid peak is polished, so the value is the oracle's up to
    # Horner's evaluation noise eps sum|c_k| / |p|; polishing only the best
    # sample's cells reads 5.2e-11 low on pair-0.5 at m = 16 and 1.3e-8 on
    # triple at m = 24, where the best sample and the highest peak differ.
    arcs = {"pair-0.5": LAM05, "asym": ASYM, "triple": TRIPLE}[name]
    b = to_cheb(minimal_polynomial(arcs.projection, m).poly)
    p = lift_even(b, m)
    want = arc_sup_oracle(p.coeffs, arcs.projection.intervals)
    noise = np.finfo(float).eps * float(np.sum(np.abs(p.coeffs))) / want
    for lift in (lift_even, lift_odd):
        assert arc_sup_norm(lift(b, m), arcs) == pytest.approx(want, rel=16 * noise), lift.__name__


def test_coefficient_bound_examples():
    p = Polynomial((0.5, 0.0, 1.0))
    r = arc_lower_bound(p, FULL, 1.0)
    assert r.k_star == 0 and r.b_kstar == 0.5
    assert r.lower == pytest.approx(1.0, abs=1e-14)
    assert r.sup_norm == pytest.approx(1.5, abs=1e-12)
    assert r.sup_norm >= r.lower - 1e-9

    q = Polynomial((0.0, 1.0, 0.0, 1.0))
    r2 = arc_lower_bound(q, FULL, 1.0)
    assert r2.k_star == 1
    assert r2.lower == pytest.approx(math.sqrt(2.0), abs=1e-14)
    assert r2.sup_norm == pytest.approx(2.0, abs=1e-12)


def test_coefficient_bound_rejects_pure_powers_and_non_monic():
    with pytest.raises(InvalidInputError):
        arc_lower_bound(Polynomial((0.0, 0.0, 1.0)), FULL, 1.0)
    with pytest.raises(InvalidInputError):
        arc_lower_bound(Polynomial((0.5, 0.0, 2.0)), FULL, 1.0)
    with pytest.raises(InvalidInputError):
        arc_lower_bound(Polynomial((0.5, 1.0)), FULL, 0.0)


def test_coefficient_bound_certified_chain_random():
    # sup >= sqrt(2 |b_k*|) (sqrt(2 lowerC))^(n-k*) with lowerC a certified
    # lower bound on the projection capacity
    rng = np.random.RandomState(47)
    fixtures = [
        FULL.projection,
        e_alpha(0.5),
        e_alpha(0.6),
        IntervalUnion((-1.0, 0.0, 0.5, 1.0)),
        IntervalUnion((-1.0, -0.6, -0.2, 0.2, 0.6, 1.0)),
    ]
    lowers = []
    for proj in fixtures:
        if proj.ell == 1:
            lowers.append(0.5)
        else:
            lowers.append(solynin_optimized_bound(to_angles(proj))[0])
    for _ in range(50):
        deg = int(rng.randint(2, 11))
        c = rng.uniform(-2, 2, deg + 1)
        c[-1] = 1.0
        if all(abs(v) <= 1e-13 for v in c[:-1]):
            c[0] = 0.5
        p = Polynomial(tuple(c))
        for proj, low_c in zip(fixtures, lowers):
            rep = arc_lower_bound(p, ArcSet(proj), robinson_capacity(low_c))
            assert rep.sup_norm >= rep.lower - 1e-9


def test_lift_shapes_and_small_cases():
    t1 = ChebExpansion((0.0, 1.0))
    p2 = lift_even(t1, 1)
    assert p2.coeffs == (1.0, 0.0, 1.0)
    p3 = lift_odd(t1, 1)
    assert p3.coeffs == (0.0, 1.0, 0.0, 1.0)
    assert arc_sup_norm(p2, FULL) == pytest.approx(2.0, abs=1e-12)
    assert arc_sup_norm(p3, FULL) == pytest.approx(2.0, abs=1e-12)

    half_t2 = to_cheb(Polynomial((-0.5, 0.0, 1.0)))
    p4 = lift_even(half_t2, 2)
    assert np.allclose(p4.coeffs, (1.0, 0.0, 0.0, 0.0, 1.0), atol=1e-14)

    edge = lift_odd(ChebExpansion((1.0,)), 0)
    assert edge.coeffs == (0.0, 1.0)
    assert arc_sup_norm(edge, FULL) == pytest.approx(1.0, abs=1e-13)


def test_lift_validates_monic_normalization():
    with pytest.raises(InvalidInputError):
        lift_even(ChebExpansion((0.0, 0.5)), 1)
    with pytest.raises(InvalidInputError):
        lift_even(ChebExpansion((0.0, 1.0)), 2)
    with pytest.raises(InvalidInputError):
        lift_odd(ChebExpansion((2.0,)), 0)


def test_lift_sup_equals_scaled_interval_deviation():
    # the lift's monomial coefficients lose accuracy as m grows; at m <= 12
    # they still carry the identity to 1e-9
    cases = [(FULL, 1), (FULL, 3), (LAM05, 2), (LAM06, 2), (LAM05, 4)]
    cases += [(arcs, m) for arcs in (ASYM, TRIPLE) for m in (4, 8, 12)]
    for arcs, m in cases:
        res = minimal_polynomial(arcs.projection, m)
        b = to_cheb(res.poly)
        for lift in (lift_even, lift_odd):
            lifted = lift(b, m)
            expect = 2.0**m * res.deviation
            assert arc_sup_norm(lifted, arcs) == pytest.approx(expect, rel=1e-9)
        assert lift_even(b, m).degree == 2 * m
        assert lift_odd(b, m).degree == 2 * m + 1
        assert lift_even(b, m).leading == pytest.approx(1.0, abs=1e-12)
        assert lift_odd(b, m).leading == pytest.approx(1.0, abs=1e-12)


def test_deviation_upper_values():
    assert arc_deviation_upper(FULL, 2) == pytest.approx(2.0, abs=1e-9)
    assert arc_deviation_upper(LAM05, 4) == pytest.approx(1.5, abs=1e-9)
    assert arc_deviation_upper(LAM05, 5) == pytest.approx(1.5, abs=1e-9)
    assert arc_deviation_upper(FULL, 1) == 1.0
    scaled = 2.0**20 * minimal_polynomial(ASYM.projection, 20).deviation
    assert arc_deviation_upper(ASYM, 40) == arc_deviation_upper(ASYM, 41) == scaled
    with pytest.raises(InvalidInputError):
        arc_deviation_upper(FULL, 0)
