"""End-to-end acceptance battery.

One test per shipped guarantee, in the order the guarantees are documented
in the README.  Each test is self-contained and checks library output
against closed forms, independent constructions, or a brute-force oracle,
never against the routine under test.
"""

import math
import time

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from oracles import minimax_deviation_oracle

from chebcap.arcs import (
    ArcSet,
    arc_lower_bound,
    arc_sup_norm,
    lift_even,
    lift_odd,
    robinson_capacity,
)
from chebcap.capacity import (
    capacity_bracket,
    capacity_upper_estimate,
    ratio_sequence,
    solynin_optimized_bound,
)
from chebcap.chebpoly import ChebExpansion, Polynomial, to_cheb, to_monomial
from chebcap.intervals import IntervalUnion, normalize, to_angles
from chebcap.inverse_image import (
    composed_minimal_sequence,
    e_alpha,
    inverse_image,
    symmetric_two_interval_minpoly,
)
from chebcap.remez import minimal_polynomial

INTERVAL = IntervalUnion((-1.0, 1.0))
ALPHAS = (0.3, 0.5, 0.6, 0.7)
EPS_LD = float(np.finfo(np.longdouble).eps)


def t_poly(k: int) -> Polynomial:
    return to_monomial(ChebExpansion((0.0,) * k + (1.0,)))


def scale_poly(c: float, p: Polynomial) -> Polynomial:
    return Polynomial(tuple(c * x for x in p.coeffs))


def stretch_poly(p: Polynomial, b: float) -> Polynomial:
    """p(b x)."""
    return Polynomial(tuple(co * b**j for j, co in enumerate(p.coeffs)))


def compose_poly(outer: Polynomial, inner: Polynomial) -> Polynomial:
    acc = Polynomial((outer.coeffs[-1],))
    for co in reversed(outer.coeffs[:-1]):
        acc = acc * inner + Polynomial((co,))
    return acc


def certified_lower(e: IntervalUnion) -> float:
    """Closed-form capacity lower bound, scaled back to the original set."""
    e_norm, fwd = normalize(e)
    scale = fwd.rad
    if e_norm.ell == 1:
        return 0.5 * scale
    return solynin_optimized_bound(to_angles(e_norm))[0] * scale


def grid_sup_longdouble(p: Polynomial, e: IntervalUnion, density: int = 4001) -> float:
    """Extended-precision sup over a dense grid; endpoints are grid nodes."""
    c = np.array(p.coeffs, dtype=np.longdouble)
    best = np.longdouble(0.0)
    for lo, hi in e.intervals:
        xs = np.linspace(np.longdouble(lo), np.longdouble(hi), density)
        best = max(best, np.max(np.abs(npp.polyval(xs, c))))
    return float(best)


def test_single_interval_closed_forms():
    # deviations 2^(1-n) on [-1, 1] and a degenerate capacity bracket
    t0 = time.perf_counter()
    for n in range(1, 21):
        res = minimal_polynomial(INTERVAL, n)
        assert res.deviation == pytest.approx(2.0 ** (1 - n), rel=1e-9)
    b = capacity_bracket(INTERVAL, 8)
    assert b.lower == pytest.approx(0.5, abs=1e-10)
    assert b.upper == pytest.approx(0.5, abs=1e-10)
    assert time.perf_counter() - t0 < 5.0


def test_symmetric_pair_closed_forms():
    # even-degree deviations and coefficients on two symmetric intervals
    t0 = time.perf_counter()
    for alpha in ALPHAS:
        e = e_alpha(alpha)
        for n in (2, 4, 6, 8, 10, 12):
            res = minimal_polynomial(e, n)
            target = 2.0 ** (1 - n) * (1 - alpha * alpha) ** (n / 2)
            assert res.deviation == pytest.approx(target, rel=1e-8)
            formula, dev = symmetric_two_interval_minpoly(alpha, n)
            assert dev == pytest.approx(target, rel=1e-12)
            dist = max(
                abs(a - b) for a, b in zip(res.poly.coeffs, formula.coeffs)
            )
            assert len(res.poly.coeffs) == len(formula.coeffs)
            assert dist <= 1e-7
    assert time.perf_counter() - t0 < 30.0


def inverse_image_fixtures():
    """Polynomials with real inverse images, degrees 2 through 8, up to
    four components.  Coefficients are dyadic rationals so the composed
    coefficient arithmetic stays exact or near-exact."""
    t2, t3, t4 = t_poly(2), t_poly(3), t_poly(4)
    s = Polynomial((-3.0, 0.0, 4.0))  # maps [-1,-1/sqrt2] u [1/sqrt2,1] onto [-1,1]
    return [
        t2,
        Polynomial((-3.0, 0.0, 2.0)),
        scale_poly(1.5, t2),
        scale_poly(1.25, t2),
        Polynomial((-2.875, -1.0, 2.0)),  # 2(x-1/4)^2 - 3, off-center pair
        t3,
        scale_poly(1.25, t3),
        scale_poly(1.5, t3),
        stretch_poly(t3, 1.125),
        t4,
        scale_poly(1.25, t4),
        scale_poly(1.5, t4),
        compose_poly(t2, s),
        t_poly(5),
        stretch_poly(t_poly(5), 1.25),
        t_poly(6),
        compose_poly(t3, s),
        compose_poly(t2, scale_poly(1.25, t3)),
        t_poly(7),
        t_poly(8),
        compose_poly(t4, s),
        compose_poly(t2, scale_poly(1.25, t4)),
        compose_poly(t2, scale_poly(1.5, t3)),
    ]


def test_inverse_image_sharpness():
    # the sharp identity: deviation on an inverse image is 1/|leading|,
    # and the composed sequence keeps deviation 2/(2 |leading|)^k
    fixtures = inverse_image_fixtures()
    assert len(fixtures) >= 20
    assert {p.degree for p in fixtures} == set(range(2, 9))
    pairs = 0
    k4 = 0
    saw_four_components = False
    for p in fixtures:
        img = inverse_image(p)
        assert img.is_real
        e = img.image
        assert e.ell <= 4
        saw_four_components = saw_four_components or e.ell == 4
        cn = abs(p.leading)
        res = minimal_polynomial(e, p.degree)
        assert res.deviation == pytest.approx(1.0 / cn, rel=1e-7)
        radius = max(abs(e.hull[0]), abs(e.hull[1]))
        for k in range(1, 5):
            q, theory = composed_minimal_sequence(p, k)
            assert theory == pytest.approx(2.0 / (2.0 * cn) ** k, rel=1e-12)
            # skip pairs whose monomial values cancel below the verification
            # tolerance even in extended precision
            p_tilde = sum(abs(co) * radius**j for j, co in enumerate(q.coeffs))
            if q.degree * EPS_LD * p_tilde > 1e-9 * theory:
                continue
            pairs += 1
            k4 += k == 4
            assert grid_sup_longdouble(q, e) == pytest.approx(theory, rel=1e-8)
    assert saw_four_components
    assert pairs >= 60 and k4 >= 10


def test_capacity_bracket_tightness():
    # closed-form sharpness on symmetric pairs, then sub-2% bracket width
    # on three- and four-component inverse images
    for alpha in ALPHAS:
        value, _ = solynin_optimized_bound(to_angles(e_alpha(alpha)))
        assert value == pytest.approx(0.5 * math.sqrt(1 - alpha * alpha), abs=1e-8)
    t3, t4 = t_poly(3), t_poly(4)
    for p in (scale_poly(1.25, t3), scale_poly(1.5, t3),
              scale_poly(1.25, t4), scale_poly(1.5, t4)):
        e = inverse_image(p).image
        assert e.ell == p.degree
        b = capacity_bracket(e, 12)
        assert b.lower <= b.upper
        cap = (2.0 * abs(p.leading)) ** (-1.0 / p.degree)
        assert b.upper == pytest.approx(cap, rel=1e-8)
        gap = (b.upper - b.lower) / b.upper
        if gap >= 0.02:
            print(f"bracket gap above 2% on ell={e.ell} fixture: {gap:.4%}")
        assert gap < 0.05


def battery_sets():
    yield INTERVAL
    for alpha in ALPHAS:
        yield e_alpha(alpha)
    yield IntervalUnion((-1.0, 0.0, 0.5, 1.0))
    yield IntervalUnion((-1.0, -0.6, -0.2, 0.2, 0.6, 1.0))
    yield IntervalUnion((-1.0, -0.65, -0.35, -0.05, 0.25, 0.55, 0.85, 1.0))


def test_deviation_dominates_capacity_everywhere():
    # L_n >= 2 lower^n with an independently computed lower bound, on the
    # fixture battery plus 100 seeded random unions, all degrees to 20
    rng = np.random.RandomState(7)
    sets = list(battery_sets())
    while len(sets) < len(list(battery_sets())) + 100:
        ell = int(rng.randint(2, 5))
        pts = np.sort(rng.uniform(-1.0, 1.0, 2 * ell))
        if float(np.min(np.diff(pts))) < 0.08:
            continue
        pts[0], pts[-1] = -1.0, 1.0
        sets.append(IntervalUnion(tuple(float(x) for x in pts)))
    violations = 0
    for e in sets:
        lower = certified_lower(e)
        for n in range(1, 21):
            dev = minimal_polynomial(e, n).deviation
            if dev < 2.0 * lower**n * (1.0 - 1e-9):
                violations += 1
    assert violations == 0


def test_ratio_sequence_floor():
    # normalized deviations sit at exactly 2 on one interval; on a
    # symmetric pair the even entries are 2 and the odd ones exceed 2
    rep = ratio_sequence(INTERVAL, 10)
    for r in rep.ratios:
        assert r == pytest.approx(2.0, rel=1e-9)
    assert rep.min_ratio == pytest.approx(2.0, rel=1e-9)

    rep = ratio_sequence(e_alpha(0.6), 14)
    for k, r in enumerate(rep.ratios, start=1):
        if k % 2 == 0:
            assert r == pytest.approx(2.0, rel=1e-9)
        else:
            assert r > 2.001
    assert rep.min_ratio == pytest.approx(2.0, abs=1e-6)


def arc_fixtures():
    return [
        ArcSet(INTERVAL),
        ArcSet(e_alpha(0.5)),
        ArcSet(e_alpha(0.6)),
        ArcSet(IntervalUnion((-1.0, 0.0, 0.5, 1.0))),
        ArcSet(IntervalUnion((-1.0, -0.6, -0.2, 0.2, 0.6, 1.0))),
    ]


def test_arc_transfer_identities():
    # the certified coefficient bound chain, and the two parity lifts
    # hitting 2^m times the interval deviation
    rng = np.random.RandomState(11)
    fixtures = arc_fixtures()
    gammas = [robinson_capacity(certified_lower(f.projection)) for f in fixtures]
    for _ in range(50):
        deg = int(rng.randint(2, 11))
        c = rng.uniform(-2.0, 2.0, deg + 1)
        c[-1] = 1.0
        drop = int(rng.randint(0, min(4, deg)))
        c[:drop] = 0.0
        if abs(c[drop]) < 0.1:
            c[drop] = 0.5
        p = Polynomial(tuple(c))
        for arcs, cap_gamma in zip(fixtures, gammas):
            rep = arc_lower_bound(p, arcs, cap_gamma)
            assert rep.sup_norm >= rep.lower * (1.0 - 1e-9)

    for m in range(1, 7):
        res = minimal_polynomial(INTERVAL, m)
        b = to_cheb(res.poly)
        for lift in (lift_even, lift_odd):
            sup = arc_sup_norm(lift(b, m), ArcSet(INTERVAL))
            assert sup == pytest.approx(2.0, rel=1e-8)
    for alpha in ALPHAS:
        e = e_alpha(alpha)
        for m in (2, 4):
            b = to_cheb(minimal_polynomial(e, m).poly)
            target = 2.0 * (1 - alpha * alpha) ** (m / 2)
            for lift in (lift_even, lift_odd):
                sup = arc_sup_norm(lift(b, m), ArcSet(e))
                assert sup == pytest.approx(target, rel=1e-8)


def test_bounded_normalized_deviations():
    # t_n = L_n / u^n stays under the constructive parity chain (2 at even
    # degrees, 2/u after one odd step) and shows no growth trend
    e = e_alpha(0.6)
    u = capacity_upper_estimate(e, 20)
    ns = np.arange(1, 21)
    t = np.array(
        [minimal_polynomial(e, int(n)).deviation / u ** int(n) for n in ns]
    )
    print(f"\n  upper capacity estimate u = {u:.12f}")
    for n, v in zip(ns, t):
        bound = 2.0 if n % 2 == 0 else 2.0 / u
        print(f"  n={n:2d}  t_n={v:.9f}  chain bound={bound:.4f}")
        assert v <= bound * (1.0 + 1e-9)
    nbar = ns.mean()
    sxx = float(np.sum((ns - nbar) ** 2))
    slope = float(np.sum((ns - nbar) * (t - t.mean())) / sxx)
    resid = t - (t.mean() + slope * (ns - nbar))
    stderr = math.sqrt(float(np.sum(resid**2)) / (len(ns) - 2) / sxx)
    print(f"  least-squares slope {slope:.6f} (stderr {stderr:.6f})")
    assert slope <= 2.0 * stderr


def test_matches_brute_force_minimax():
    # low-degree deviations against a coefficient-grid minimax search that
    # shares no code with the exchange solver
    cases = [
        (((-1.0, 1.0),), (1, 2, 3)),
        (((-1.0, -0.3), (0.2, 1.0)), (1, 2, 3)),
        (((-1.0, -0.5), (0.5, 1.0)), (1, 2, 3)),
    ]
    for rects, degrees in cases:
        e = IntervalUnion(tuple(v for ab in rects for v in ab))
        for n in degrees:
            dev = minimal_polynomial(e, n).deviation
            oracle = minimax_deviation_oracle([list(ab) for ab in rects], n)
            assert abs(dev - oracle) <= 1e-6
