"""Interval-union plumbing: construction, normalization, angles, parsing."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from chebcap.cli import _random_union, _verify_fixtures
from chebcap.errors import InvalidInputError
from chebcap.intervals import (
    AffineMap,
    AngleCoordinates,
    IntervalUnion,
    contains,
    format_intervals,
    intervals_to_json,
    is_subset,
    normalize,
    parse_intervals,
    to_angles,
)


def test_construction_sorts_and_exposes_components():
    e = IntervalUnion((0.5, 1.0, -1.0, -0.5))
    assert e.endpoints == (-1.0, -0.5, 0.5, 1.0)
    assert e.ell == 2
    assert e.intervals == ((-1.0, -0.5), (0.5, 1.0))
    assert e.hull == (-1.0, 1.0)
    assert e.endpoints_descending == (1.0, 0.5, -0.5, -1.0)


def test_construction_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        IntervalUnion((0.0, 1.0, 2.0))
    with pytest.raises(InvalidInputError):
        IntervalUnion(())
    with pytest.raises(InvalidInputError):
        IntervalUnion((0.0, math.inf))
    with pytest.raises(InvalidInputError):
        IntervalUnion((0.0, 0.0))
    with pytest.raises(InvalidInputError):
        IntervalUnion((0.0, 1.0, 0.5, 2.0))


def test_touching_intervals_merge():
    e = IntervalUnion((0.0, 1.0, 1.0, 2.0))
    assert e.ell == 1
    assert e.endpoints == (0.0, 2.0)
    assert e.merged
    gap = IntervalUnion((0.0, 1.0, 1.5, 2.0))
    assert gap.ell == 2
    assert not gap.merged
    # The merge gap is relative to the hull's radius, so a scaled copy
    # merges as the set does.
    tiny = IntervalUnion(tuple(1e-13 * x for x in (0.0, 1.0, 3.0, 4.0)))
    assert tiny.ell == 2 and not tiny.merged
    wide = IntervalUnion((0.0, 1e6, 1e6 + 1e-7, 2e6))
    assert wide.ell == 1 and wide.merged


def test_affine_map_roundtrip_and_validation():
    m = AffineMap(1.0, 2.0)  # x -> 2 x - 3
    assert (m.scale, m.shift) == (2.0, -3.0)
    assert m(1.5) == 0.0
    assert m.inverse(m(0.7)) == pytest.approx(0.7, abs=1e-15)
    with pytest.raises(InvalidInputError):
        AffineMap(1.0, 1.0)
    with pytest.raises(InvalidInputError):
        AffineMap(1.0, math.nan)


def test_normalize_snaps_hull_exactly():
    e = IntervalUnion((0.0, 1.0, 3.0, 4.0))
    norm, fwd = normalize(e)
    assert norm.endpoints[0] == -1.0
    assert norm.endpoints[-1] == 1.0
    assert norm.is_normalized()
    back = fwd.inverse
    for orig, x in zip(e.endpoints, norm.endpoints):
        assert back(x) == pytest.approx(orig, abs=1e-12)


def test_normalize_random_roundtrip():
    rng = np.random.RandomState(11)
    for _ in range(50):
        ell = rng.randint(1, 5)
        pts = np.sort(rng.uniform(-10, 10, 2 * ell))
        while np.min(np.diff(pts)) < 1e-3:
            pts = np.sort(rng.uniform(-10, 10, 2 * ell))
        e = IntervalUnion(tuple(pts))
        norm, fwd = normalize(e)
        assert norm.is_normalized()
        back = fwd.inverse
        scale = max(1.0, max(abs(p) for p in pts))
        for orig, x in zip(e.endpoints, norm.endpoints):
            assert abs(back(x) - orig) <= 1e-12 * scale


def _shifted_unions(count):
    """`count` seeded unions of one to five intervals up to 10 wide, shifted
    by +-10^u, u uniform on [-2, 15]: a share of them holds or nears the
    origin."""
    rng = np.random.RandomState(41)
    while count:
        pts = np.sort(rng.uniform(0.0, rng.uniform(0.5, 10.0), 2 * rng.randint(1, 6)))
        pts += rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 15.0)
        if np.all(np.diff(pts) > 0.0):  # no two ends rounded together
            count -= 1
            yield IntervalUnion(tuple(pts.tolist()))


def test_normalize_is_exact_far_from_the_origin():
    # Against exact rationals, each normalized end lies within 1 ulp of its
    # image (x - lo - rad) * scale on a hull whose ends share a sign within a
    # factor 2 (there x - mid is exact), within 3 ulps nearer the origin, and
    # within 1.5 ulps of (x - lo - rad) / rad where the slope 1 / rad rounds.
    found = [IntervalUnion((b, b + 1.0, b + 1.7, b + 3.0))
             for b in (1e2, 1e4, 1e8, 1e10, 1e12, 1e14)]
    far = 0
    for e in found + list(_shifted_unions(1000)):
        norm, fwd = normalize(e)
        lo, hi = e.hull
        rad = (Fraction(hi) - Fraction(lo)) / 2
        away = lo * hi > 0.0 and max(abs(lo), abs(hi)) <= 2.0 * min(abs(lo), abs(hi))
        far += away
        assert Fraction(fwd.rad) == rad or not away
        assert fwd.scale == float(1 / Fraction(fwd.rad))
        for x, got in zip(e.endpoints, norm.endpoints):
            t = Fraction(x) - Fraction(lo) - Fraction(fwd.rad)
            for want, ulps in ((t * Fraction(fwd.scale), 1.0 if away else 3.0),
                               (t / Fraction(fwd.rad), 1.5 if away else 4.0)):
                assert abs(Fraction(got) - want) <= ulps * Fraction(math.ulp(float(want))), (e, x)
    assert far > 500


def test_normalize_is_the_identity_on_the_hull_minus_one_one():
    rng = np.random.RandomState(0)
    sets = [e for _, e in _verify_fixtures()] + [_random_union(rng) for _ in range(200)]
    for e in sets:
        norm, fwd = normalize(e)
        assert norm.endpoints == e.endpoints and fwd.rad == fwd.scale == 1.0
        x = np.array(e.endpoints + (0.0, -0.0, 0.3, -5e-324))
        for got in (fwd(x), fwd.inverse(x)):
            assert np.array_equal(got, x) and np.array_equal(np.signbit(got), np.signbit(x))


def test_angles_land_on_exact_boundary_values():
    e = IntervalUnion((-1.0, -0.6, 0.6, 1.0))
    ang = to_angles(e)
    assert ang.phi[0] == 0.0
    assert ang.psi[-1] == math.pi
    assert ang.ell == 2
    # interleaving 0 = phi_1 < psi_1 < phi_2 < ... < psi_l = pi
    seq = [v for pair in zip(ang.phi, ang.psi) for v in pair]
    assert all(b > a for a, b in zip(seq, seq[1:]))
    assert ang.psi[0] == pytest.approx(math.acos(0.6), abs=1e-15)
    assert ang.phi[1] == pytest.approx(math.acos(-0.6), abs=1e-15)


def test_angles_reject_unnormalized_sets():
    with pytest.raises(InvalidInputError):
        to_angles(IntervalUnion((0.0, 1.0)))


def test_angle_coordinates_validation():
    with pytest.raises(InvalidInputError):
        AngleCoordinates(phi=(0.1,), psi=(math.pi,))
    with pytest.raises(InvalidInputError):
        AngleCoordinates(phi=(0.0, 0.5), psi=(1.0,))
    with pytest.raises(InvalidInputError):
        AngleCoordinates(phi=(0.0, 0.4), psi=(0.5, math.pi))


def test_contains_and_subset():
    e = IntervalUnion((-1.0, -0.5, 0.5, 1.0))
    assert contains(e, -0.75)
    assert contains(e, 0.5)
    assert not contains(e, 0.0)
    assert contains(e, 1.0 + 1e-13)
    assert is_subset(IntervalUnion((-0.9, -0.6)), e)
    assert is_subset(e, IntervalUnion((-1.0, 1.0)))
    assert not is_subset(IntervalUnion((-0.6, 0.6)), e)


def test_parse_text_and_json_forms():
    e = parse_intervals("-1 -0.5; 0.5 1")
    assert e.endpoints == (-1.0, -0.5, 0.5, 1.0)
    e2 = parse_intervals("[[-1, -0.5], [0.5, 1]]")
    assert e2 == e
    with pytest.raises(InvalidInputError):
        parse_intervals("")
    with pytest.raises(InvalidInputError):
        parse_intervals("1 2 3")
    with pytest.raises(InvalidInputError):
        parse_intervals("a b")
    with pytest.raises(InvalidInputError):
        parse_intervals("[[1, 2], [3]]")
    with pytest.raises(InvalidInputError):
        parse_intervals("[1, 2,")
    for spec in ('[["a", 1]]', "[[null, 1]]", "[[true, 1]]", "[[[0], 1]]"):
        with pytest.raises(InvalidInputError):
            parse_intervals(spec)


def test_format_roundtrips():
    rng = np.random.RandomState(5)
    for _ in range(25):
        ell = rng.randint(1, 4)
        pts = np.sort(rng.uniform(-3, 3, 2 * ell))
        while np.min(np.diff(pts)) < 1e-3:
            pts = np.sort(rng.uniform(-3, 3, 2 * ell))
        e = IntervalUnion(tuple(pts))
        assert parse_intervals(format_intervals(e)) == e
        assert parse_intervals(intervals_to_json(e)) == e
        assert json.loads(intervals_to_json(e)) == [list(p) for p in e.intervals]
