"""Interval-union plumbing: construction, normalization, angles, parsing."""

import json
import math

import numpy as np
import pytest

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
    m = AffineMap(2.0, -3.0)
    assert m(1.5) == 0.0
    inv = m.inverse()
    assert inv(m(0.7)) == pytest.approx(0.7, abs=1e-15)
    with pytest.raises(InvalidInputError):
        AffineMap(0.0, 1.0)
    with pytest.raises(InvalidInputError):
        AffineMap(1.0, math.nan)


def test_normalize_snaps_hull_exactly():
    e = IntervalUnion((0.0, 1.0, 3.0, 4.0))
    norm, fwd = normalize(e)
    assert norm.endpoints[0] == -1.0
    assert norm.endpoints[-1] == 1.0
    assert norm.is_normalized()
    back = fwd.inverse()
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
        back = fwd.inverse()
        scale = max(1.0, max(abs(p) for p in pts))
        for orig, x in zip(e.endpoints, norm.endpoints):
            assert abs(back(x) - orig) <= 1e-12 * scale


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
