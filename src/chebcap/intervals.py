"""Compact unions of disjoint closed real intervals.

Sets are stored as a flat ascending endpoint tuple; consecutive pairs are the
interval endpoints.  The canonical frame has the hull normalized to [-1, 1],
where each interval maps to an arc of the upper half circle through
theta = arccos(x); those angle coordinates drive the capacity bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import InvalidInputError

# Intervals whose gap is at most this times the hull's radius are merged.
MERGE_GAP = 1e-12
# Default tolerance for containment / subset tests.
CONTAIN_TOL = 1e-12


@dataclass(frozen=True)
class AffineMap:
    """The map x -> (x - mid) * scale of the hull [lo, hi] onto [-1, 1], with
    rad = (hi - lo) / 2, scale = 1 / rad rounded once and mid = lo + rad held
    exactly as the two-sum pair `_mid` (Dekker 1971).  A point of the hull
    lands within 1 ulp of its image where the hull's ends share a sign within
    a factor 2 (x - mid is exact, Sterbenz), however far from the origin, and
    within 3 ulps elsewhere; on [-1, 1] the map is the identity, bit for bit.
    The slope adds under an ulp against (x - mid) / rad.  A point `inverse`
    maps back carries a relative rounding of ulp(max |x|) / rad on the hull.
    """

    lo: float
    hi: float
    rad: float = field(init=False)
    scale: float = field(init=False, repr=False)
    _mid: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rad = 0.5 * (self.hi - self.lo)
        if not 0.0 < rad < math.inf:  # also a nan end
            raise InvalidInputError(f"the hull [{self.lo}, {self.hi}] must be finite and nonempty")
        mid = self.lo + rad
        back = mid - rad
        err = (self.lo - back) + (rad - (mid - back))  # two-sum: mid + err = lo + rad
        for name, value in (("rad", rad), ("scale", 1.0 / rad), ("_mid", (mid, err))):
            object.__setattr__(self, name, value)

    @property
    def shift(self) -> float:
        """The intercept -mid / rad."""
        return -self._mid[0] / self.rad

    def __call__(self, x):
        mid, err = self._mid
        return ((x - mid) - err) * self.scale

    def inverse(self, y):
        """mid + rad y; subtracting the negated mid keeps a zero's sign on [-1, 1]."""
        mid, err = self._mid
        return (self.rad * y - (0.0 - err)) - (0.0 - mid)


@dataclass(frozen=True)
class IntervalUnion:
    """Ascending union of closed intervals with pairwise disjoint, nonempty interiors.

    ``merged`` flags that touching input intervals (gap <= MERGE_GAP times the
    hull's radius) were collapsed; analytically they are a single interval.
    """

    endpoints: tuple
    merged: bool = field(default=False, compare=False)

    def __post_init__(self):
        pts = [float(x) for x in self.endpoints]
        if len(pts) == 0 or len(pts) % 2 != 0:
            raise InvalidInputError("need an even, positive number of endpoints")
        if not all(math.isfinite(x) for x in pts):
            raise InvalidInputError("endpoints must be finite")
        pairs = sorted((pts[i], pts[i + 1]) for i in range(0, len(pts), 2))
        tol = MERGE_GAP * (0.5 * max(pts) - 0.5 * min(pts))  # halves: no overflow
        merged = False
        out = []
        for lo, hi in pairs:
            if not lo < hi:
                raise InvalidInputError(f"interval [{lo}, {hi}] has empty interior")
            if out and lo - out[-1][1] <= tol:
                if lo < out[-1][1] - tol:
                    raise InvalidInputError(f"intervals overlap near x = {lo}")
                out[-1] = (out[-1][0], max(hi, out[-1][1]))
                merged = True
            else:
                out.append((lo, hi))
        flat = tuple(x for pair in out for x in pair)
        object.__setattr__(self, "endpoints", flat)
        object.__setattr__(self, "merged", merged or self.merged)

    @property
    def ell(self) -> int:
        """Number of component intervals."""
        return len(self.endpoints) // 2

    @property
    def intervals(self) -> tuple:
        """Component intervals as ascending (lo, hi) pairs."""
        e = self.endpoints
        return tuple((e[i], e[i + 1]) for i in range(0, len(e), 2))

    @property
    def hull(self) -> tuple:
        return (self.endpoints[0], self.endpoints[-1])

    @property
    def endpoints_descending(self) -> tuple:
        """Endpoints ordered largest first (the indexing the angle formulas use)."""
        return tuple(reversed(self.endpoints))

    def is_normalized(self, tol: float = 1e-12) -> bool:
        lo, hi = self.hull
        return abs(lo + 1.0) <= tol and abs(hi - 1.0) <= tol


@dataclass(frozen=True)
class AngleCoordinates:
    """Arccos coordinates of a normalized union, one (phi_j, psi_j) pair per interval.

    Pairs are indexed from the interval nearest x = 1 and interleave as
    0 = phi_1 < psi_1 < phi_2 < ... < phi_l < psi_l = pi.
    """

    phi: tuple
    psi: tuple

    def __post_init__(self):
        if len(self.phi) != len(self.psi) or not self.phi:
            raise InvalidInputError("phi and psi must be equal-length, nonempty")
        seq = [v for pair in zip(self.phi, self.psi) for v in pair]
        if self.phi[0] != 0.0 or self.psi[-1] != math.pi:
            raise InvalidInputError("angles must start at 0 and end at pi")
        if any(b <= a for a, b in zip(seq, seq[1:])):
            raise InvalidInputError("angles must strictly interleave")

    @property
    def ell(self) -> int:
        return len(self.phi)


def normalize(e: IntervalUnion) -> tuple:
    """e mapped onto [-1, 1] by its hull's `AffineMap`, the hull's ends on -1
    and 1 exactly, and that map."""
    fwd = AffineMap(*e.hull)
    pts = [fwd(x) for x in e.endpoints]
    pts[0], pts[-1] = -1.0, 1.0
    return IntervalUnion(tuple(pts)), fwd


def to_angles(e: IntervalUnion) -> AngleCoordinates:
    """Angle coordinates arccos(endpoint) of a normalized union."""
    if not e.is_normalized():
        raise InvalidInputError("to_angles requires a union normalized to hull [-1, 1]")
    # arccos reverses order: descending endpoints give ascending angles.
    theta = [math.acos(max(-1.0, min(1.0, x))) for x in e.endpoints_descending]
    theta[0], theta[-1] = 0.0, math.pi
    return AngleCoordinates(phi=tuple(theta[0::2]), psi=tuple(theta[1::2]))


def contains(e: IntervalUnion, x: float, tol: float = CONTAIN_TOL) -> bool:
    """True iff x lies within tol of some component interval."""
    return any(lo - tol <= x <= hi + tol for lo, hi in e.intervals)


def is_subset(e1: IntervalUnion, e2: IntervalUnion, tol: float = CONTAIN_TOL) -> bool:
    """True iff every interval of e1 is covered by a single interval of e2, up to tol."""
    return all(
        any(c - tol <= a and b <= d + tol for c, d in e2.intervals)
        for a, b in e1.intervals
    )


def parse_intervals(text: str) -> IntervalUnion:
    """Parse either the text form "a b; c d; ..." or the JSON form [[a,b],[c,d]]."""
    s = text.strip()
    if not s:
        raise InvalidInputError("empty interval specification")
    if s.startswith("["):
        try:
            pairs = json.loads(s)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"bad JSON interval specification: {exc}") from exc
        if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in p)
            for p in pairs
        ):
            raise InvalidInputError("JSON intervals must be a list of [lo, hi] number pairs")
        flat = [float(v) for p in pairs for v in p]
        return IntervalUnion(tuple(flat))
    flat = []
    for chunk in s.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split()
        if len(parts) != 2:
            raise InvalidInputError(f"interval chunk {chunk!r} is not a pair 'lo hi'")
        try:
            flat.extend(float(v) for v in parts)
        except ValueError as exc:
            raise InvalidInputError(f"non-numeric endpoint in {chunk!r}") from exc
    return IntervalUnion(tuple(flat))


def format_intervals(e: IntervalUnion) -> str:
    """Text form "a b; c d" that parse_intervals round-trips."""
    return "; ".join(f"{lo!r} {hi!r}" for lo, hi in e.intervals)


def intervals_to_json(e: IntervalUnion) -> str:
    """JSON form [[a, b], [c, d]] that parse_intervals round-trips."""
    return json.dumps([[lo, hi] for lo, hi in e.intervals])
