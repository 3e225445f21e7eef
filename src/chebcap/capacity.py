"""Two-sided bracketing of the logarithmic capacity of an interval union.

The lower bound is a closed-form product over the angle coordinates of the
set, parametrized by auxiliary angles that can be tuned; any feasible choice
is a valid bound, so the best found by a deterministic ascent is reported
together with the parameters that achieve it.  The upper estimate comes from
a minimal deviation: L_n >= 2 cap^n for every degree, so (L_n / 2)^(1/n)
always sits above the capacity.  For a single interval both sides collapse
to the exact value.

Everything is computed on the hull-normalized set; capacity scales linearly
under affine maps, so one scale factor carries the result back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ConvergenceError, InvalidInputError
from .intervals import AngleCoordinates, IntervalUnion, normalize, to_angles
from .remez import minimal_polynomial

# Ascent keeps this far inside the feasible box, where a sine factor would
# otherwise degenerate to zero.
BOUNDARY_MARGIN = 1e-9
SWEEP_TOL = 1e-13
MAX_SWEEPS = 500
RATIO_K_MAX = 50


@dataclass(frozen=True)
class SolyninParams:
    """Auxiliary angles for the capacity lower bound.

    gamma lists one angle per component arc (the first pinned at 0, the last
    at pi); delta lists one separating angle per gap, delta[j] between
    gamma[j] and gamma[j+1].
    """

    gamma: tuple
    delta: tuple


@dataclass(frozen=True)
class CapacityBracket:
    lower: float
    lower_params: Optional[SolyninParams]
    upper: float
    degree_used: int
    scale: float


@dataclass(frozen=True)
class RatioReport:
    """Deviation-to-capacity ratios L_k / cap_est^k for k = 1..k_max.

    cap_est is the certified lower bound, which keeps every ratio >= 2; the
    ratios against the upper estimate are carried for diagnostics only.
    """

    ratios: tuple
    min_ratio: float
    max_ratio: float
    cap_est: float
    upper_est: float
    upper_ratios: tuple


def _check_params(angles: AngleCoordinates, params: SolyninParams) -> None:
    phi, psi = angles.phi, angles.psi
    ell = len(phi)
    if ell < 2:
        raise InvalidInputError("the capacity lower bound needs at least two intervals")
    if len(params.gamma) != ell or len(params.delta) != ell - 1:
        raise InvalidInputError(
            f"need {ell} gamma and {ell - 1} delta angles, got "
            f"{len(params.gamma)} and {len(params.delta)}"
        )
    tol = 1e-12
    g = params.gamma
    d = params.delta
    if abs(g[0]) > tol or abs(g[-1] - math.pi) > tol:
        raise InvalidInputError("gamma must start at 0 and end at pi")
    for j in range(1, ell - 1):
        if not (phi[j] - tol <= g[j] <= psi[j] + tol):
            raise InvalidInputError(f"gamma[{j}] outside [phi, psi] of its arc")
    for j in range(ell - 1):
        # delta[j] separates arc j from arc j+1 inside the gap between them.
        if not (psi[j] - tol <= d[j] <= phi[j + 1] + tol):
            raise InvalidInputError(f"delta[{j}] outside [psi_{j}, phi_{j + 1}]")


def _sine_factor(num: float, den: float) -> float:
    # sin(num * pi / (2 den)) ** (2 den^2 / pi^2); a vanishing den means a
    # factor of zero weight, which evaluates to 1 in the limit.
    if den <= 0.0:
        return 1.0
    s = math.sin(0.5 * math.pi * num / den)
    return s ** (2.0 * den * den / (math.pi * math.pi))


def solynin_bound(angles: AngleCoordinates, params: SolyninParams) -> float:
    """Capacity lower bound of the normalized set at the given parameters.

    The bound is (1/2) times a product of two sine factors per gap; each
    factor is maximal when its argument reaches pi/2, and any feasible
    parameter choice gives a valid bound.
    """
    _check_params(angles, params)
    phi, psi = angles.phi, angles.psi
    g, d = params.gamma, params.delta
    ell = len(phi)
    value = 0.5
    for j in range(ell - 1):
        value *= _sine_factor(psi[j] - g[j], d[j] - g[j])
        value *= _sine_factor(g[j + 1] - phi[j + 1], g[j + 1] - d[j])
    return value


def _midpoint_params(angles: AngleCoordinates) -> SolyninParams:
    phi, psi = angles.phi, angles.psi
    ell = len(phi)
    gamma = [0.0]
    gamma.extend(0.5 * (phi[j] + psi[j]) for j in range(1, ell - 1))
    gamma.append(math.pi)
    delta = [0.5 * (psi[j] + phi[j + 1]) for j in range(ell - 1)]
    return SolyninParams(gamma=tuple(gamma), delta=tuple(delta))


def solynin_midpoint_bound(angles: AngleCoordinates) -> float:
    """Lower bound at the midpoint parameter choice, evaluated two ways.

    The closed form below substitutes the midpoints into the product
    directly; the generic evaluation must agree to 1e-12, which guards both
    implementations against each other.
    """
    phi, psi = angles.phi, angles.psi
    ell = len(phi)
    if ell < 2:
        raise InvalidInputError("the capacity lower bound needs at least two intervals")
    value = 0.5
    for j in range(ell - 1):
        # arc-side factor: gamma_j is 0 at the first arc, a midpoint after
        if j == 0:
            value *= _sine_factor(psi[0], 0.5 * (phi[1] + psi[0]))
        else:
            value *= _sine_factor(0.5 * (psi[j] - phi[j]), 0.5 * (phi[j + 1] - phi[j]))
        # gap-side factor: gamma_{j+1} is pi at the last arc, a midpoint before
        if j == ell - 2:
            value *= _sine_factor(
                math.pi - phi[ell - 1],
                math.pi - 0.5 * (phi[ell - 1] + psi[ell - 2]),
            )
        else:
            value *= _sine_factor(
                0.5 * (psi[j + 1] - phi[j + 1]), 0.5 * (psi[j + 1] - psi[j])
            )
    generic = solynin_bound(angles, _midpoint_params(angles))
    if abs(value - generic) > 1e-12:
        raise ConvergenceError(
            f"midpoint bound evaluation paths disagree: {value!r} vs {generic!r}"
        )
    return value


def golden_max(f, lo: float, hi: float, tol: float) -> tuple:
    """Golden-section search for the maximum of a unimodal f on [lo, hi]:
    (abscissa, value), the midpoint of the final bracket, narrower than tol,
    and the larger of the two values probed inside it."""
    inv = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo, hi
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b), max(f1, f2)


def solynin_optimized_bound(angles: AngleCoordinates) -> tuple:
    """Best capacity lower bound found by deterministic coordinate ascent.

    Starts from the midpoint parameters and line-searches each free angle in
    turn (gamma[1..ell-2] and every delta) inside its constraint box, kept a
    margin away from the boundary where factors degenerate.  An angle enters
    two sine factors only, gamma[j] the gap-side factor of gap j-1 and the
    arc-side factor of gap j, delta[j] both factors of gap j, so each line
    search maximizes the product of those two; the full bound, with its
    parameter checks, is evaluated once per sweep.  The ascent stops when a
    sweep gains less than SWEEP_TOL, or after MAX_SWEEPS sweeps.  Returns
    (value, params); the value never falls below the midpoint bound.
    """
    phi, psi = angles.phi, angles.psi
    ell = len(phi)
    start = _midpoint_params(angles)
    gamma = list(start.gamma)
    delta = list(start.delta)

    def value() -> float:
        return solynin_bound(
            angles, SolyninParams(gamma=tuple(gamma), delta=tuple(delta))
        )

    def box(lo: float, hi: float) -> tuple:
        m = min(BOUNDARY_MARGIN, 0.25 * (hi - lo))
        return lo + m, hi - m

    best = value()
    for _ in range(MAX_SWEEPS):
        previous = best
        for j in range(1, ell - 1):
            def f(x, j=j):
                return (_sine_factor(x - phi[j], x - delta[j - 1])
                        * _sine_factor(psi[j] - x, delta[j] - x))

            gamma[j] = golden_max(f, *box(phi[j], psi[j]), 1e-12)[0]
        for j in range(ell - 1):
            def f(x, j=j):
                return (_sine_factor(psi[j] - gamma[j], x - gamma[j])
                        * _sine_factor(gamma[j + 1] - phi[j + 1], gamma[j + 1] - x))

            delta[j] = golden_max(f, *box(psi[j], phi[j + 1]), 1e-12)[0]
        best = value()
        if best - previous < SWEEP_TOL:
            break

    params = SolyninParams(gamma=tuple(gamma), delta=tuple(delta))
    midpoint = solynin_midpoint_bound(angles)
    if best < midpoint:
        return midpoint, start
    return best, params


def capacity_upper_estimate(e: IntervalUnion, n: int) -> float:
    """(L_n / 2)^(1/n): an upper estimate of the capacity, sharp on inverse
    images of [-1, 1] under degree-n polynomials."""
    if n < 1:
        raise InvalidInputError("degree must be at least 1")
    deviation = minimal_polynomial(e, n).deviation
    return (0.5 * deviation) ** (1.0 / n)


def capacity_lower_bound(e: IntervalUnion) -> tuple:
    """(lower, params): the certified capacity lower bound of e.

    A single interval has exact capacity, a quarter of its length, and no
    params; otherwise the optimized Solynin bound of the hull-normalized set
    is scaled back.
    """
    e_norm, fwd = normalize(e)
    scale = 1.0 / abs(fwd.scale)
    if e_norm.ell == 1:
        return 0.5 * scale, None
    lower, params = solynin_optimized_bound(to_angles(e_norm))
    return lower * scale, params


def capacity_bracket(e: IntervalUnion, n: int) -> CapacityBracket:
    """Bracket the capacity of e between the best closed-form lower bound
    and the degree-n deviation upper estimate.

    The set is hull-normalized first and the bracket scaled back, since
    capacity is affine-covariant: cap(s E + t) = |s| cap(E).
    """
    if n < 1:
        raise InvalidInputError("degree must be at least 1")
    e_norm, fwd = normalize(e)
    scale = 1.0 / abs(fwd.scale)
    lower, params = capacity_lower_bound(e)
    upper = lower if e_norm.ell == 1 else capacity_upper_estimate(e_norm, n) * scale
    return CapacityBracket(
        lower=lower,
        lower_params=params,
        upper=upper,
        degree_used=n,
        scale=scale,
    )


def ratio_sequence(e: IntervalUnion, k_max: int) -> RatioReport:
    """Ratios L_k / cap_est^k for k = 1..k_max.

    cap_est is the certified lower bound on the capacity, so every ratio is
    a true upper bound on L_k / cap^k and in particular stays >= 2.  The
    upper estimate is (L_k / 2)^(1/k) at k = min(k_max, 12), read from the
    same solves.  k_max is capped because high-degree solves on tight sets
    hit the accuracy floor of the exchange iteration.
    """
    if not 1 <= k_max <= RATIO_K_MAX:
        raise InvalidInputError(f"k_max must be in 1..{RATIO_K_MAX}, got {k_max}")
    lower = capacity_lower_bound(e)[0]
    devs = [minimal_polynomial(e, k).deviation for k in range(1, k_max + 1)]
    k_upper = min(k_max, 12)
    upper = lower if e.ell == 1 else (0.5 * devs[k_upper - 1]) ** (1.0 / k_upper)
    ratios = [dev / lower**k for k, dev in enumerate(devs, 1)]
    upper_ratios = [dev / upper**k for k, dev in enumerate(devs, 1)]
    return RatioReport(
        ratios=tuple(ratios),
        min_ratio=min(ratios),
        max_ratio=max(ratios),
        cap_est=lower,
        upper_est=upper,
        upper_ratios=tuple(upper_ratios),
    )
