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

from .errors import InvalidInputError
from .intervals import AffineMap, AngleCoordinates, IntervalUnion, normalize, to_angles
from .remez import minimal_polynomial

# Ascent keeps this far inside the feasible box, where a sine factor would
# otherwise degenerate to zero.
BOUNDARY_MARGIN = 1e-9
# Newton steps of the ascent, at most, and the step below which it has
# converged: a step moves the angles by some eps / |H| of rounding, and the
# Hessian's smallest eigenvalue is down to about 1e-3.
NEWTON_STEPS = 100
STEP_TOL = 1e-12
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
    ell = len(phi)
    # Clamped into their boxes: past an edge, a sine factor's base is negative.
    g = (0.0, *(min(max(params.gamma[j], phi[j]), psi[j]) for j in range(1, ell - 1)), math.pi)
    d = tuple(min(max(params.delta[j], psi[j]), phi[j + 1]) for j in range(ell - 1))
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
    """Lower bound at the midpoint parameter choice; a set of fewer than two
    intervals is refused, as by `solynin_bound`."""
    return solynin_bound(angles, _midpoint_params(angles))


def _log_factor(num: float, den: float) -> tuple:
    """The log of `_sine_factor(num, den)`, g = (2 den^2 / pi^2) log sin t with
    t = pi num / (2 den), and its derivatives in (num, den) = (N, D): g_D,
    g_S = g_N + g_D along (1, 1), g_DD, g_SD = g_ND + g_DD and
    g_SS = g_NN + 2 g_ND + g_DD.  For 0 < num <= den."""
    t = 0.5 * math.pi * num / den
    sin, cos = math.sin(t), math.cos(t)
    log_sin, cot, csc2 = math.log(sin), cos / sin, 1.0 / (sin * sin)
    c = 2.0 / (math.pi * math.pi)
    k = 0.5 * math.pi
    g_n = c * k * den * cot
    g_d = c * den * (2.0 * log_sin - t * cot)
    g_nn = -c * k * k * csc2
    g_nd = c * k * (cot + t * csc2)
    g_dd = c * (2.0 * (log_sin - t * cot) - t * t * csc2)
    return (c * den * den * log_sin, g_d, g_n + g_d, g_dd, g_nd + g_dd,
            g_nn + 2.0 * g_nd + g_dd)


def _log_bound(phi, psi, z: list, order: int) -> tuple:
    """The log of the bound's product at the free angles z = (delta[0],
    gamma[1], delta[1], ..., gamma[ell-2], delta[ell-2]), and with order 2
    its gradient and tridiagonal Hessian (diagonal, superdiagonal) in z.

    Gap j has the arc-side factor in (num, den) = (psi_j - gamma_j, delta_j -
    gamma_j) and the gap-side one in (gamma_{j+1} - phi_{j+1}, gamma_{j+1} -
    delta_j); gamma_0 = 0 and gamma_{ell-1} = pi are fixed.  gamma_j moves
    num and den together, delta_j den alone, and each factor couples two
    neighbours in z, so the Hessian is tridiagonal."""
    m = len(z)
    grad, diag, sup = [0.0] * m, [0.0] * m, [0.0] * (m - 1)
    total = 0.0
    for j in range(len(phi) - 1):
        i = 2 * j  # delta_j; gamma_j is at i - 1 and gamma_{j+1} at i + 1
        g_lo = z[i - 1] if j else 0.0
        g_hi = z[i + 1] if i + 1 < m else math.pi
        a, a_d, a_s, a_dd, a_sd, a_ss = _log_factor(psi[j] - g_lo, z[i] - g_lo)
        b, b_d, b_s, b_dd, b_sd, b_ss = _log_factor(g_hi - phi[j + 1], g_hi - z[i])
        total += a + b
        if order < 2:
            continue
        grad[i] += a_d - b_d
        diag[i] += a_dd + b_dd
        if j:
            grad[i - 1] -= a_s
            diag[i - 1] += a_ss
            sup[i - 1] -= a_sd
        if i + 1 < m:
            grad[i + 1] += b_s
            diag[i + 1] += b_ss
            sup[i] -= b_sd
    return total, grad, diag, sup


def _newton_step(grad: list, diag: list, sup: list):
    """The Newton step -H^(-1) grad for the tridiagonal H (diag, sup), by the
    LDL^T factorization of -H, or None where -H is not positive definite."""
    m = len(grad)
    piv, y = [-diag[0]], [grad[0]]
    for i in range(1, m):
        ratio = -sup[i - 1] / piv[i - 1]
        piv.append(-diag[i] + ratio * sup[i - 1])
        y.append(grad[i] - ratio * y[i - 1])
    if min(piv) <= 0.0:
        return None
    step = [0.0] * m
    step[-1] = y[-1] / piv[-1]
    for i in range(m - 2, -1, -1):
        step[i] = (y[i] + sup[i] * step[i + 1]) / piv[i]
    return step


def solynin_optimized_bound(angles: AngleCoordinates) -> tuple:
    """Best capacity lower bound found by a deterministic Newton ascent.

    Starts from the midpoint parameters and takes Newton steps on the log of
    the bound in all free angles at once (every delta and gamma[1..ell-2])
    inside their constraint box, kept a margin away from the boundary where
    factors degenerate.  Each log factor is concave in its (num, den), so
    the log-bound is concave and -H positive definite away from num = den;
    its Hessian is tridiagonal (`_log_bound`), and one LDL^T pass solves
    for the step (`_newton_step`); where rounding leaves -H not positive
    definite the step is the gradient.  The step is halved until it stays
    in the box and the log-bound rises; the ascent stops once no step of
    more than STEP_TOL in any angle does, or after NEWTON_STEPS steps.  The
    full bound, with its parameter checks, is evaluated at the end.
    Returns (value, params); the value never falls below the midpoint
    bound.
    """
    phi, psi = angles.phi, angles.psi
    ell = len(phi)
    start = _midpoint_params(angles)
    z, box = [start.delta[0]], [(psi[0], phi[1])]
    for j in range(1, ell - 1):
        z += [start.gamma[j], start.delta[j]]
        box += [(phi[j], psi[j]), (psi[j], phi[j + 1])]
    margin = [min(BOUNDARY_MARGIN, 0.25 * (b - a)) for a, b in box]
    lo = [a + m for (a, _), m in zip(box, margin)]
    hi = [b - m for (_, b), m in zip(box, margin)]
    f, grad, diag, sup = _log_bound(phi, psi, z, 2)
    for _ in range(NEWTON_STEPS):
        step = _newton_step(grad, diag, sup) or grad
        size = max(map(abs, step))
        alpha = 1.0
        while alpha * size > STEP_TOL:  # halve until inside the box and rising
            trial = [x + alpha * s for x, s in zip(z, step)]
            if all(a <= x <= b for a, x, b in zip(lo, trial, hi)) and \
                    _log_bound(phi, psi, trial, 0)[0] > f:
                break
            alpha *= 0.5
        else:
            break
        z = trial
        f, grad, diag, sup = _log_bound(phi, psi, z, 2)

    params = SolyninParams(gamma=(0.0, *z[1::2], math.pi), delta=tuple(z[0::2]))
    best = solynin_bound(angles, params)
    midpoint = solynin_bound(angles, start)
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
    is scaled back by the hull's radius.
    """
    return _lower_bound(*normalize(e))


def _lower_bound(e_norm: IntervalUnion, fwd: AffineMap) -> tuple:
    """`capacity_lower_bound` of the set that `fwd` maps onto e_norm."""
    if e_norm.ell == 1:
        return 0.5 * fwd.rad, None
    lower, params = solynin_optimized_bound(to_angles(e_norm))
    return lower * fwd.rad, params


def capacity_bracket(e: IntervalUnion, n: int) -> CapacityBracket:
    """Bracket the capacity of e between the best closed-form lower bound
    and the degree-n deviation upper estimate.

    The set is hull-normalized once and the bracket scaled back by the
    hull's radius, since capacity is affine-covariant: cap(s E + t) = |s| cap(E).
    """
    if n < 1:
        raise InvalidInputError("degree must be at least 1")
    e_norm, fwd = normalize(e)
    lower, params = _lower_bound(e_norm, fwd)
    upper = lower if e_norm.ell == 1 else capacity_upper_estimate(e_norm, n) * fwd.rad
    return CapacityBracket(
        lower=lower,
        lower_params=params,
        upper=upper,
        degree_used=n,
        scale=fwd.rad,
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
