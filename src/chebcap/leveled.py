"""The leveled interpolant of the Remez exchange, in barycentric form.

On a reference u_0 < ... < u_n the leveled interpolant is the monic M of
degree n with M(u_j) = s_j h, s_j = (-1)^(n-j) (Berrut & Trefethen, SIAM Rev.
2004; Pachon & Trefethen, BIT 2009).  With w_j = 1/prod_{i!=j}(u_j - u_i),
monicity reads sum_j w_j s_j h = 1, and every s_j w_j is positive, so
h = 1/sum|w_j| has no cancellation.  The weights are kept scaled by their
largest modulus e^m (the second barycentric form is invariant to a common
factor) and h = e^(-m)/sum|w~_j|, so nothing underflows at degree 100.  M, M'
and M'' come from the second barycentric form and the Schneider-Werner
divided differences.  Their error grows with the Lebesgue function of the
reference on the set, not with the peak of |M| in its gaps as a
Chebyshev-basis Clenshaw sum's does.  Since it does grow with the Lebesgue
function, the first reference follows the set's equilibrium measure, which
the minimizer's extrema approach: a reference off by a few points per
interval at degree 100 has a Lebesgue function beyond 1e16.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as npcheb

# A refined critical point is accepted once it is within about this fraction
# of the grid cell it started in.
REFINE_TOL = 1e-8
# Newton steps that may pass before the refine's bracket has to halve.
NEWTON_RUN = 4
# Angle grid of the equilibrium measure's distribution functions.
EQ_GRID = 64


@lru_cache(maxsize=64)
def equilibrium(ends: tuple) -> tuple:
    """The equilibrium measure of a normalized union, given by its endpoints:
    per interval, its mass and its distribution function at the angles
    theta = i pi / EQ_GRID of x = mid - rad cos(theta).  Cached for degree
    sweeps.

    The density is |q(x)| / (pi sqrt|R(x)|), with R the product of (x - e_i)
    over all endpoints and q monic of degree ell - 1 such that the integral
    of q / sqrt|R| over every gap vanishes; those conditions are linear in q's
    Chebyshev coefficients.  In theta the density is smooth: the square-root
    singularities at a piece's own ends cancel against dx/dtheta, so every
    integral is a midpoint (Gauss-Chebyshev) sum.
    """
    k = len(ends) // 2 - 1
    m = EQ_GRID
    if not k:
        return ((1.0, tuple(np.linspace(0.0, 1.0, m + 1).tolist())),)
    ends = np.array(ends)
    a, b = ends[:-1, None], ends[1:, None]  # intervals and gaps alternate
    x = 0.5 * (a + b) - 0.5 * (b - a) * np.cos((np.arange(m) + 0.5) * math.pi / m)
    r = np.prod(x[:, :, None] - ends, axis=2) / ((x - a) * (x - b))
    g = (1.0 / m) / np.sqrt(np.abs(r))
    v = npcheb.chebvander(x, k)
    top = 2.0 ** (1 - k)
    gap_sums = (g[1::2, :, None] * v[1::2]).sum(axis=1)
    q = np.append(np.linalg.solve(gap_sums[:, :k], -top * gap_sums[:, k]), top)
    dens = g[0::2] * np.abs(v[0::2] @ q)
    return tuple((float(row.sum()), tuple(np.append(0.0, np.cumsum(row) / row.sum()).tolist()))
                 for row in dens)


def weights_and_level(u: np.ndarray):
    """Scaled barycentric weights s_j |w_j| e^(-m) and the level h of the
    monic leveled interpolant on the reference u."""
    n = len(u) - 1
    diff = u[:, None] - u[None, :]
    np.fill_diagonal(diff, 1.0)
    logw = -np.log(np.abs(diff)).sum(axis=1)
    m = float(logw.max())
    mag = np.exp(logw - m)
    s = np.where((n - np.arange(n + 1)) % 2 == 0, 1.0, -1.0)
    return s * mag, math.exp(-m) / float(mag.sum())


def _node_derivatives(u, w, h, k):
    """M' and M'' at the nodes u[k], from the barycentric differentiation
    matrix: D_kj = (w_j / w_k) / (u_k - u_j) and
    D2_kj = 2 D_kj (sum_{i!=k} 1/(u_k - u_i) - 1/(u_k - u_j))."""
    rows = np.arange(len(k))
    dd = u[k][:, None] - u[None, :]
    dd[rows, k] = 1.0
    inv = 1.0 / dd
    inv[rows, k] = 0.0
    f = np.sign(w) * h
    t = (f[None, :] - f[k][:, None]) * (w[None, :] / w[k][:, None]) * inv
    d2 = 2.0 * (t * (inv.sum(axis=1)[:, None] - inv)).sum(axis=1)
    return t.sum(axis=1), d2


def evaluate(x, u, w, h, order: int):
    """M and its first `order` (0, 1 or 2) derivatives at the points x.

    Second barycentric form on the values f_j = s_j h, with the divided
    differences M[x, u_j] = (M - f_j)/(x - u_j) of the Schneider-Werner
    formulas summed in closed form.  M - f_k is taken against the nearest
    node k: f_j - f_k is 0 or -2 s_k h, so it is a sum over the nodes of the
    other sign only, which leaves out the dominant term next to a node and
    keeps the divided differences accurate there.  Points on a node take the
    node's value and the differentiation-matrix derivatives.
    """
    n = len(u) - 1
    d = np.subtract.outer(x, u)
    near = np.argmin(np.abs(d), axis=1)
    hit = d[np.arange(len(x)), near] == 0.0
    some_hit = hit.any()
    if some_hit:
        d[hit, near[hit]] = 1.0
    plus = (n - near) % 2 == 0  # s_k = +1

    def sums(v):  # the sum over all nodes and over those of the other sign
        p, q = v[:, n % 2::2].sum(axis=1), v[:, 1 - n % 2::2].sum(axis=1)
        return p + q, np.where(plus, q, p)

    a = w / d
    den, rest = sums(a)
    gone = den == 0.0
    if gone.any():  # cancelled to zero: take it from sum_j w_j/(x - u_j) = 1/l(x)
        dz = d[gone]
        log_l = np.log(np.abs(dz)).sum(axis=1)
        den[gone] = np.prod(np.sign(dz), axis=1) * np.exp(math.log(h * np.abs(w).sum()) - log_l)
    jump = np.where(plus, -2.0 * h, 2.0 * h)  # f_j - f_k at the nodes of the other sign
    mk = jump * rest / den
    out = [mk - 0.5 * jump]
    if order >= 1:
        b = a / d
        b_all, b_rest = sums(b)
        d1 = (mk * b_all - jump * b_rest) / den
        out.append(d1)
    if order >= 2:
        c_all, c_rest = sums(b / d)
        out.append(2.0 * (d1 * b_all - mk * c_all + jump * c_rest) / den)
    if some_hit:
        k = near[hit]
        out[0][hit] = np.sign(w[k]) * h
        if order >= 1:
            derivs = _node_derivatives(u, w, h, k)
            for i in range(1, order + 1):
                out[i][hit] = derivs[i - 1]
    return out


def refine(lo, hi, d_lo, d_hi, u, w, h):
    """Zeros of M' in the brackets (lo, hi), where M' takes the values d_lo
    and d_hi of opposite signs, all cells at once.

    Newton on M' with M'', started at the regula falsi point of the grid
    values and kept inside the bracket that each evaluation narrows.  A step
    that would leave the bracket is a bisection, and so is every step after
    a bracket has failed to halve in NEWTON_RUN evaluations, so every cell
    converges.  A cell is done once its bracket is below REFINE_TOL of its
    starting width, or has collapsed to adjacent floats, or once a Newton
    correction is below sqrt(REFINE_TOL) of it: Newton squares the relative
    error, so the corrected point is then within about REFINE_TOL.
    """
    tol = REFINE_TOL * (hi - lo)
    newton_tol = math.sqrt(REFINE_TOL) * (hi - lo)
    x = lo - d_lo * ((hi - lo) / (d_hi - d_lo))
    x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
    slo = np.sign(d_lo)
    last_width = hi - lo
    run = np.zeros(len(x), dtype=int)
    live = np.ones(len(x), dtype=bool)
    while live.any():
        _, d1, d2 = evaluate(x, u, w, h, 2)
        sd = np.sign(d1)
        right = sd != slo
        lo = np.where(right, lo, x)
        hi = np.where(right, x, hi)
        width = hi - lo
        ok = np.abs(d1) < np.abs(d2) * width
        nxt = x - d1 / np.where(ok, d2, 1.0)
        ok &= (nxt > lo) & (nxt < hi)
        small = ok & (np.abs(nxt - x) <= newton_tol)
        halved = width <= 0.5 * last_width
        run = np.where(halved, 0, run + 1)
        last_width = np.where(halved, width, last_width)
        mid = 0.5 * (lo + hi)
        step = np.where(small | ok & (run < NEWTON_RUN), nxt, mid)
        x = np.where(live & (sd != 0.0), step, x)
        live &= ~(small | (sd == 0.0) | (width <= tol) | (mid == lo) | (mid == hi))
    return x
