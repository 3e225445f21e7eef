"""The leveled interpolant of the Remez exchange, in barycentric form.

On a reference u_0 < ... < u_n the leveled interpolant is the monic M of
degree n with M(u_j) = s_j h, s_j = (-1)^(n-j) (Berrut & Trefethen, SIAM Rev.
2004; Pachon & Trefethen, BIT 2009).  With w_j = 1/prod_{i!=j}(u_j - u_i),
monicity reads sum_j w_j s_j h = 1, and every s_j w_j is positive, so
h = 1/sum|w_j| has no cancellation.  The weights are kept scaled by their
largest modulus e^m (the second barycentric form is invariant to a common
factor) and h = e^(-m)/sum|w~_j|, so nothing underflows at degree 100.  Each
exchange iteration makes one pass over its reference (`leveled`): the node
differences give the weights and level, and inverted in place, M' at every
node and M'' at the interior ones, which the node and pencil searches
read.  Between the nodes, M, M' and M'' come from the second barycentric
form and the Schneider-Werner divided differences (`evaluate`).  Their
error grows with the Lebesgue function of the reference on the set, not
with the peak of |M| in its gaps as a Chebyshev-basis Clenshaw sum's does.
The exchange seeks the extrema of M from its nodes first, then up to
`remez.EIG_MAX` from the zeros of M' (`critical_points`: the eigenvalues of
the barycentric companion pencil of M' on n of its node values, backward
stable by Lawrence & Corless, Numer. Algorithms 2014), each declining where
it cannot certify them, and otherwise from the zeros of M' by the interlacing
(`interlaced_zeros`: two symmetric eigenvalue solves) with one Newton step
on `evaluate`; the blow-up set takes the zeros of M and M' in the gaps
from the same solve.  The equilibrium measure raises ConvergenceError on
a component too narrow for its midpoint sums.  Since the evaluation error
does grow with the Lebesgue function, the first reference follows the
set's equilibrium measure, which the minimizer's extrema approach: a
reference off by a few points per interval at degree 100 has a Lebesgue
function beyond 1e16.
Deep in a gap that function is huge and the second form is noise, so
values for callers (`first_form`) and the blow-up set's searches in the
gaps (`gap_terms`) come from the first barycentric form, whose error is a
small multiple of n eps |M| away from a zero of M.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .errors import ConvergenceError

# Midpoint angles of the equilibrium density's samples; Chebyshev-Lobatto
# points in q of each interval's inverse distribution function.
EQ_GRID = 64
# Cosine and Chebyshev coefficients below this (relative) are chopped.
EQ_CHOP = 1e-14
# Newton steps of the inversion, at most; each one squares the table's error.
EQ_NEWTON = 8
_LN2 = math.log(2.0)
_EPS = np.finfo(float).eps
_EQ_MID = (np.arange(EQ_GRID) + 0.5) * (math.pi / EQ_GRID)
_EQ_TABLE = np.linspace(0.0, math.pi, EQ_GRID + 1)  # ends of the midpoint cells
# Samples at _EQ_MID -> cosine coefficients (DCT-II), and values at the
# Lobatto points _EQ_Q (q = 1 first) -> Chebyshev coefficients (DCT-I).
_EQ_DCT = 2.0 * np.cos(np.outer(_EQ_MID, np.arange(EQ_GRID)))
_EQ_DCT[:, 0] = 1.0
_EQ_Q = 0.5 + 0.5 * np.cos(np.arange(EQ_GRID + 1) * (math.pi / EQ_GRID))
_EQ_ICT = np.cos(np.outer(np.arange(EQ_GRID + 1), np.arange(EQ_GRID + 1)) * (math.pi / EQ_GRID))
_EQ_ICT[:, [0, -1]] *= 0.5
_EQ_ICT *= 2.0 / EQ_GRID
_EQ_ICT[[0, -1]] *= 0.5


def _chop(c: np.ndarray, scale: float) -> np.ndarray:
    """c (one row per interval) without the trailing columns below EQ_CHOP * scale."""
    big = np.flatnonzero((np.abs(c) > EQ_CHOP * scale).any(axis=0))
    return c[:, :big[-1] + 1]


@lru_cache(maxsize=64)
def equilibrium(ends: tuple) -> tuple:
    """The equilibrium measure of a normalized union, given by its endpoints,
    as three read-only arrays: the mass of each interval, their cumulative
    sums, and one row per interval of the Chebyshev coefficients in
    t = 2q - 1 of the angle theta(q) at which its distribution function
    reaches q, with x = mid - rad cos(theta).  Cached for degree sweeps,
    which share the arrays.

    The density is |q(x)| / (pi sqrt|R(x)|), with R the product of (x - e_i)
    over all endpoints and q monic of degree ell - 1 such that the integral
    of q / sqrt|R| over every gap vanishes; those conditions are linear in q's
    Chebyshev coefficients.  In theta the density f is analytic and even:
    the square-root singularities at a piece's own ends cancel against
    dx/dtheta, so every integral is a midpoint (Gauss-Chebyshev) sum, and
    the EQ_GRID samples give f's cosine coefficients b_k by one DCT.  The
    distribution function F(theta) = (theta + sum b_k sin(k theta) / k) / pi
    (b_0 = 1) is then accurate at every angle; Newton inverts it at the
    Chebyshev-Lobatto points in q, from the cumulative midpoint sums, all
    intervals at once.  On one interval theta = pi q exactly.
    """
    k = len(ends) // 2 - 1
    m = EQ_GRID
    if not k:
        return _read_only(np.ones(1), np.ones(1), np.full((1, 2), 0.5 * math.pi))
    ends = np.array(ends)
    a, b = ends[:-1, None], ends[1:, None]  # intervals and gaps alternate
    x = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(_EQ_MID)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on a too narrow component
        r = np.prod(x[:, :, None] - ends, axis=2) / ((x - a) * (x - b))
    g = (1.0 / m) / np.sqrt(np.abs(r))
    v = npcheb.chebvander(x, k)
    top = 2.0 ** (1 - k)
    gap_sums = (g[1::2, :, None] * v[1::2]).sum(axis=1)
    q = np.append(np.linalg.solve(gap_sums[:, :k], -top * gap_sums[:, k]), top)
    dens = g[0::2] * np.abs(v[0::2] @ q)
    mass = dens.sum(axis=1)
    if not np.isfinite(mass).all():
        width = float(np.min(ends[1::2] - ends[0::2]))
        raise ConvergenceError(f"the equilibrium measure is not finite: the narrowest component, "
                               f"{width:.3g} wide on the hull [-1, 1], is too narrow for its "
                               f"midpoint sums")
    cos_coef = _chop((dens @ _EQ_DCT) / mass[:, None], 1.0)[:, 1:, None]
    sin_coef = cos_coef / np.arange(1, cos_coef.shape[1] + 1)[:, None]
    cdf = np.zeros((len(dens), m + 1))
    cdf[:, 1:] = np.cumsum(dens, axis=1) / mass[:, None]
    theta = np.array([np.interp(_EQ_Q, row, _EQ_TABLE) for row in cdf])
    for _ in range(EQ_NEWTON):  # e^{i k theta} by powers of e^{i theta}
        z = np.exp(1j * theta)[:, :, None]
        zk = np.cumprod(np.broadcast_to(z, z.shape[:2] + (len(sin_coef[0]),)), axis=2)
        f = theta + (zk @ sin_coef)[:, :, 0].imag - math.pi * _EQ_Q
        step = f / (1.0 + (zk @ cos_coef)[:, :, 0].real)
        theta = np.clip(theta - step, 0.0, math.pi)
        if np.max(np.abs(step)) <= 4.0 * np.spacing(math.pi):
            break
    theta[:, 0], theta[:, -1] = math.pi, 0.0  # q = 1 and q = 0 exactly
    return _read_only(mass, np.cumsum(mass), _chop(theta @ _EQ_ICT.T, math.pi))


def _read_only(*arrays):
    """The arrays, made read-only: `equilibrium`'s cache hands them to every
    solve on the set."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


class NodePass(NamedTuple):
    """The leveled interpolant on a reference from one pass over its nodes
    (`leveled`): the weights and level, M' at every node and M'' at the
    interior nodes u_1..u_{n-1}."""

    w: np.ndarray
    h: float
    d1: np.ndarray
    d2: np.ndarray


def leveled(u: np.ndarray) -> NodePass:
    """The scaled barycentric weights s_j |w_j| e^(-m) and the level h of the
    monic leveled interpolant on the reference u, M' at every node and M''
    at the interior nodes: one pass over the node differences u_k - u_j,
    which give the weights by their log-sums and are then inverted in place
    for the rows of the differentiation matrices D_kj = (w_j / w_k) /
    (u_k - u_j), 0 at j = k, and D2_kj = 2 D_kj (sum_{i!=k} 1/(u_k - u_i) -
    1/(u_k - u_j)), applied to f_j = s_j h.  Nothing else forms those rows;
    `evaluate` takes them at a node from its sign-split sums.  M' and M''
    are the sums of the terms D_kj (f_j - f_k): summed by sign instead, M'
    at a node where it vanishes comes out as a rounding-level value of
    either sign, and the node search reads that sign on an interval end."""
    n = len(u) - 1
    inv = np.subtract.outer(u, u)
    diag = inv.reshape(-1)[::n + 2]  # a view of the diagonal
    diag[:] = 1.0
    logw = -np.log(np.abs(inv)).sum(axis=1)
    m = float(logw.max())
    w = np.exp(logw - m)
    h = math.exp(-m) / float(w.sum())
    w[(n + 1) % 2::2] *= -1.0  # s_j = -1 where n - j is odd
    np.divide(1.0, inv, out=inv)
    diag[:] = 0.0
    f = np.sign(w) * h
    t = (f[None, :] - f[:, None]) * (w[None, :] / w[:, None]) * inv
    mid = inv[1:-1]
    d2 = 2.0 * (t[1:-1] * (mid.sum(axis=1)[:, None] - mid)).sum(axis=1)
    return NodePass(w, h, t.sum(axis=1), d2)


def critical_points(u, w, d1):
    """The n - 1 zeros of M' in ascending order, from one eigenvalue solve,
    or None where the solve does not give n - 1 real ones.  d1 is M' at the
    nodes, from `leveled`.

    M' has degree n - 1, so its values d_j = M'(u_j) at the first n nodes
    give it exactly in barycentric form on those nodes, whose weights are
    w_j (u_j - u_n), and its zeros are the finite eigenvalues of the
    companion pencil A = [[0, -d^T], [w, diag(u)]], B = diag(0, 1, ..., 1)
    of size n + 1, which Lawrence & Corless ("Stability of rootfinding for
    barycentric Lagrange interpolants", Numer. Algorithms 65, 2014) show to
    be backward stable in the values d.  numpy has no generalized eigenvalue
    solver, so the pencil is shift-inverted at s = 3, outside the hull
    [-1, 1]: the eigenvalues mu of (A - s B)^(-1) B give lambda = s + 1/mu.
    That matrix has a zero first column, and its trailing n x n block is the
    diagonal D^(-1) = diag(1/(u - s)) minus the rank-one D^(-1) w d^T D^(-1)
    over d^T D^(-1) w, formed in place.  The two infinite eigenvalues are
    the dropped first column and one exact zero of the block, whose null
    vector is w; it comes out below 1e-14 (on all n + 1 values the block
    has a Jordan pair there instead, which LAPACK splits to modulus 1e-8),
    while a zero in [-1, 1] has |mu| >= 1/4, so mu of modulus 1e-3 or less
    are dropped.  The zeros are within 1e-11 of the node spacing of those
    of the pencil on all n + 1 values.  A real matrix's real eigenvalues
    come out of LAPACK with a zero imaginary part; a complex pair means two
    zeros of M' that rounding cannot separate.
    """
    n = len(u) - 1
    v, d = u[:-1], d1[:-1]
    r = 1.0 / (v - 3.0)
    rw = r * w[:-1] * (v - u[-1])
    block = np.multiply.outer(rw / -(rw @ d), d * r)
    block.reshape(-1)[::n + 1] += r
    mu = np.linalg.eigvals(block)
    mu = mu[np.abs(mu) > 1e-3]
    if len(mu) != n - 1 or mu.imag.any():
        return None
    crit = 3.0 + 1.0 / mu.real
    crit.sort()
    return crit


def _compressed(d, v):
    """The eigenvalues, ascending, of diag(d) compressed to the complement of
    the unit vector v, the zeros of sum_j v_j^2/(x - d_j), for d in [-1, 1]:
    with D = diag(d - 3) and a = (v^T D v / 2) v - D v, D's compression is
    D + v a^T + a v^T, with eigenvalues in [-4, -2] and 0 on v, the largest,
    which is dropped before 3 is added back."""
    shifted = d - 3.0
    dv = shifted * v
    a = (0.5 * (v @ dv)) * v - dv
    mat = np.multiply.outer(v, a)
    mat += mat.T
    mat.reshape(-1)[::len(d) + 1] += shifted
    return np.linalg.eigvalsh(mat)[:-1] + 3.0


def interlaced_zeros(u, w):
    """The n zeros z of M and the n - 1 zeros of M', ascending, from two
    backward stable symmetric eigenvalue solves.  M = h l(x) sum_j |w_j| /
    (x - u_j), l(x) = prod_j (x - u_j), so z are the eigenvalues of diag(u)
    compressed to the complement of sqrt|w| / ||sqrt|w|||; M is a multiple
    of prod_i (x - z_i), so the zeros of M' are those of diag(z) compressed
    to the complement of the constant unit vector.  Both come out real and
    interlaced: z_j in [u_j, u_{j+1}], each zero of M' between consecutive z.
    The exchange's interlaced search (`remez._interlaced_extrema`) reads the
    zeros of M' on the set, and `remez.blow_up_set` both kinds in its gaps."""
    root = np.sqrt(np.abs(w))
    z = _compressed(u, root / np.linalg.norm(root))
    return z, _compressed(z, np.full(len(z), 1.0 / math.sqrt(len(z))))


@lru_cache(maxsize=128)
def _sign_split(n: int) -> np.ndarray:
    """The (n + 1) x 2 matrix that takes a row of node terms to its sums over
    the nodes with s_j = +1 and over those with s_j = -1."""
    split = np.zeros((n + 1, 2))
    split[n % 2::2, 0] = 1.0
    split[1 - n % 2::2, 1] = 1.0
    split.setflags(write=False)
    return split


def evaluate(x, u, w, h, order: int):
    """M and its first `order` (0, 1 or 2) derivatives at the points x.

    Second barycentric form on the values f_j = s_j h, with the divided
    differences M[x, u_j] = (M - f_j)/(x - u_j) of the Schneider-Werner
    formulas summed in closed form.  M - f_k is taken against the nearest
    node k: f_j - f_k is 0 or -2 s_k h, so it is a sum over the nodes of the
    other sign only, which leaves out the dominant term next to a node and
    keeps the divided differences accurate there.  The terms w_j/(x - u_j)^i,
    i = 1..order + 1, are built by multiplying with 1/(x - u_j), formed once
    in place, and every sum split by node sign comes from one matrix product
    of the stacked terms with `_sign_split`; no full-size array beyond the
    terms and the reciprocals is allocated.  Points on a node u_k take the
    node's value, and M' and M'' there are the node's rows of the
    differentiation matrices of `leveled` applied to f, from the sums the
    same pass forms over the other sign, f_j - f_k = jump:
    M' = jump rest_1 / w_k and M'' = 2 jump (sigma_k rest_1 - rest_2) / w_k,
    with rest_i the sum of w_j/(u_k - u_j)^i and sigma_k = sum_{i!=k}
    1/(u_k - u_i), the row sum of the reciprocals less the 1 on the node.
    """
    n = len(u) - 1
    r = np.subtract.outer(x, u)
    near = np.abs(r).argmin(axis=1)
    hit = x == u[near]
    some_hit = hit.any()
    if some_hit:
        r[hit, near[hit]] = 1.0
    np.divide(1.0, r, out=r)  # 1/(x - u_j)
    terms = np.empty((order + 1,) + r.shape)
    np.multiply(r, w, out=terms[0])
    for i in range(order):
        np.multiply(terms[i], r, out=terms[i + 1])
    sums = (terms.reshape(-1, n + 1) @ _sign_split(n)).reshape(order + 1, len(r), 2)
    del terms
    plus = w[near] > 0.0  # s_k = +1
    total = sums[..., 0] + sums[..., 1]
    rest = np.where(plus, sums[..., 1], sums[..., 0])  # over the other sign
    den = total[0]
    if not den.all():  # cancelled to zero: take it from sum_j w_j/(x - u_j) = 1/l(x)
        gone = den == 0.0
        rz = r[gone]
        log_r = np.log(np.abs(rz)).sum(axis=1)  # -log|l(x)|
        den[gone] = np.prod(np.sign(rz), axis=1) * np.exp(math.log(h * np.abs(w).sum()) + log_r)
    jump = np.where(plus, -2.0 * h, 2.0 * h)  # f_j - f_k at the nodes of the other sign
    mk = jump * rest[0] / den
    f_near = -0.5 * jump  # f_k = s_k h
    out = [mk + f_near]
    if order >= 1:
        d1 = (mk * total[1] - jump * rest[1]) / den
        out.append(d1)
    if order >= 2:
        out.append(2.0 * (d1 * total[1] - mk * total[2] + jump * rest[2]) / den)
    if some_hit:
        out[0][hit] = f_near[hit]
        if order >= 1:
            jump_k, rest_k, w_k = jump[hit], rest[0][hit], w[near[hit]]
            out[1][hit] = jump_k * rest_k / w_k
        if order == 2:
            sigma = r[hit].sum(axis=1) - 1.0
            out[2][hit] = 2.0 * jump_k * (sigma * rest_k - rest[1][hit]) / w_k
    return out


def first_form(x, u, w, h):
    """M at the points x by the first barycentric form
    M = l(x) sum_j |w_j|/(x - u_j) / sum_j |w_j| (every w_j f_j is |w_j| h),
    l(x) = prod_j (x - u_j), forward stable wherever it is evaluated (Higham,
    IMA J. Numer. Anal. 24, 2004): its error is a small multiple of n eps |M|
    except next to a zero of M, on the set, in its gaps and outside the hull.
    l is a product of mantissas and a power of 2, so a value beyond the float
    range is inf.  A point on a node takes s_j h."""
    d = x - u[:, None]  # nodes along the first axis: the reductions run over whole rows
    a = np.abs(w)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = a @ (1.0 / d)
        expo = np.empty(d.shape, dtype=np.int32)
        np.frexp(d, out=(d, expo))
        m = np.ldexp(np.prod(d, axis=0) * s / a.sum(), expo.sum(axis=0, dtype=np.int32))
    k = np.minimum(np.searchsorted(u, x), len(u) - 1)
    on = u[k] == x
    m[on] = np.sign(w[k[on]]) * h
    return m


def gap_terms(x, u, w):
    """At points x off the nodes, by the first barycentric form M = l S / sum|w|
    with S = sum_j |w_j|/(x - u_j): log|M|, g = M'/M = sum_j 1/(x - u_j) + S'/S,
    g' = S''/S - (S'/S)^2 - sum_j 1/(x - u_j)^2, log|M'| (from l (S sum_j
    1/(x - u_j) + S'), finite on M's zero, where g is not), and the bound
    (n + 5) eps sum_j |w_j/(x - u_j)| / |S| on M's relative rounding error.
    S is the only sum with terms of both signs; next to M's zero it cancels,
    and the bound reaches 1 where M is rounding noise."""
    d = np.subtract.outer(x, u)
    mant, expo = np.frexp(d)
    terms = np.empty((5,) + d.shape)
    np.divide(1.0, d, out=terms[0])
    np.multiply(terms[0], terms[0], out=terms[1])
    np.multiply(terms[1], terms[0], out=terms[2])
    np.abs(terms[0], out=terms[3])
    terms[4] = expo
    weights = np.ones((len(u), 2))
    a = np.abs(w, out=weights[:, 0])
    sums = (terms.reshape(-1, len(u)) @ weights).reshape(5, len(x), 2)
    (s0, s1, s2, s_abs), (a1, a2) = sums[:4, :, 0], sums[:2, :, 1]
    log_l = np.log(np.abs(np.prod(mant, axis=1))) + _LN2 * sums[4, :, 1] - math.log(a.sum())
    q = s1 / s0
    return (log_l + np.log(np.abs(s0)), a1 - q, 2.0 * s2 / s0 - q * q - a2,
            log_l + np.log(np.abs(a1 * s0 - s1)), (len(u) + 4) * _EPS * s_abs / np.abs(s0))
