"""The shared, batched derivative chain reproduces the per-level recursion.

The reference below is the root isolation as it ran before the chain was
shared: every real_roots_in call recursed down its own derivative chain, each
level ran its own 60-step grid bisection, and every Newton polish ran its 40
steps.  Roots and inverse images must come out equal to it bit for bit.
"""

import importlib
import math

import numpy as np
import numpy.polynomial.chebyshev as npcheb
import numpy.polynomial.polynomial as nppoly

from chebcap.chebpoly import (
    CLUSTER_TOL,
    Polynomial,
    _abs_mass,
    _confirmed_crossing,
    _deriv,
    _descartes_crossings,
    _EPS,
    _eval,
    _newton_polish,
    _reparam,
    real_roots_in,
)
from chebcap.errors import EmptyImageError
from chebcap.inverse_image import inverse_image

# chebcap re-exports the function inverse_image under the module's name.
_inverse_image = importlib.import_module("chebcap.inverse_image")


def _grid_crossings_ref(c, lo, hi):
    xs = np.linspace(lo, hi, 32 * len(c) + 1)
    vals = nppoly.polyval(xs, c)
    out = [float(xs[i]) for i in np.nonzero(vals == 0.0)[0]]
    flips = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
    if len(flips) == 0:
        return out
    a = xs[flips].copy()
    b = xs[flips + 1].copy()
    fa = vals[flips].copy()
    for _ in range(60):
        m = 0.5 * (a + b)
        fm = nppoly.polyval(m, c)
        exact = fm == 0.0
        left = fa * fm < 0.0
        b = np.where(left | exact, m, b)
        a = np.where(~left | exact, m, a)
        fa = np.where(left, fa, fm)
    out.extend(float(x) for x in 0.5 * (a + b))
    return out


def _newton_polish_ref(c, x0, lo, hi, order=1):
    f = list(c)
    for _ in range(order - 1):
        f = _deriv(f)
    df = _deriv(f)
    x = x0
    for _ in range(40):
        d = _eval(df, x)
        if d == 0.0:
            break
        step = _eval(f, x) / d
        if not math.isfinite(step):
            break
        x_new = min(max(x - step, lo), hi)
        if abs(x_new - x) <= 1e-16 * max(1.0, abs(x)):
            return x_new
        x = x_new
    return x


def _roots_with_mult_ref(c, lo, hi, top):
    deg = len(c) - 1
    if deg <= 0:
        return []
    if deg == 1:
        r = -c[0] / c[1]
        return [(r, 1)] if lo <= r <= hi else []
    span = hi - lo
    d1 = _deriv(c)
    d2 = _deriv(d1)
    xs = _grid_crossings_ref(c, lo, hi)
    if top:
        xs.extend(_descartes_crossings(_reparam(list(c), lo, span), lo, hi))
    crossings = []
    for x in sorted(_newton_polish_ref(c, x, lo, hi) for x in xs):
        if not _confirmed_crossing(c, x, span):
            continue
        if crossings:
            r_cond = (8.0 * len(c) * _EPS * _abs_mass(c, abs(x))
                      / max(abs(_eval(d1, x)), 1e-300))
            same = max(min(r_cond, 1e-5 * span), 32.0 * _EPS * max(abs(x), 1e-3 * span))
            if x - crossings[-1] <= same:
                continue
        crossings.append(x)
    emitted = []
    removed = set()
    delta = 1e-12 * span
    for y, k in sorted(_roots_with_mult_ref(d1, lo, hi, False), key=lambda t: -t[1]):
        if any(abs(y - e[0]) <= e[2] for e in emitted):
            continue
        m = k + 1
        tol = 16.0 * len(c) * _EPS * _abs_mass(c, abs(y)) + abs(_eval(d1, y)) * delta
        if d2:
            tol += 0.5 * abs(_eval(d2, y)) * delta * delta
        if abs(_eval(c, y)) > tol:
            continue
        cm = list(c)
        for _ in range(m):
            cm = _deriv(cm)
        lead = abs(_eval(cm, y)) / math.factorial(m)
        noise = 64.0 * len(c) * _EPS * _abs_mass(c, abs(y) + 1e-3 * span)
        basin = (noise / lead) ** (1.0 / m) if lead > 0.0 else 1e-6 * span
        basin = min(max(basin, 1e-12 * span), 0.05 * span)
        inside = [i for i, x in enumerate(crossings)
                  if abs(x - y) <= basin and i not in removed]
        if len(inside) >= m:
            continue
        removed.update(inside)
        emitted.append((y, m, basin))
    out = [(x, 1) for i, x in enumerate(crossings) if i not in removed]
    out.extend((y, m) for y, m, _ in emitted)
    out.sort()
    return out


def real_roots_in_ref(p, lo, hi, cluster_tol=CLUSTER_TOL):
    if p.degree == 0:
        return []
    pad = 1e-6 * (hi - lo)
    roots = _roots_with_mult_ref(list(p.coeffs), lo - pad, hi + pad, True)
    clustered = []
    for x, m in roots:
        if clustered and x - clustered[-1][0] <= cluster_tol:
            px, pm = clustered[-1]
            clustered[-1] = ((px * pm + x * m) / (pm + m), pm + m)
        else:
            clustered.append((x, m))
    keep = 1e-11 * max(1.0, abs(lo), abs(hi))
    out = []
    for x, m in clustered:
        if m > 1:
            y = _newton_polish_ref(p.coeffs, x, lo - pad, hi + pad, order=m)
            if abs(y - x) <= cluster_tol:
                x = y
        if x < lo - keep or x > hi + keep:
            continue
        x = min(max(x, lo), hi) + 0.0
        out.append((float(x), m))
    return out


class _RefChain:
    def real_roots_in(self, p, lo, hi, cluster_tol=CLUSTER_TOL):
        return real_roots_in_ref(p, lo, hi, cluster_tol)


def _cheb(k, scale=1.0):
    return Polynomial(tuple(scale * npcheb.cheb2poly([0] * k + [1])))


def _from_roots(roots):
    return Polynomial(tuple(nppoly.polyfromroots(roots)))


def _root_fixtures():
    # The inputs of the root-isolation tests in test_chebpoly.py: simple
    # roots, multiplicities, nested windows, tangencies, clusters.
    rng = np.random.RandomState(9)
    for _ in range(60):
        deg = rng.randint(2, 9)
        roots = np.sort(rng.uniform(-0.95, 0.95, deg))
        while deg > 1 and np.min(np.diff(roots)) < 0.02:
            roots = np.sort(rng.uniform(-0.95, 0.95, deg))
        yield _from_roots(roots), -1.0, 1.0, CLUSTER_TOL
    for roots in ([-0.5, 0.3, 0.3], [0.3, 0.3, 0.3], [-0.2, -0.2, 0.6, 0.6],
                  [-2.0, 0.5, 3.0]):
        yield _from_roots(roots), -1.0, 1.0, CLUSTER_TOL
    for lo, hi in [(-1, 1), (-2, 2), (-3, 3), (-5, 4), (-1.5, 0.9)]:
        yield _from_roots([-0.8, -0.1, -0.1, 0.7]), float(lo), float(hi), CLUSTER_TOL
    one = Polynomial((1.0,))
    for t in (_cheb(8), _cheb(12, 1.05)):
        yield t - one, -1.0, 1.0, CLUSTER_TOL
        yield t + one, -1.0, 1.0, CLUSTER_TOL
    yield _from_roots([0.2, 0.2 + 1e-10]), -1.0, 1.0, 1e-8
    yield Polynomial((-1.0, 2.0)), 0.0, 1.0, CLUSTER_TOL
    yield Polynomial((-1.0, 2.0)), 0.6, 1.0, CLUSTER_TOL


def _image_fixtures():
    rng = np.random.RandomState(5)
    polys = [_cheb(k) for k in range(2, 41)]
    for k in (3, 4):
        for c in rng.uniform(1.2, 1.3, 3):
            polys += [_cheb(k, c), _cheb(k, 1.0 / c)]
    return polys


def test_real_roots_in_bit_identical_to_per_level_recursion():
    for p, lo, hi, tol in _root_fixtures():
        assert real_roots_in(p, lo, hi, tol) == real_roots_in_ref(p, lo, hi, tol), p


def _outcome(p):
    try:
        return inverse_image(p)
    except EmptyImageError as exc:  # T_40 in monomial form
        return repr(exc)


def test_inverse_image_bit_identical_to_per_level_recursion(monkeypatch):
    polys = _image_fixtures()
    got = [_outcome(p) for p in polys]
    monkeypatch.setattr(_inverse_image, "RootChain", _RefChain)
    for p, res in zip(polys, got):
        assert res == _outcome(p), p.coeffs
    assert sum(not res.is_real for res in got[-12:]) == 6  # the c < 1 family


def test_newton_polish_cycle_exit_keeps_the_fortieth_iterate():
    # Polishing the double roots of T_k - 1 and the roots of T_k' from a
    # grid of starts falls into cycles of several periods, entered after odd
    # and even numbers of steps.
    for k in (9, 16, 23, 40):
        for c in (list((_cheb(k) - Polynomial((1.0,))).coeffs),
                  list(_cheb(k).derivative().coeffs)):
            for x0 in np.linspace(-1.02, 1.02, 97).tolist():
                assert (_newton_polish(c, x0, -1.1, 1.1)
                        == _newton_polish_ref(c, x0, -1.1, 1.1)), (k, x0)
