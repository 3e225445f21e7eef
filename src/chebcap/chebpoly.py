"""Polynomial algebra in the monomial and Chebyshev bases.

Monomial coefficients are fine for bookkeeping (leading coefficients, root
isolation, exact examples) but evaluation of near-minimal polynomials happens
in the Chebyshev basis: on [-1, 1] Clenshaw summation keeps the relative error
near machine precision where Horner on monomial coefficients loses digits to
cancellation already around degree 15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly

from .errors import DegreeCapError, InvalidInputError
from .intervals import AffineMap

# Trailing coefficients below this relative size are trimmed after arithmetic.
DROP_TOL = 1e-13
# Monomial-basis conversions and compositions are meaningless in doubles far
# beyond this; refuse rather than return noise.
DEGREE_CAP = 100
# Roots closer than this are reported as one root with summed multiplicity.
CLUSTER_TOL = 1e-8


def _trim(coeffs) -> tuple:
    c = [float(v) for v in coeffs]
    if not c:
        raise InvalidInputError("empty coefficient list")
    if not all(math.isfinite(v) for v in c):
        raise InvalidInputError("coefficients must be finite")
    top = max(abs(v) for v in c)
    if top == 0.0:
        return (0.0,)
    k = len(c) - 1
    while k > 0 and abs(c[k]) <= DROP_TOL * top:
        k -= 1
    return tuple(c[: k + 1])


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial by ascending monomial coefficients, trailing noise trimmed."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> float:
        return self.coeffs[-1]

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def __call__(self, x):
        return nppoly.polyval(x, self.coeffs)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0.0,))
        c = np.asarray(self.coeffs)
        return Polynomial(tuple(c[1:] * np.arange(1, len(c))))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial(tuple(np.convolve(self.coeffs, other.coeffs)))
        return Polynomial(tuple(float(other) * np.asarray(self.coeffs)))

    __rmul__ = __mul__

    def __add__(self, other) -> "Polynomial":
        a, b = list(self.coeffs), list(other.coeffs)
        if len(a) < len(b):
            a, b = b, a
        for i, v in enumerate(b):
            a[i] += v
        return Polynomial(tuple(a))

    def __sub__(self, other) -> "Polynomial":
        return self + (-1.0) * other

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise InvalidInputError("zero polynomial has no monic form")
        return Polynomial(tuple(np.asarray(self.coeffs) / self.leading))

    def compose_affine(self, a) -> "Polynomial":
        """Coefficients of p(scale * x + shift) via Horner in (scale*x + shift)."""
        out = [self.coeffs[-1]]
        for c in reversed(self.coeffs[:-1]):
            out = list(np.convolve(out, [a.shift, a.scale]))
            out[0] += c
        return Polynomial(tuple(out))


def clenshaw(x: float, coeffs: list) -> float:
    """Chebyshev series sum_k coeffs[k] T_k(x) at one Python float x.

    Performs numpy.polynomial.chebyshev.chebval's operations in its order,
    length-1 and length-2 branches and the final c0 + c1*x included, so every
    value is the same IEEE double chebval returns.  On Python floats a scalar
    inner loop skips numpy's per-scalar dispatch, which is most of chebval's
    cost on one point.
    """
    if len(coeffs) == 1:
        c0, c1 = coeffs[0], 0
    elif len(coeffs) == 2:
        c0, c1 = coeffs
    else:
        x2 = 2 * x
        c0, c1 = coeffs[-2], coeffs[-1]
        for c in coeffs[-3::-1]:
            c0, c1 = c - c1, c0 + c1 * x2
    return c0 + c1 * x


@dataclass(frozen=True)
class ChebExpansion:
    """Expansion against T_0 ... T_n on [-1, 1]; evaluated by Clenshaw recurrence."""

    cheb_coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "cheb_coeffs", tuple(float(v) for v in self.cheb_coeffs))
        if not self.cheb_coeffs:
            raise InvalidInputError("empty coefficient list")

    @property
    def degree(self) -> int:
        return len(self.cheb_coeffs) - 1

    def __call__(self, x):
        return npcheb.chebval(x, self.cheb_coeffs)

    def derivative(self) -> "ChebExpansion":
        if self.degree == 0:
            return ChebExpansion((0.0,))
        return ChebExpansion(tuple(npcheb.chebder(self.cheb_coeffs)))


def cheb_T(k: int, x):
    """T_k(x) by the three-term recurrence, valid for all real x (scalar or array)."""
    if k < 0:
        raise InvalidInputError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if k == 0:
        return prev if prev.ndim else float(prev)
    cur = x.copy()
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur if cur.ndim else float(cur)


def compose_T(k: int, p: Polynomial) -> Polynomial:
    """Monomial coefficients of T_k(p(x)).

    Leading coefficient is 2^(k-1) * leading(p)^k, which is what makes composed
    sequences of minimal polynomials work out.
    """
    if k < 1:
        raise InvalidInputError("compose_T requires k >= 1")
    if k * p.degree > DEGREE_CAP:
        raise DegreeCapError(f"composition degree {k * p.degree} exceeds cap {DEGREE_CAP}")
    prev = Polynomial((1.0,))
    cur = p
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * (p * cur) - prev
    if not all(math.isfinite(c) for c in cur.coeffs):
        raise InvalidInputError("coefficient overflow in Chebyshev composition")
    return cur


def autocorrelate(b) -> list:
    """A_l = sum_k b_k b_{k+l} for l = 0..n.

    For real b these are the cosine coefficients of |sum b_k z^k|^2 on |z| = 1:
    the square modulus equals A_0 + 2 sum_{l>=1} A_l T_l(Re z).
    """
    v = np.asarray(b, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise InvalidInputError("need a nonempty 1-d coefficient sequence")
    n = v.size
    return [float(np.dot(v[: n - l], v[l:])) for l in range(n)]


def to_cheb(p: Polynomial) -> ChebExpansion:
    """Rewrite monomial coefficients against T_0..T_n."""
    if p.degree > DEGREE_CAP:
        raise DegreeCapError(f"degree {p.degree} exceeds conversion cap {DEGREE_CAP}")
    return ChebExpansion(tuple(npcheb.poly2cheb(p.coeffs)))


def to_monomial(b: ChebExpansion) -> Polynomial:
    """Inverse of to_cheb."""
    if b.degree > DEGREE_CAP:
        raise DegreeCapError(f"degree {b.degree} exceeds conversion cap {DEGREE_CAP}")
    return Polynomial(tuple(npcheb.cheb2poly(b.cheb_coeffs)))


# ---------------------------------------------------------------------------
# Real-root isolation.
#
# Two primitives, each robust on its own terms:
#
#   * Sign crossings.  Subdivision with Descartes' sign-variation bound (the
#     variations of (1+t)^n q(1/(1+t)) bound the roots in (0, 1)) isolates
#     crossings down to pairs tighter than any practical grid, with a plain
#     sign scan as a safety net.  A crossing certifies a root of odd
#     multiplicity regardless of rounding.
#   * The derivative chain.  A root of multiplicity m is a root of the
#     derivative of multiplicity m - 1 at the same point, and the polynomial
#     itself sinks to rounding noise there.  Recursing on the derivative and
#     testing the residual against the local noise floor recovers even
#     multiplicities, which no sign-based method can see through noise.
#
# Sign-variation counts alone are NOT trusted for multiplicities: near an
# even-order root the subdivision transforms work at rounding level and the
# counts come out wrong in window-dependent ways.
#
# One chain per call.  A degree-n search visits n levels (c, c', ..., down to
# degree 1), and inverse_image searches P - 1, P + 1 and P' on one window: all
# three walk P', P'', ....  A RootChain memoizes each level's grid crossings
# and roots for one such call, so every level is solved once.  The dense-scan
# crossings of all levels not yet in the memo are bisected in one batched
# loop, each bracket on its own level's coefficients in numpy polyval's
# Horner order, so every value is the one a per-level polyval gives.
# ---------------------------------------------------------------------------

_WIDTH_FLOOR = 2.0**-44


def _variations(c) -> int:
    # Exact signs only: thresholding small coefficients can make Descartes
    # undercount when a root grazes a box edge, losing roots for good.
    signs = [v for v in c if v != 0.0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0.0)


def _shift_by_one(c) -> list:
    # Taylor shift t -> t + 1, in place on a copy.
    out = list(c)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += out[j + 1]
    return out


def _descartes_01(c) -> int:
    return _variations(_shift_by_one(list(reversed(c))))


def _reparam(c, off: float, sc: float) -> list:
    """Coefficients of c(off + sc * t), by Horner with polynomial arithmetic."""
    out = [c[-1]]
    for v in reversed(c[:-1]):
        out = list(np.convolve(out, [off, sc]))
        out[0] += v
    return out


def _eval(c, t: float) -> float:
    acc = 0.0
    for v in reversed(c):
        acc = acc * t + v
    return acc


# Split-point candidates, tried in order of |value| there: splitting exactly on
# a root makes it invisible to both open children, so pick the point where the
# polynomial is largest.
_SPLITS = (0.5, 33.0 / 64.0, 31.0 / 64.0)


def _isolate(c, a: float, b: float, out: list):
    """Collect root records of q over the box (a, b).

    Records are ("box", a, b, local_coeffs) for an isolated simple root and
    ("cluster", t, count) for a box at the width floor still holding `count`
    sign variations (a root cluster of that total multiplicity).
    """
    top = max(abs(v) for v in c)
    if top == 0.0:
        raise InvalidInputError("zero polynomial in root isolation")
    c = [v / top for v in c]
    v = _descartes_01(c)
    if v == 0:
        return
    if b - a < _WIDTH_FLOOR:
        if _residual_ok(c, 0.5):
            out.append(("cluster", 0.5 * (a + b), v))
        return
    if v == 1:
        out.append(("box", a, b, c))
        return
    m = max(_SPLITS, key=lambda t: abs(_eval(c, t)))
    _isolate(_reparam(c, 0.0, m), a, a + (b - a) * m, out)
    _isolate(_reparam(c, m, 1.0 - m), a + (b - a) * m, b, out)


def _residual_ok(q, t: float) -> bool:
    # A true root evaluates to rounding noise relative to the coefficient mass.
    return abs(_eval(q, t)) <= 1e-9 * sum(abs(v) for v in q)


def _sign_refine(c):
    """Bisect the sign change of a v == 1 box in its local [0, 1] frame.

    Returns the local coordinate, or None when the box holds no sign change
    (a noise variation, or an even-order root that the derivative chain will
    pick up instead).  Everything is evaluated on the box-local coefficients;
    global evaluation would see neighboring roots sitting on box edges.
    """
    ta, tb = 0.0, 1.0
    fa = c[0]
    fb = _eval(c, 1.0)
    if fa == 0.0:
        return 0.0
    if fb == 0.0:
        return 1.0
    if fa * fb > 0.0:
        ts = [i / 256.0 for i in range(257)]
        vals = [_eval(c, t) for t in ts]
        for i in range(256):
            if vals[i] * vals[i + 1] < 0.0:
                ta, tb, fa, fb = ts[i], ts[i + 1], vals[i], vals[i + 1]
                break
        else:
            return None
    for _ in range(80):
        tm = 0.5 * (ta + tb)
        fm = _eval(c, tm)
        if fm == 0.0:
            return tm
        if fa * fm < 0.0:
            tb = tm
        else:
            ta, fa = tm, fm
    return 0.5 * (ta + tb)


def _deriv(c) -> list:
    return [i * c[i] for i in range(1, len(c))]


def _abs_mass(c, r: float) -> float:
    # Horner on |coefficients| at radius r: the scale that bounds evaluation
    # noise, n * eps * mass.
    acc = 0.0
    for v in reversed(c):
        acc = acc * r + abs(v)
    return acc


def _descartes_crossings(q, lo: float, hi: float) -> list:
    """Sign-change locations on [lo, hi], from the [0, 1]-reparametrized q."""
    records = []
    _isolate(list(q), 0.0, 1.0, records)
    xs = []
    for rec in records:
        if rec[0] == "box":
            _, a, b, cl = rec
            tau = _sign_refine(cl)
            if tau is not None:
                xs.append(lo + (hi - lo) * (a + (b - a) * tau))
        else:
            # A width-floor cluster with an odd count straddles a crossing.
            _, t, v = rec
            if v % 2 == 1:
                xs.append(lo + (hi - lo) * t)
    return xs


def _horner_rows(cols: np.ndarray, x: np.ndarray) -> np.ndarray:
    # numpy polyval's operations in its order, column j of cols holding the
    # ascending coefficients of the polynomial evaluated at x[j].  Rows above
    # a column's degree are zero and leave the sum +0.0 until its leading
    # coefficient, so every value is the one polyval returns.
    c0 = cols[-1] + x * 0
    for i in range(2, len(cols) + 1):
        c0 = cols[-i] + c0 * x
    return c0


def _grid_crossings(levels: list, lo: float, hi: float) -> list:
    """Sign-change locations on [lo, hi] of each coefficient list in levels,
    from a dense scan.

    Catches crossings that variation counts lose to coefficient noise; pairs
    tighter than the grid spacing are the Descartes pass's job.  Each level is
    scanned on its own 32 * len + 1 grid; then the brackets of all levels are
    bisected together, for at most 60 steps.  A bracket leaves the loop once a
    step no longer changes it (it has collapsed to adjacent floats): the step
    depends on the bracket alone, so the other steps would not change it
    either.
    """
    width = max(len(c) for c in levels)
    found, a, b, fa, cols = [], [], [], [], []
    for c in levels:
        xs = np.linspace(lo, hi, 32 * len(c) + 1)
        vals = nppoly.polyval(xs, c)
        found.append([float(xs[i]) for i in np.nonzero(vals == 0.0)[0]])
        flips = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
        a.append(xs[flips])
        b.append(xs[flips + 1])
        fa.append(vals[flips])
        pad = np.zeros((width, len(flips)))
        pad[: len(c)] = np.asarray(c, dtype=float)[:, None]
        cols.append(pad)
    counts = [len(v) for v in a]
    a, b, fa, cols = (np.concatenate(v, axis=-1) for v in (a, b, fa, cols))
    mids = np.empty(len(a))
    live = np.arange(len(a))
    for _ in range(60):
        if not len(live):
            break
        m = 0.5 * (a + b)
        fm = _horner_rows(cols, m)
        exact = fm == 0.0
        left = fa * fm < 0.0
        b2 = np.where(left | exact, m, b)
        a2 = np.where(~left | exact, m, a)
        fa2 = np.where(left, fa, fm)
        moved = ((a2.view(np.int64) != a.view(np.int64))
                 | (b2.view(np.int64) != b.view(np.int64))
                 | (fa2.view(np.int64) != fa.view(np.int64)))
        a, b, fa = a2, b2, fa2
        if not moved.all():
            mids[live[~moved]] = 0.5 * (a[~moved] + b[~moved])
            live, a, b, fa, cols = live[moved], a[moved], b[moved], fa[moved], cols[:, moved]
    mids[live] = 0.5 * (a + b)
    for out, part in zip(found, np.split(mids, np.cumsum(counts)[:-1])):
        out.extend(part.tolist())
    return found


_EPS = float(np.finfo(float).eps)


def _confirmed_crossing(c, x: float, span: float) -> bool:
    """True when c genuinely changes sign across x.

    Grows a bracket around x until the values on both sides clear the local
    evaluation-noise floor, then compares signs.  A claimed crossing sitting
    in the noise zone of an even-order root fails this: once the bracket
    clears the noise, both sides have the same sign.
    """
    s = 8.0 * _EPS * max(abs(x), 1.0)
    s_max = 0.02 * span
    while s <= s_max:
        fl = _eval(c, x - s)
        fr = _eval(c, x + s)
        thr = 8.0 * len(c) * _EPS * _abs_mass(c, abs(x) + s)
        if abs(fl) >= thr and abs(fr) >= thr:
            return fl * fr < 0.0
        s *= 4.0
    return False  # flat at noise scale across 2% of the window: no root claim


def _chain_crossings(c, lo: float, hi: float, memo: dict) -> list:
    """Grid crossings of c on [lo, hi], computed together with those of each
    derivative of degree >= 2 that memo does not hold yet."""
    levels = []
    d = list(c)
    while len(d) >= 3 and (tuple(d), lo, hi) not in memo:
        levels.append(d)
        d = _deriv(d)
    if levels:
        for d, xs in zip(levels, _grid_crossings(levels, lo, hi)):
            memo[tuple(d), lo, hi] = xs
    return memo[tuple(c), lo, hi]


def _roots_with_mult(c, lo: float, hi: float, top: bool, memo: dict) -> list:
    """Roots of the coefficient list c on [lo, hi] with multiplicities.

    Sign crossings supply the odd-multiplicity locations.  Higher counts come
    from the derivative chain: each root of the derivative where c itself
    evaluates to rounding noise is a root of multiplicity one more.  Crossings
    inside such a root's noise basin are stray resolutions of the same root
    and are absorbed.  memo holds the grid crossings, keyed by (c, lo, hi),
    and the results, keyed by (c, lo, hi, top), of every level solved so far.
    """
    deg = len(c) - 1
    if deg <= 0:
        return []
    if deg == 1:
        r = -c[0] / c[1]
        return [(r, 1)] if lo <= r <= hi else []
    key = (tuple(c), lo, hi, top)
    if key in memo:
        return memo[key]
    span = hi - lo
    d1 = _deriv(c)
    d2 = _deriv(d1)

    xs = list(_chain_crossings(c, lo, hi, memo))
    if top:
        # The subdivision pass resolves crossing pairs tighter than the grid;
        # one level of it is enough, since multiple roots of the derivatives
        # are recovered by deeper chain levels, not by pair resolution.
        q = _reparam(list(c), lo, span)
        xs.extend(_descartes_crossings(q, lo, hi))
    # Polish before confirming: raw estimates carry enough coordinate error
    # to defeat a sign test right at the root.  Newton drives a genuine
    # crossing to machine accuracy and drives a stray into the even-order
    # root it came from, where the confirmation correctly fails.
    crossings = []
    for x in sorted(_newton_polish(c, x, lo, hi) for x in xs):
        if not _confirmed_crossing(c, x, span):
            continue
        if crossings:
            # Findings of one root from different sources scatter across its
            # uncertainty disc, noise / |derivative|; a genuinely separate
            # root is farther away, since its dip clears the noise.
            r_cond = (8.0 * len(c) * _EPS * _abs_mass(c, abs(x))
                      / max(abs(_eval(d1, x)), 1e-300))
            same = max(min(r_cond, 1e-5 * span), 32.0 * _EPS * max(abs(x), 1e-3 * span))
            if x - crossings[-1] <= same:
                continue
        crossings.append(x)

    emitted = []  # (root, multiplicity, basin radius)
    removed = set()  # crossing indices explained by an emitted multiple root
    delta = 1e-12 * span  # allowance for the root coordinate's own error
    for y, k in sorted(_roots_with_mult(d1, lo, hi, False, memo), key=lambda t: -t[1]):
        if any(abs(y - e[0]) <= e[2] for e in emitted):
            continue
        m = k + 1
        # |c(y)| must be explainable by evaluation noise plus the effect of a
        # machine-size error in y itself, or y is a critical point where c
        # genuinely does not vanish.
        tol = 16.0 * len(c) * _EPS * _abs_mass(c, abs(y)) + abs(_eval(d1, y)) * delta
        if d2:
            tol += 0.5 * abs(_eval(d2, y)) * delta * delta
        if abs(_eval(c, y)) > tol:
            continue
        # Basin: the half-width within which an order-m root keeps |c| under
        # the local noise floor.  The acceptance tolerance above is a quarter
        # of the noise here, so a crossing pair whose dip passes it always
        # lies inside the basin and the reconciliation below sees it.
        cm = list(c)
        for _ in range(m):
            cm = _deriv(cm)
        lead = abs(_eval(cm, y)) / math.factorial(m)
        noise = 64.0 * len(c) * _EPS * _abs_mass(c, abs(y) + 1e-3 * span)
        basin = (noise / lead) ** (1.0 / m) if lead > 0.0 else 1e-6 * span
        basin = min(max(basin, 1e-12 * span), 0.05 * span)
        # Reconcile with the confirmed crossings in the basin: if they fully
        # explain the sink the dip is between genuinely separate roots, not a
        # multiple root; otherwise they are partial resolutions of this root.
        inside = [i for i, x in enumerate(crossings)
                  if abs(x - y) <= basin and i not in removed]
        if len(inside) >= m:
            continue
        removed.update(inside)
        emitted.append((y, m, basin))

    out = [(x, 1) for i, x in enumerate(crossings) if i not in removed]
    out.extend((y, m) for y, m, _ in emitted)
    out.sort()
    memo[key] = out
    return out


def _newton_polish(c, x0: float, lo: float, hi: float, order: int = 1) -> float:
    # Newton on the (order-1)st derivative, where an order-fold root is simple.
    f = list(c)
    for _ in range(order - 1):
        f = _deriv(f)
    df = _deriv(f)
    x = x0
    xs = [x]  # xs[i] is the iterate after step i
    seen = {x: 0}
    for i in range(1, 41):
        d = _eval(df, x)
        if d == 0.0:
            break
        step = _eval(f, x) / d
        if not math.isfinite(step):
            break
        x = min(max(x - step, lo), hi)
        if abs(x - xs[-1]) <= 1e-16 * max(1.0, abs(xs[-1])):
            return x
        # A step depends on x alone, so once an iterate repeats the rest
        # cycle (for |x| >= 0.5 the stop test above is below one ulp, and
        # polishes end in 2-cycles between adjacent floats): return the
        # iterate that step 40 would leave.
        j = seen.setdefault(x, i)
        if j < i:
            return xs[j + (40 - j) % (i - j)]
        xs.append(x)
    return x


class RootChain:
    """Memo of the derivative chain for a run of real_roots_in calls.

    Polynomials that differ only in the constant term (P - 1 and P + 1) and
    the derivative P' share the levels P', P'', ... of their chains; isolated
    through one RootChain on one window, each level is solved once.  The memo
    keeps every level's roots, so a RootChain should live for one such run.
    """

    def __init__(self):
        self._memo = {}

    def real_roots_in(self, p: Polynomial, lo: float, hi: float,
                      cluster_tol: float = CLUSTER_TOL) -> list:
        """The module-level real_roots_in, solving through this chain's memo."""
        if p.is_zero:
            raise InvalidInputError("cannot isolate roots of the zero polynomial")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise InvalidInputError("need finite lo < hi")
        if p.degree == 0:
            return []
        span = hi - lo
        # Pad the window so roots sitting exactly on lo or hi are interior; the
        # pad-zone surplus is filtered out at the end.
        pad = 1e-6 * span
        roots = _roots_with_mult(list(p.coeffs), lo - pad, hi + pad, True, self._memo)

        clustered = []
        for x, m in roots:
            if clustered and x - clustered[-1][0] <= cluster_tol:
                px, pm = clustered[-1]
                clustered[-1] = ((px * pm + x * m) / (pm + m), pm + m)
            else:
                clustered.append((x, m))
        # Polished roots are machine accurate, so anything beyond this window
        # is a pad-zone root that genuinely lies outside [lo, hi].
        keep = 1e-11 * max(1.0, abs(lo), abs(hi))
        out = []
        for x, m in clustered:
            if m > 1:
                # Re-polish at the merged multiplicity; keep the cluster mean
                # if the polish wanders off (the cluster may be a contrived
                # merge).
                y = _newton_polish(p.coeffs, x, lo - pad, hi + pad, order=m)
                if abs(y - x) <= cluster_tol:
                    x = y
            if x < lo - keep or x > hi + keep:
                continue
            x = min(max(x, lo), hi) + 0.0  # +0.0 normalizes -0.0
            out.append((float(x), m))
        return out


def real_roots_in(p: Polynomial, lo: float, hi: float, cluster_tol: float = CLUSTER_TOL) -> list:
    """All real roots of p in [lo, hi] as sorted (root, multiplicity) pairs.

    Roots closer than cluster_tol collapse into one record whose multiplicity
    is the summed count; a cluster of size m is polished by Newton on the
    (m-1)st derivative, where the root is simple again.
    """
    return RootChain().real_roots_in(p, lo, hi, cluster_tol)
