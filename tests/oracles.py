"""Independent reference computations for the test suite.

Nothing here imports the library's solvers but `composed_on_blow_up`, whose
exact values for solves on C' come from one solve on another set at another
degree.  The minimax oracle is a plain nested coefficient-grid search: the
objective max_x |x^n + sum a_k x^k| over a dense point grid is convex in the
coefficients, so shrinking a box around the best grid node converges to the
global minimum.  Slow and dumb on purpose; it only needs to be trustworthy
at tiny degrees.
"""

import itertools

import numpy as np


def minimax_deviation_oracle(
    intervals,
    n: int,
    halfwidth: float = 2.0,
    rounds: int = 20,
    axis_points: int = 9,
    density: int = 8001,
) -> float:
    """Minimum deviation of a monic degree-n polynomial on a union of
    intervals, by brute force.  intervals is a sequence of (lo, hi) pairs."""
    if n < 1:
        raise ValueError("need degree >= 1")
    xs = np.concatenate([np.linspace(a, b, density) for a, b in intervals])
    powers = [xs**k for k in range(n)]
    base = xs**n
    center = np.zeros(n)
    w = halfwidth
    best_val = float(np.max(np.abs(base)))
    for _ in range(rounds):
        grids = [np.linspace(c - w, c + w, axis_points) for c in center]
        outer = (
            itertools.product(*grids[1:]) if n > 1 else iter([()])
        )
        round_best = np.inf
        round_coeffs = None
        for combo in outer:
            partial = base.copy()
            for a_k, pw in zip(combo, powers[1:]):
                partial += a_k * pw
            sups = np.max(np.abs(partial[None, :] + grids[0][:, None]), axis=1)
            i = int(np.argmin(sups))
            if sups[i] < round_best:
                round_best = float(sups[i])
                round_coeffs = (grids[0][i],) + tuple(combo)
        center = np.array(round_coeffs)
        best_val = round_best
        # keep the next box wide enough to contain the true optimum even
        # when it sits between grid nodes
        w = 3.0 * w / (axis_points - 1)
    return best_val


def grid_sup_norm(coeffs, intervals, density: int = 20001) -> float:
    """Sup of |polynomial| on a union of intervals by dense evaluation;
    coeffs ascending.  Endpoints are grid nodes, so suprema attained there
    are exact."""
    best = 0.0
    for a, b in intervals:
        xs = np.linspace(a, b, density)
        best = max(best, float(np.max(np.abs(np.polynomial.polynomial.polyval(xs, coeffs)))))
    return best


def _candidates(xs: np.ndarray, vals: np.ndarray) -> list:
    """The points xs with their M values, ascending and without points within
    1e-14 of the one before."""
    out = sorted(zip(xs.tolist(), vals.tolist()))
    dedup = []
    for x, v in out:
        if not dedup or x - dedup[-1][0] > 1e-14:
            dedup.append((x, v))
    return dedup


def _collapse_sign_runs(cands: list) -> list:
    runs = []
    for x, v in cands:
        if v == 0.0:
            continue
        s = 1 if v > 0 else -1
        if runs and runs[-1][0] == s:
            if abs(v) > abs(runs[-1][2]):  # strict: leftmost wins ties
                runs[-1] = (s, x, v)
        else:
            runs.append((s, x, v))
    return [(x, v) for _, x, v in runs]


def next_reference_oracle(xs, vals, m: int):
    """The exchange's next reference from candidate points xs with M values
    vals, as a list, or None where they hold fewer than m sign runs: sort and
    drop near-duplicates, keep the largest |M| of each sign run (leftmost on
    ties), then pop the end with the smaller |M| (the left on ties) until m
    remain, one step at a time on lists of tuples."""
    pts = _collapse_sign_runs(_candidates(xs, vals))
    if len(pts) < m:
        return None
    while len(pts) > m:
        if abs(pts[0][1]) <= abs(pts[-1][1]):
            pts.pop(0)
        else:
            pts.pop()
    return [x for x, _ in pts]


def extremum_grid(ends, n: int) -> list:
    """One grid per interval of the union with endpoints `ends`, each with
    4 (n + 1) cells, cosine-spaced, the ends exact: its cells shrink toward
    the interval ends as the critical points of a degree-n minimizer crowd
    there."""
    k = 4 * (n + 1)
    t = 0.5 - 0.5 * np.cos(np.arange(k + 1) * (np.pi / k))
    grids = []
    for a, b in zip(ends[0::2], ends[1::2]):
        x = a + (b - a) * t
        x[0], x[-1] = a, b
        grids.append(x)
    return grids


def node_derivatives(u, w, h, k):
    """M' and M'' at the nodes u[k] (an index array) of the leveled
    interpolant with weights w and level h, from their rows of the
    barycentric differentiation matrices applied to f_j = s_j h: the terms
    D_kj (f_j - f_k), D_kj = (w_j / w_k) / (u_k - u_j) and 0 at j = k, and
    D2_kj = 2 D_kj (sum_{i!=k} 1/(u_k - u_i) - 1/(u_k - u_j))."""
    rows = np.arange(len(k))
    dd = u[k][:, None] - u[None, :]
    dd[rows, k] = 1.0
    inv = 1.0 / dd
    inv[rows, k] = 0.0
    f = np.sign(w) * h
    t = (f[None, :] - f[k][:, None]) * (w[None, :] / w[k][:, None]) * inv
    return t.sum(axis=1), 2.0 * (t * (inv.sum(axis=1)[:, None] - inv)).sum(axis=1)


def pencil_zeros(u, w, d1):
    """The n - 1 zeros of M' in ascending order, from one eigenvalue solve,
    or None where the solve does not give n - 1 real ones; d1 is M' at the
    nodes.  M' has degree n - 1, so its values d_j = M'(u_j) at the first n
    nodes give it exactly in barycentric form on those nodes, whose weights
    are w_j (u_j - u_n), and its zeros are the finite eigenvalues of the
    companion pencil A = [[0, -d^T], [w, diag(u)]], B = diag(0, 1, ..., 1)
    (Lawrence & Corless, Numer. Algorithms 65, 2014), backward stable in the
    values d.  numpy has no generalized eigenvalue solver, so the pencil is
    shift-inverted at s = 3, outside the hull [-1, 1]: the eigenvalues mu of
    (A - s B)^(-1) B give lambda = s + 1/mu.  Its trailing n x n block is
    diag(1/(u - s)) minus a rank-one term, whose one exact zero eigenvalue
    (null vector w) comes out below 1e-14 while a zero in [-1, 1] has
    |mu| >= 1/4, so mu of modulus 1e-3 or less are dropped."""
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
    return np.sort(3.0 + 1.0 / mu.real)


def grid_extrema(ends, u, w, h, evaluate):
    """The interval ends and every zero of M' inside an interval, with M at
    them, from a grid search with no eigenvalue solve: each cell of
    `extremum_grid` where M' changes sign, and each grid point where M' is
    zero, holds a zero of M', found by Newton on M' kept inside the cell's
    bracket by bisection, until a step is below 1e-13 of its cell or the
    bracket is two adjacent floats; a zero within 1e-14 of an interval end
    is that end's candidate (the exchange merges points that close).
    `evaluate` is the barycentric evaluation (x, u, w, h, order) -> M and
    its first `order` derivatives.  Returns two arrays, unsorted."""
    ends = np.asarray(ends, dtype=float)
    grid = np.concatenate(extremum_grid(ends, len(u) - 1))
    inner = ~np.isin(grid[:-1], ends[1::2])  # no cell across a gap
    d1 = evaluate(grid, u, w, h, 1)[1]
    s = np.sign(d1)
    cells = np.flatnonzero(inner & (s[:-1] * s[1:] < 0.0))
    on = grid[(d1 == 0.0) & ~np.isin(grid, ends)]
    lo, hi = grid[cells], grid[cells + 1]
    s_lo, tol = s[cells], 1e-13 * (hi - lo)
    x = 0.5 * (lo + hi)
    todo = np.arange(len(x))
    for _ in range(100):
        if not len(todo):
            break
        xt = x[todo]
        _, dm, d2m = evaluate(xt, u, w, h, 2)
        below = np.sign(dm) == s_lo[todo]
        lo[todo] = np.where(below, xt, lo[todo])
        hi[todo] = np.where(below, hi[todo], xt)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(dm == 0.0, 0.0, -dm / d2m)
        nxt, mid = xt + step, 0.5 * (lo[todo] + hi[todo])
        inside = (nxt > lo[todo]) & (nxt < hi[todo])
        done = (np.abs(step) <= tol[todo]) | (mid == lo[todo]) | (mid == hi[todo])
        x[todo] = np.where(inside, nxt, np.where(done, xt, mid))
        todo = todo[~done]
    off_end = (np.abs(x[:, None] - ends) > 1e-14).all(axis=1)
    xs = np.concatenate((ends, on, x[off_end]))
    return xs, evaluate(xs, u, w, h, 0)[0]


def _leveled_interpolant(nodes):
    """x -> M(x) at the working precision of mpmath, for the monic degree-n
    M with M(nodes[j]) = (-1)^(n-j) h, taken exactly from the float nodes."""
    import mpmath

    u = [mpmath.mpf(x) for x in nodes]
    n = len(u) - 1
    w = [1 / mpmath.fprod(uj - ui for i, ui in enumerate(u) if i != j) for j, uj in enumerate(u)]
    h = 1 / mpmath.fsum(abs(wj) for wj in w)

    def m(x):  # first barycentric form: w_j f_j = |w_j| h
        d = [x - uj for uj in u]
        if 0 in d:
            return (-1) ** (n - d.index(0)) * h
        return mpmath.fprod(d) * h * mpmath.fsum(abs(wj) / dj for wj, dj in zip(w, d))

    return m


def leveled_value_oracle(nodes, x: float, dps: int = 50) -> float:
    """M(x) for the leveled interpolant on nodes, evaluated at dps digits."""
    import mpmath

    with mpmath.workdps(dps):
        return float(_leveled_interpolant(nodes)(mpmath.mpf(x)))


def _crossing(f, x0, x1, f0):
    """The zero of f in (x0, x1), where f changes sign and f(x0) = f0: by
    findroot's Anderson iteration, or by bisection down to the working
    precision where that iteration stops short of findroot's own check, as
    at a crossing where f is nearly flat (asym at n = 2, where |M| peaks on
    a gap end 4e-31 above the level)."""
    import mpmath

    try:
        return mpmath.findroot(f, (x0, x1), solver="anderson")
    except ValueError:
        pass
    while True:
        mid = (x0 + x1) / 2
        if mid in (x0, x1):
            return mid
        if (f(mid) < 0) == (f0 < 0):
            x0 = mid
        else:
            x1 = mid


def blow_up_oracle(nodes, level, endpoints, scan: int = 400, dps: int = 50) -> list:
    """C' = E u {x in the gaps of E : |M(x)| <= level} as a list of (lo, hi),
    where M is the leveled interpolant on nodes, evaluated at dps digits, and
    E is the union with the given endpoints.  The crossings of M = +-level in each gap are
    bracketed by a cosine-spaced scan of `scan` cells and found by findroot;
    a band narrower than the scan's cells and holding no crossing of the
    other level is missed."""
    import mpmath

    with mpmath.workdps(dps):
        m = _leveled_interpolant(nodes)
        lev = mpmath.mpf(level)
        ends = [mpmath.mpf(x) for x in endpoints]
        pieces = [(ends[i], ends[i + 1]) for i in range(0, len(ends), 2)]
        for a, b in zip(ends[1:-1:2], ends[2:-1:2]):
            xs = [a + (b - a) * (1 - mpmath.cos(mpmath.pi * i / scan)) / 2
                  for i in range(scan + 1)]
            vs = [m(x) for x in xs]
            cuts = [a, b]
            for x0, x1, v0, v1 in zip(xs, xs[1:], vs, vs[1:]):
                for t in (lev, -lev):
                    if (v0 - t) * (v1 - t) < 0:
                        cuts.append(_crossing(lambda x: m(x) - t, x0, x1, v0 - t))
            cuts.sort()
            pieces += [(p, q) for p, q in zip(cuts, cuts[1:]) if abs(m((p + q) / 2)) <= lev]
        pieces.sort()
        out = [list(pieces[0])]
        for p, q in pieces[1:]:
            if p <= out[-1][1]:
                out[-1][1] = max(out[-1][1], q)
            else:
                out.append([p, q])
        return [(float(p), float(q)) for p, q in out]


def composed_on_blow_up(e, n: int):
    """C' = M_n^{-1}([-L_n, L_n]) for the degree-n minimizer M_n on e, and
    {k: L_kn(C')} for k = 1..floor(100 / n).  C' is an inverse image of
    degree n, on which the monic minimizer of degree kn is
    2 (L_n / 2)^k T_k(M_n / L_n), so L_kn(C') = 2 (L_n / 2)^k exactly."""
    from chebcap.remez import blow_up_set, minimal_polynomial

    r = minimal_polynomial(e, n)
    c_prime = blow_up_set(e, r).c_prime
    return c_prime, {k: 2.0 * (r.deviation / 2.0) ** k for k in range(1, 100 // n + 1)}


def arc_sup_oracle(coeffs, intervals, scan: int = 2000, dps: int = 40) -> float:
    """Sup of |p(z)| over the arcs {|z| = 1, Re z in intervals}, p given by
    ascending real coefficients, taken exactly from the floats.  p is real,
    so the upper half suffices: theta in [arccos hi, arccos lo] per interval.
    A uniform scan of `scan` cells per arc, in double precision, only
    brackets the local maxima of |p|; each is found by findroot on
    d|p|^2/dtheta, and it and the arc's ends are valued at dps digits.  Two
    maxima within one cell are seen as one."""
    import mpmath

    mono = np.asarray(coeffs, dtype=float)[::-1]
    with mpmath.workdps(dps):
        c = [mpmath.mpf(v) for v in coeffs]

        def square_and_slope(t):  # |p|^2 and 2 Re(conj(p) p' i z), its theta-derivative
            z = mpmath.expj(t)
            p, dp = c[-1], mpmath.mpf(0)
            for ck in c[-2::-1]:
                dp = dp * z + p
                p = p * z + ck
            return abs(p) ** 2, 2 * mpmath.re(mpmath.conj(p) * dp * 1j * z)

        best = mpmath.mpf(0)
        for lo, hi in intervals:
            ts = np.linspace(*np.arccos(np.clip((hi, lo), -1.0, 1.0)), scan + 1)
            v = np.abs(np.polyval(mono, np.exp(1j * ts)))
            peaks = np.flatnonzero((v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:])) + 1
            found = [mpmath.findroot(lambda u: square_and_slope(u)[1],
                                     (mpmath.mpf(ts[i - 1]), mpmath.mpf(ts[i + 1])),
                                     solver="anderson") for i in peaks]
            for t in [ts[0], ts[-1]] + [t for t in found if ts[0] <= t <= ts[-1]]:
                best = max(best, square_and_slope(mpmath.mpf(t))[0])
        return float(mpmath.sqrt(best))
