"""Seeded inputs, public-API ops and their oracles for the timed workloads.

A workload is an endless sequence of rounds drawn from one seeded stream;
round 0 is the fixed-work pass that the traced run executes.  A round is a
list of units, and a unit is a short chain of ops where a later op may use
an earlier op's result (solve, then blow-up set, then witness).  Every op is
exactly one call into chebcap's public API; its check compares the output
with a closed form, an exact inverse-image identity, or the paper's
inequality L_n >= 2 (cap E)^n, and returns None when the output is correct.

Only generated inputs reach the library.  The seed draws sweep's random
unions, certify's leading coefficients and frontier's order; every seed
exercises the same defects (see `KNOWN_DEFECTS`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import chebcap as cc

# README tolerances for the closed forms on one interval and on symmetric
# pairs; the pair tolerance also applies to the composed inverse-image oracle.
INTERVAL_TOL = 1e-9
PAIR_TOL = 1e-8
# L_n >= 2 lower^n holds with lower a proven capacity lower bound.
FLOOR_SLACK = 1e-9
# A result whose leveling gap exceeds this share of its deviation was accepted
# on a stall rather than converged.
STALL_GAP = 1e-12
# Residual gate on sets without a closed form, from the solver's STALL_ACCEPT.
FRONTIER_GAP = 1e-6

SWEEP_N_MAX = 20
# The random unions are solved as `chebcap verify` solves them by default:
# 20 unions at n = 1..10.  op_ref_tail on sweep is the 11th slowest op, the
# pair fixtures at n >= 14, on the edge of a drop from 55 to 45 ref.  Solved
# to n = 20, a hard random union (19 to 29 iterations) put four to seven ops
# above them on 1 seed in 5 with 8 unions, and 3 in 10 with 16, and moved the
# tail by 0.26 to 0.33 of its median.  At n <= 10 no union op comes near it.
VERIFY_RANDOM = 20
VERIFY_N_MAX = 10
# The pairs fail from about degree 38.  Degree 64 solves take 2 to 9 s each:
# a 32/48/64 round took 26 to 35 s, and its median op fell in the gap between
# the degree-32 and degree-48 solves, so it spread by 40% across ten runs.
# At 32/40/48 the median falls among five degree-40 solves of similar cost.
# 64 and above are in the frontier map instead.
FRONTIER_DEGREES = (32, 40, 48)
CERTIFY_DEGREES = (8, 16, 24, 32)
ARC_DEGREES = (8, 16, 32, 40, 48)
T_DEGREES = tuple(range(5, 41, 5))
COMPOSED_POWERS = (1, 2, 4, 8)
# Drawn leads per c*T_3 and c*T_4.  With one each a round has 69 ops and its
# median falls in a gap where neighbouring ops differ by 20%, so op_ref_p50
# jumped with their order; the ten cheap ops of a second draw move it to a
# stretch where they differ by about 4%.
COMPOSED_LEADS = 2

# ROADMAP's pairs: e_0.6 misses its closed form at n = 32 and raises
# ConvergenceError at 40 and 48; e_0.3 stays correct below n = 64.  In
# certify a shifted alpha swaps which of blow_up_set and minimality_witness
# fails on e_0.6.
SMALL_ALPHA = 0.3
LARGE_ALPHA = 0.6
# Leading coefficient of the c*T_3, c*T_4 fixtures; certify draws its own.
LEAD_C = 1.25
LEAD_WINDOW = (1.2, 1.3)


@dataclass(frozen=True)
class Op:
    """One public-API call with its oracle.

    `args` builds the arguments from the unit state (earlier results), `check`
    returns None for a correct output or a string naming oracle and observed
    value, `key` stores `keep(result)` in the unit state for later ops, and an
    op whose `needs` are missing from the state is skipped, not attempted.
    """

    call: str
    label: str
    n: int
    fn: Callable
    args: Callable[[dict], tuple]
    check: Callable[[object, dict], Optional[str]]
    key: Optional[str] = None
    keep: Callable[[object], object] = lambda r: r
    needs: tuple = ()
    oracle: Optional[float] = None


@dataclass(frozen=True)
class Unit:
    ops: tuple
    state: dict = field(default_factory=dict)


# --- set fixtures ----------------------------------------------------------

INTERVAL = cc.IntervalUnion((-1.0, 1.0))
TRIPLE = cc.IntervalUnion((-1.0, -0.6, -0.2, 0.2, 0.6, 1.0))
QUAD = cc.IntervalUnion((-1.0, -0.65, -0.35, -0.05, 0.25, 0.55, 0.85, 1.0))
ARC_ASYM = cc.IntervalUnion((-0.9, -0.2, 0.1, 0.7))


def verify_fixtures() -> list:
    """The eight `chebcap verify` fixtures as (name, kind, set, alpha)."""
    out = [("interval", "interval", INTERVAL, None)]
    out += [(f"pair-{a}", "pair", cc.e_alpha(a), a) for a in (0.3, 0.5, 0.6, 0.7)]
    out += [
        ("asymmetric-pair", "asym", cc.IntervalUnion((-1.0, 0.0, 0.5, 1.0)), None),
        ("triple", "triple", TRIPLE, None),
        ("quad", "quad", QUAD, None),
    ]
    return out


def random_union(rng: np.random.RandomState) -> cc.IntervalUnion:
    """Draw a union the way `chebcap verify` does: 2 to 4 intervals on
    [-1, 1], every gap and length at least 0.08."""
    ell = int(rng.randint(2, 5))
    while True:
        pts = np.sort(rng.uniform(-1.0, 1.0, 2 * ell))
        if float(np.min(np.diff(pts))) >= 0.08:
            break
    pts[0], pts[-1] = -1.0, 1.0
    return cc.IntervalUnion(tuple(float(x) for x in pts))


def normalized_angles(e: cc.IntervalUnion):
    """The angles of E mapped onto [-1, 1], and the factor that takes a
    capacity there back to E's own frame."""
    e_norm, fwd = cc.normalize(e)
    return cc.to_angles(e_norm), 1.0 / abs(fwd.scale)


def capacity_lower(e: cc.IntervalUnion) -> float:
    """Proven capacity lower bound of a union of two or more intervals, in
    its own frame (set-up only)."""
    angles, scale = normalized_angles(e)
    return cc.solynin_optimized_bound(angles)[0] * scale


def pair_deviation(alpha: float, n: int) -> float:
    return 2.0 ** (1 - n) * (1.0 - alpha * alpha) ** (n / 2)


def t_poly(k: int) -> cc.Polynomial:
    """T_k in monomial form."""
    return cc.to_monomial(cc.ChebExpansion((0.0,) * k + (1.0,)))


def scaled(c: float, p: cc.Polynomial) -> cc.Polynomial:
    return cc.Polynomial(tuple(c * x for x in p.coeffs))


# --- checks ----------------------------------------------------------------


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def minpoly_check(n: int, oracle=None, tol=PAIR_TOL, max_gap=None):
    """Deviation against an exact oracle, the capacity floor from the unit
    state's `lower`, and optionally a residual gate."""

    def check(res, state):
        dev = res.deviation
        if not (math.isfinite(dev) and dev > 0.0):
            return f"deviation {dev!r} is not positive"
        if oracle is not None and _rel(dev, oracle) > tol:
            return f"oracle {oracle!r}, observed {dev!r} (rel {_rel(dev, oracle):.3g} > {tol:g})"
        lower = state.get("lower")
        if lower is not None and dev < 2.0 * lower**n * (1.0 - FLOOR_SLACK):
            return f"floor 2*lower^n = {2.0 * lower**n!r}, observed {dev!r}"
        if max_gap is not None and res.residual > max_gap * dev:
            return f"residual {res.residual!r} > {max_gap:g} * deviation {dev!r}"
        return None

    return check


def minpoly_op(label, e, n, oracle=None, tol=PAIR_TOL, max_gap=None, key=None):
    return Op(
        call="remez.minimal_polynomial", label=f"{label} n={n}", n=n,
        fn=cc.minimal_polynomial, args=lambda s: (e, n),
        check=minpoly_check(n, oracle, tol, max_gap), key=key, oracle=oracle,
    )


def set_oracle(kind: str, alpha, n: int):
    """(closed-form deviation, tolerance) on the interval and even-degree pairs."""
    if kind == "interval":
        return 2.0 ** (1 - n), INTERVAL_TOL
    if kind == "pair" and n % 2 == 0:
        return pair_deviation(alpha, n), PAIR_TOL
    return None, PAIR_TOL


def solynin_op(label, e, alpha):
    angles, scale = normalized_angles(e)
    exact = None if alpha is None else 0.5 * math.sqrt(1.0 - alpha * alpha)

    def check(res, state):
        value = res[0]
        if not 0.0 < value <= 0.5 * (1.0 + 1e-12):
            return f"bound {value!r} outside (0, 1/2]"
        if exact is not None and abs(value - exact) > 1e-8:
            return f"oracle {exact!r}, observed {value!r}"
        return None

    return Op(
        call="capacity.solynin_optimized_bound", label=label, n=0,
        fn=cc.solynin_optimized_bound, args=lambda s: (angles,), check=check,
        key="lower", keep=lambda r: r[0] * scale,
    )


# --- workloads -------------------------------------------------------------


def sweep_rounds(seed: int):
    """Degree sweeps from cold: the eight `chebcap verify` fixtures at
    n = 1..20, as the acceptance test solves them, and 20 seeded random
    unions at n = 1..10, as `chebcap verify --seed <seed>` draws and solves
    them in round 0.  Each set first gets its capacity lower bound."""
    rng = np.random.RandomState(seed)
    while True:
        sets = [(*fixture, SWEEP_N_MAX) for fixture in verify_fixtures()]
        sets += [(f"random-{i}", "random", random_union(rng), None, VERIFY_N_MAX)
                 for i in range(VERIFY_RANDOM)]
        units = []
        for name, kind, e, alpha, n_max in sets:
            ops = [] if e.ell == 1 else [solynin_op(name, e, alpha)]
            for n in range(1, n_max + 1):
                oracle, tol = set_oracle(kind, alpha, n)
                ops.append(minpoly_op(name, e, n, oracle, tol))
            units.append(Unit(tuple(ops), {"lower": 0.5} if e.ell == 1 else {}))
        yield units


def frontier_units(degrees=FRONTIER_DEGREES, alphas=(SMALL_ALPHA, LARGE_ALPHA),
                   powers=None) -> list:
    """One cold solve per set and degree against an exact oracle: the
    interval, the pairs e_alpha, the inverse images of 1.25*T_3 and
    1.25*T_4 (exact L_kn from composed_minimal_sequence), and triple and
    quad (capacity floor and residual gate).  `powers` maps k to the powers
    j solved at degree kj on the c*T_k image; by default each degree is
    rounded to a multiple of k."""
    if powers is None:
        powers = {k: tuple(round(n / k) for n in degrees) for k in (3, 4)}
    units = []
    for n in degrees:
        units.append(Unit((minpoly_op("interval", INTERVAL, n,
                                      2.0 ** (1 - n), INTERVAL_TOL),)))
    for a in alphas:
        for n in degrees:
            oracle, tol = set_oracle("pair", a, n)
            units.append(Unit((minpoly_op(f"pair-{a}", cc.e_alpha(a), n,
                                          oracle, tol),)))
    for k, js in powers.items():
        p = scaled(LEAD_C, t_poly(k))
        image = cc.inverse_image(p).image
        for j in js:
            exact = cc.composed_minimal_sequence(p, j)[1]
            units.append(Unit((minpoly_op(f"{LEAD_C}*T_{k}", image, k * j, exact),)))
    for name, e in (("triple", TRIPLE), ("quad", QUAD)):
        lower = capacity_lower(e)
        for n in degrees:
            units.append(Unit((minpoly_op(name, e, n, max_gap=FRONTIER_GAP),),
                              {"lower": lower}))
    return units


def frontier_rounds(seed: int):
    """The frontier units in a seeded order, a fresh order every round.

    The sets themselves are not drawn.  The exchange's iteration count moves
    chaotically under any change of input: 1-ulp affine images of triple
    take 9 to 21 iterations at n = 48.  With 21 solves per run at degrees
    32/48/64, drawn alphas and leads made the median op spread by 21% between
    seeds on a 2-core x86-64 VM, while repeats of one seed agreed within 3%.
    """
    units = frontier_units()
    rng = np.random.RandomState(seed)
    while True:
        yield [units[i] for i in rng.permutation(len(units))]


def _certificate_unit(name, kind, e, alpha, n, lower):
    oracle, tol = set_oracle(kind, alpha, n)
    label = f"{name} n={n}"

    def blow_check(res, state):
        if not cc.is_subset(e, res.c_prime, tol=1e-8):
            return f"blow-up set {res.c_prime.endpoints!r} does not contain E"
        if not 1 <= res.ell_prime <= n:
            return f"blow-up set has {res.ell_prime} intervals for degree {n}"
        return None

    def witness_check(res, state):
        return None if res.passed else f"witness passed=False: {res!r}"

    ops = (
        minpoly_op(name, e, n, oracle, tol, key="solve"),
        Op("remez.blow_up_set", label, n, cc.blow_up_set,
           lambda s: (e, s["solve"]), blow_check, needs=("solve",)),
        Op("remez.minimality_witness", label, n, cc.minimality_witness,
           lambda s: (e, s["solve"]), witness_check, needs=("solve",)),
    )
    return Unit(ops, {"lower": lower})


def _arc_unit(name, kind, e, alpha, n, lower):
    arcs = cc.ArcSet(e)
    m = n // 2
    exact = 2.0 * (1.0 - alpha * alpha) ** (m / 2) if kind == "pair" and m % 2 == 0 else None
    cap_gamma = math.sqrt(2.0 * lower)

    def check(value, state):
        if exact is not None and _rel(value, exact) > PAIR_TOL:
            return f"oracle {exact!r}, observed {value!r}"
        floor = cap_gamma**n
        if value < floor * (1.0 - FLOOR_SLACK):
            return f"floor cap(Gamma)^n = {floor!r}, observed {value!r}"
        return None

    return Unit((Op("arcs.arc_deviation_upper", f"{name} n={n}", n,
                    cc.arc_deviation_upper, lambda s: (arcs, n), check, oracle=exact),))


def _t_unit(k):
    p = t_poly(k)

    def check(res, state):
        if not res.is_real:
            return "is_real=False, oracle True"
        if res.image.ell != 1:
            return f"{res.image.ell} components, oracle 1"
        lo, hi = res.image.hull
        cap = 0.25 * (hi - lo)
        if _rel(cap, 0.5) > PAIR_TOL:
            return f"capacity {cap!r}, oracle 0.5"
        return None

    return Unit((Op("inverse_image.inverse_image", f"T_{k}", k,
                    cc.inverse_image, lambda s: (p,), check),))


def _composed_unit(c, k):
    p = scaled(c, t_poly(k))
    cap = (2.0 * abs(p.leading)) ** (-1.0 / k)
    ops = []

    def image_check(res, state):
        if not res.is_real:
            return "is_real=False, oracle True"
        if res.image.ell != k:
            return f"{res.image.ell} components, oracle {k}"
        ends = np.array(res.image.endpoints)
        miss = float(np.max(np.abs(np.abs(np.polynomial.polynomial.polyval(ends, p.coeffs)) - 1.0)))
        if miss > 1e-9:
            return f"|P| at the image endpoints misses 1 by {miss:.3g}"
        return None

    ops.append(Op("inverse_image.inverse_image", f"{c!r}*T_{k}", k,
                  cc.inverse_image, lambda s: (p,), image_check))
    for j in COMPOSED_POWERS:
        exact = 2.0 * cap ** (j * k)

        def check(res, state, j=j, exact=exact):
            poly, dev = res
            if poly.degree != j * k or poly.leading != 1.0:
                return f"degree {poly.degree}, lead {poly.leading!r}; oracle monic degree {j * k}"
            if _rel(dev, exact) > 1e-12:
                return f"oracle 2 cap^{j * k} = {exact!r}, observed {dev!r}"
            return None

        ops.append(Op("inverse_image.composed_minimal_sequence", f"{c!r}*T_{k} j={j}",
                      j * k, cc.composed_minimal_sequence,
                      lambda s, j=j: (p, j), check, oracle=exact))
    return Unit(tuple(ops))


def certify_rounds(seed: int):
    """Certificates, arc transfer and inverse images: solve + blow_up_set +
    minimality_witness on a large-alpha pair, triple and quad; arc
    deviation bounds; inverse images of T_k and of c*T_3, c*T_4 with their
    composed minimal sequences."""
    rng = np.random.RandomState(seed)
    while True:
        units = []
        for name, kind, e, alpha in ((f"pair-{LARGE_ALPHA}", "pair",
                                      cc.e_alpha(LARGE_ALPHA), LARGE_ALPHA),
                                     ("triple", "triple", TRIPLE, None),
                                     ("quad", "quad", QUAD, None)):
            lower = capacity_lower(e)
            units += [_certificate_unit(name, kind, e, alpha, n, lower) for n in CERTIFY_DEGREES]
        for name, kind, e, alpha in (("pair-0.5", "pair", cc.e_alpha(0.5), 0.5),
                                     ("asym", "asym", ARC_ASYM, None),
                                     ("triple", "triple", TRIPLE, None)):
            lower = capacity_lower(e)
            units += [_arc_unit(name, kind, e, alpha, n, lower) for n in ARC_DEGREES]
        units += [_t_unit(k) for k in T_DEGREES]
        units += [_composed_unit(float(rng.uniform(*LEAD_WINDOW)), k)
                  for k in (3, 4) for _ in range(COMPOSED_LEADS)]
        yield units


# Every round runs PASSES times, and each ok op keeps its median pass.  On a
# shared 2-core x86-64 VM one op's time in reference units still moves by
# 10 to 20% from pass to pass.  On frontier, sets of five to ten seeds spread
# op_ref_p50 by 0.05 to 0.13 of its median with two passes and by 0.08 to
# 0.11 with three; the third pass costs 8 s there.
PASSES = 3

# A run does round(--seconds / ROUND_SECONDS) whole rounds, at least one, so
# the work for a given --seconds is the same for every version of the
# program, and so are the op count and the percentile behind op_ref_tail.
ROUND_SECONDS = 30.0
WORKLOADS = {"sweep": sweep_rounds, "frontier": frontier_rounds, "certify": certify_rounds}


# --- defect registry -------------------------------------------------------

# Defects measured when the library was re-anchored (ROADMAP, "Measured at
# re-anchor"), each with the (call, label) ops that show it at every seed.
# A failure of any other op is unlisted, and makes the run incorrect.
KNOWN_DEFECTS = (
    ("pair-high-degree",
     f"e_{LARGE_ALPHA}: a stall-accepted deviation off its closed form at n = 32, "
     "ConvergenceError at n = 40 and 48",
     {("remez.minimal_polynomial", f"pair-{LARGE_ALPHA} n={n}") for n in (32, 40, 48)}),
    ("blow-up-32",
     "blow_up_set raises ConvergenceError at n = 32 on triple and quad, "
     "and minimality_witness with it",
     {(call, f"{name} n=32") for call in ("remez.blow_up_set", "remez.minimality_witness")
      for name in ("triple", "quad")}),
    ("witness-pair",
     f"minimality_witness rejects the true minimizer on e_{LARGE_ALPHA} at n = 32",
     {("remez.minimality_witness", f"pair-{LARGE_ALPHA} n=32")}),
    ("arc-lift",
     "arc_deviation_upper: the to_cheb(result.poly) round-trip breaks the lift check "
     "on e_0.5 at n = 40, 48 and on [-0.9,-0.2]u[0.1,0.7] at n = 32, 40, 48",
     {("arcs.arc_deviation_upper", f"{name} n={n}")
      for name, ns in (("pair-0.5", (40, 48)), ("asym", (32, 40, 48))) for n in ns}),
    ("monomial-inverse-image",
     "inverse_image of T_k in monomial form: is_real=False at k = 25, 30, 35, "
     "EmptyImageError at k = 40",
     {("inverse_image.inverse_image", f"T_{k}") for k in (25, 30, 35, 40)}),
)


def known_defect(op: Op) -> str:
    for name, _, ops in KNOWN_DEFECTS:
        if (op.call, op.label) in ops:
            return name
    return "unlisted"
