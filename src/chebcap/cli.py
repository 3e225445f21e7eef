"""Command-line front end.

Each subcommand prints one machine-readable report to standard output and
exits 0 on success, 2 on invalid input, 3 on numerical non-convergence; the
verify subcommand exits 1 when the central inequality fails somewhere.  JSON
reports carry {command, inputs, version, results} with keys sorted; CSV is a
fixed-column table.  All floating-point output is formatted at 17 significant
digits, and identical invocations produce byte-identical output.

CHEBCAP_MAX_DEGREE in the environment sets the degree cap for one run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import __version__
from . import chebpoly as _chebpoly
from .arcs import ArcSet, arc_deviation_upper, robinson_capacity
from .capacity import capacity_bracket, capacity_lower_bound, ratio_sequence
from .chebpoly import Polynomial
from .errors import (
    ConvergenceError,
    EmptyImageError,
    InvalidInputError,
    NonRealImageError,
)
from .intervals import IntervalUnion, parse_intervals
from .inverse_image import _capacity, e_alpha, inverse_image
from .remez import minimal_polynomial

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation; `to_inputs` is its canonical serialized form."""

    command: str
    intervals: Optional[str] = None
    coeffs: Optional[str] = None
    degree: Optional[int] = None
    k_max: Optional[int] = None
    n_max: Optional[int] = None
    random_count: Optional[int] = None
    seed: Optional[int] = None
    tol: Optional[float] = None
    output: str = "json"
    out: Optional[str] = None

    def to_inputs(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_inputs(cls, inputs: dict) -> "RunConfig":
        return cls(**inputs)


# ---------------------------------------------------------------------------
# Serialization.  The float format and key order are part of the output
# contract, so the JSON writer is explicit rather than json.dumps.


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _to_json(value, indent: int = 0) -> str:
    pad = "  " * (indent + 1)
    end = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ",\n".join(
            f"{pad}{json.dumps(str(k))}: {_to_json(v, indent + 1)}"
            for k, v in sorted(value.items())
        )
        return "{\n" + body + "\n" + end + "}"
    if isinstance(value, (list, tuple)):
        parts = [_to_json(v, indent + 1) for v in value]
        if not parts:
            return "[]"
        if sum(map(len, parts)) < 72 and not any("\n" in p for p in parts):
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(pad + p for p in parts) + "\n" + end + "]"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _envelope(config: RunConfig, results: dict) -> str:
    doc = {
        "command": config.command,
        "inputs": config.to_inputs(),
        "version": __version__,
        "results": results,
    }
    return _to_json(doc) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    if value is None:
        return ""
    return str(value)


def _flat_csv(results: dict) -> str:
    """key,value table for reports that are not naturally rectangular;
    nested keys are dotted, list values semicolon-joined."""
    rows = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        else:
            rows.append(f"{prefix},{_csv_cell(value)}")

    walk("", results)
    return "key,value\n" + "\n".join(rows) + "\n"


def _table_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_csv_cell(r[c]) for c in columns) for r in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands.


def _parse_coeffs(text: str) -> Polynomial:
    t = text.strip()
    if t.startswith("["):
        try:
            vals = json.loads(t)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"bad coefficient list: {exc}") from None
        if not isinstance(vals, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals
        ):
            raise InvalidInputError("coefficient JSON must be a list of numbers")
    else:
        try:
            vals = [float(tok) for tok in t.replace(",", " ").split()]
        except ValueError as exc:
            raise InvalidInputError(f"bad coefficient list: {exc}") from None
    if not vals:
        raise InvalidInputError("need at least one coefficient")
    return Polynomial(tuple(float(v) for v in vals))


def _cmd_minpoly(config: RunConfig) -> dict:
    e = parse_intervals(config.intervals)
    r = minimal_polynomial(e, config.degree)
    return {
        "degree": config.degree,
        "deviation": r.deviation,
        "coeffs": list(r.poly.coeffs),
        "alternation_points": list(r.alternation_points),
        "iterations": r.iterations,
        "residual": r.residual,
    }


def _cmd_capacity(config: RunConfig) -> dict:
    e = parse_intervals(config.intervals)
    b = capacity_bracket(e, config.degree)
    params = None
    if b.lower_params is not None:
        params = {
            "gamma": list(b.lower_params.gamma),
            "delta": list(b.lower_params.delta),
        }
    return {
        "lower": b.lower,
        "upper": b.upper,
        "degree_used": b.degree_used,
        "scale": b.scale,
        "lower_params": params,
    }


def _cmd_inverse_image(config: RunConfig) -> dict:
    p = _parse_coeffs(config.coeffs)
    res = inverse_image(p)
    try:
        cap = _capacity(p, res)
    except NonRealImageError:
        cap = None
    return {
        "degree": p.degree,
        "coeffs": list(p.coeffs),
        "endpoints": list(res.image.endpoints),
        "component_count": res.image.ell,
        "is_real": res.is_real,
        "capacity": cap,
    }


def _cmd_ratio(config: RunConfig):
    e = parse_intervals(config.intervals)
    rep = ratio_sequence(e, config.k_max)
    results = {
        "ratios": list(rep.ratios),
        "upper_ratios": list(rep.upper_ratios),
        "min_ratio": rep.min_ratio,
        "max_ratio": rep.max_ratio,
        "cap_lower": rep.cap_est,
        "cap_upper_estimate": rep.upper_est,
    }
    rows = [
        {"k": k + 1, "ratio": rep.ratios[k], "upper_ratio": rep.upper_ratios[k]}
        for k in range(len(rep.ratios))
    ]
    return results, ("k", "ratio", "upper_ratio"), rows


def _cmd_arcs(config: RunConfig) -> dict:
    e = parse_intervals(config.intervals)
    arcs = ArcSet(e)
    b = capacity_bracket(e, config.degree)
    # a subset of [-1, 1] has capacity at most 1/2, so the estimate may be
    # clipped before the square-root transfer
    return {
        "degree": config.degree,
        "projection_capacity_lower": b.lower,
        "projection_capacity_upper": b.upper,
        "arc_capacity_lower": robinson_capacity(b.lower),
        "arc_capacity_upper": robinson_capacity(min(b.upper, 0.5)),
        "deviation_upper": arc_deviation_upper(arcs, config.degree),
    }


def _random_union(rng) -> IntervalUnion:
    ell = int(rng.randint(2, 5))
    while True:
        pts = np.sort(rng.uniform(-1.0, 1.0, 2 * ell))
        if float(np.min(np.diff(pts))) >= 0.08:
            break
    pts[0], pts[-1] = -1.0, 1.0
    return IntervalUnion(tuple(float(x) for x in pts))


def _verify_fixtures():
    yield "interval", IntervalUnion((-1.0, 1.0))
    for alpha in (0.3, 0.5, 0.6, 0.7):
        yield f"pair-{alpha}", e_alpha(alpha)
    yield "asymmetric-pair", IntervalUnion((-1.0, 0.0, 0.5, 1.0))
    yield "triple", IntervalUnion((-1.0, -0.6, -0.2, 0.2, 0.6, 1.0))
    yield "quad", IntervalUnion((-1.0, -0.65, -0.35, -0.05, 0.25, 0.55, 0.85, 1.0))


def _cmd_verify(config: RunConfig):
    """Check L_n >= 2 (capacity lower bound)^n on the fixture battery plus
    seeded random unions.  The two sides come from independent computations,
    an exchange solve and a closed-form product, so agreement is evidence."""
    tol = config.tol
    sets = list(_verify_fixtures())
    rng = np.random.RandomState(config.seed)
    sets.extend(
        (f"random-{i}", _random_union(rng)) for i in range(config.random_count)
    )
    rows = []
    violations = 0
    worst = math.inf
    for name, e in sets:
        lower = capacity_lower_bound(e)[0]
        for n in range(1, config.n_max + 1):
            dev = minimal_polynomial(e, n).deviation
            floor = 2.0 * lower**n
            rel_slack = (dev - floor) / dev
            if rel_slack < -tol:
                violations += 1
            worst = min(worst, rel_slack)
            rows.append(
                {
                    "fixture": name,
                    "n": n,
                    "deviation": dev,
                    "floor": floor,
                    "rel_slack": rel_slack,
                }
            )
    results = {
        "checks": len(rows),
        "violations": violations,
        "worst_rel_slack": worst,
        "tolerance": tol,
        "all_pass": violations == 0,
        "battery": rows,
    }
    code = EXIT_OK if violations == 0 else EXIT_VIOLATION
    return results, ("fixture", "n", "deviation", "floor", "rel_slack"), rows, code


def run(config: RunConfig):
    """Execute one configured command; returns (report text, exit code)."""
    code = EXIT_OK
    columns = rows = None
    if config.command == "minpoly":
        results = _cmd_minpoly(config)
    elif config.command == "capacity":
        results = _cmd_capacity(config)
    elif config.command == "inverse-image":
        results = _cmd_inverse_image(config)
    elif config.command == "ratio":
        results, columns, rows = _cmd_ratio(config)
    elif config.command == "arcs":
        results = _cmd_arcs(config)
    elif config.command == "verify":
        results, columns, rows, code = _cmd_verify(config)
    else:
        raise InvalidInputError(f"unknown command {config.command!r}")
    if config.output == "csv":
        if columns is not None:
            text = _table_csv(columns, rows)
        else:
            text = _flat_csv(results)
    else:
        text = _envelope(config, results)
    return text, code


# ---------------------------------------------------------------------------
# Argument parsing and entry point.


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chebcap",
        description="Minimal polynomials and capacity bounds on interval unions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, default_output="json"):
        p.add_argument(
            "--output", choices=("json", "csv"), default=default_output,
            help="report format (default %(default)s)",
        )
        p.add_argument("--out", metavar="PATH", help="write the report to a file")

    p = sub.add_parser("minpoly", help="minimal polynomial of one degree")
    p.add_argument("--intervals", required=True, help='e.g. "-1 -0.5; 0.5 1" or JSON')
    p.add_argument("--degree", type=int, required=True)
    common(p)

    p = sub.add_parser("capacity", help="two-sided capacity bracket")
    p.add_argument("--intervals", required=True)
    p.add_argument("--degree", type=int, default=8, help="upper-estimate degree")
    common(p)

    p = sub.add_parser("inverse-image", help="real inverse image of [-1, 1]")
    p.add_argument(
        "--coeffs", required=True,
        help='polynomial coefficients, constant first: "0 -3 0 4" or JSON list',
    )
    common(p)

    p = sub.add_parser("verify", help="deviation-vs-capacity inequality battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", type=int, default=20, dest="random_count",
                   help="number of random unions (default %(default)s)")
    p.add_argument("--nmax", type=int, default=10, dest="n_max",
                   help="largest degree checked (default %(default)s)")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="relative slack tolerance (default %(default)s)")
    common(p)

    p = sub.add_parser("ratio", help="deviation-to-capacity ratio table")
    p.add_argument("--intervals", required=True)
    p.add_argument("--kmax", type=int, default=10, dest="k_max")
    common(p, default_output="csv")

    p = sub.add_parser("arcs", help="bounds on the symmetric arc lift")
    p.add_argument("--intervals", required=True, help="projection inside [-1, 1]")
    p.add_argument("--degree", type=int, default=8, help="arc degree n")
    common(p)

    return ap


def _apply_degree_cap_env() -> None:
    raw = os.environ.get("CHEBCAP_MAX_DEGREE")
    if raw is None:
        return
    try:
        cap = int(raw)
    except ValueError:
        raise InvalidInputError(f"CHEBCAP_MAX_DEGREE must be an integer, got {raw!r}")
    if cap < 1:
        raise InvalidInputError("CHEBCAP_MAX_DEGREE must be positive")
    _chebpoly.DEGREE_CAP = cap


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    known = {f: getattr(args, f, None) for f in (
        "command", "intervals", "coeffs", "degree", "k_max", "n_max",
        "random_count", "seed", "tol", "out",
    )}
    return RunConfig(output=getattr(args, "output", "json"), **known)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = _config_from_args(args)
    default_cap = _chebpoly.DEGREE_CAP
    try:
        _apply_degree_cap_env()
        text, code = run(config)
    except (InvalidInputError, EmptyImageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    finally:
        _chebpoly.DEGREE_CAP = default_cap
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
