"""Command-line interface: report contents, formats, exit codes."""

import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chebcap import arcs as _arcs
from chebcap import cli
from chebcap import chebpoly as _chebpoly
from chebcap.cli import RunConfig, main
from chebcap.errors import ConvergenceError, InvalidInputError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_minpoly_report(capsys):
    code, out, err = run_cli(
        capsys, "minpoly", "--intervals", "-1 1", "--degree", "3"
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["command"] == "minpoly"
    assert doc["inputs"]["degree"] == 3
    assert doc["version"]
    r = doc["results"]
    assert r["deviation"] == pytest.approx(0.25, rel=1e-12)
    assert r["coeffs"] == pytest.approx([0.0, -0.75, 0.0, 1.0], abs=1e-10)
    assert len(r["alternation_points"]) >= 4
    assert r["residual"] <= 1e-10


@pytest.mark.parametrize("degree, noted", [(10, False), (30, False), (40, True)])
def test_minpoly_notes_coefficients_below_their_rounding(capsys, degree, noted):
    # On e_0.6 Horner's rounding bound eps sum |c_i| r^i over the deviation
    # reads 0.20 at n = 30 and 2.5e4 at n = 40: past 1 one line on stderr
    # says the coefficients do not describe M on the set; stdout is the
    # report unchanged and the exit code 0.
    argv = ("minpoly", "--intervals", "-1 -0.6; 0.6 1", "--degree", str(degree))
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    text, _ = cli.run(RunConfig(command="minpoly", intervals="-1 -0.6; 0.6 1", degree=degree))
    capsys.readouterr()
    assert out == text
    if noted:
        assert err.count("\n") == 1 and err.startswith("note: the coefficients' rounding")
    else:
        assert err == ""


def test_capacity_report(capsys):
    code, out, _ = run_cli(
        capsys, "capacity", "--intervals", "-1 -0.6; 0.6 1", "--degree", "8"
    )
    assert code == 0
    r = json.loads(out)["results"]
    assert r["lower"] == pytest.approx(0.4, abs=1e-8)
    assert r["upper"] >= r["lower"] - 1e-12
    assert r["lower_params"]["gamma"][0] == 0.0
    assert r["lower_params"]["gamma"][-1] == pytest.approx(math.pi)


def test_capacity_single_interval_has_no_params(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--intervals", "0 4")
    assert code == 0
    r = json.loads(out)["results"]
    assert r["lower"] == pytest.approx(1.0, abs=1e-12)
    assert r["upper"] == pytest.approx(1.0, abs=1e-10)
    assert r["lower_params"] is None


def test_inverse_image_report(capsys):
    code, out, _ = run_cli(capsys, "inverse-image", "--coeffs", "0 -3 0 4")
    assert code == 0
    r = json.loads(out)["results"]
    assert r["is_real"] is True
    assert r["component_count"] == 1
    assert r["capacity"] == pytest.approx(0.5, rel=1e-12)
    assert r["endpoints"] == pytest.approx([-1.0, 1.0], abs=1e-9)


def test_inverse_image_coeffs_as_a_json_list(capsys):
    _, plain, _ = run_cli(capsys, "inverse-image", "--coeffs", "0 -3 0 4")
    code, listed, _ = run_cli(capsys, "inverse-image", "--coeffs", "[0, -3, 0, 4]")
    assert code == 0
    assert json.loads(listed)["results"] == json.loads(plain)["results"]


@pytest.mark.parametrize("spec", ["[0, true]", '[0, "a"]', "[]", "[0, -3"])
def test_inverse_image_bad_json_coeffs_exit_code(capsys, spec):
    code, out, err = run_cli(capsys, "inverse-image", "--coeffs", spec)
    assert code == cli.EXIT_INVALID == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_inverse_image_not_real(capsys):
    code, out, _ = run_cli(capsys, "inverse-image", "--coeffs", "0 1.5 0 -4 0 2.4")
    assert code == 0
    r = json.loads(out)["results"]
    assert r["is_real"] is False
    assert r["capacity"] is None


def test_ratio_csv_table(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--intervals", "-1 1", "--kmax", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,ratio,upper_ratio"
    assert len(lines) == 6
    for k, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        assert int(cells[0]) == k
        assert float(cells[1]) == pytest.approx(2.0, rel=1e-9)


def test_arcs_report(capsys):
    code, out, _ = run_cli(
        capsys, "arcs", "--intervals", "-1 -0.5; 0.5 1", "--degree", "4"
    )
    assert code == 0
    r = json.loads(out)["results"]
    assert r["arc_capacity_lower"] == pytest.approx(
        math.sqrt(2 * 0.4330127018922193), rel=1e-6
    )
    assert r["arc_capacity_upper"] >= r["arc_capacity_lower"] - 1e-12
    assert r["arc_capacity_upper"] <= 1.0 + 1e-12
    assert r["deviation_upper"] == pytest.approx(1.5, rel=1e-8)


def test_arcs_projection_solve_failure_exits_numerical(capsys, monkeypatch):
    def stalled(e, m):
        raise ConvergenceError("exchange stalled on the projection")

    monkeypatch.setattr(_arcs, "minimal_polynomial", stalled)
    code, out, err = run_cli(
        capsys, "arcs", "--intervals", "-1 -0.5; 0.5 1", "--degree", "4"
    )
    assert code == cli.EXIT_NO_CONVERGENCE == 3
    assert out == ""
    assert "exchange stalled on the projection" in err


@pytest.mark.parametrize("intervals", ["-1 -0.5; 0.5 1", "-0.9 -0.2; 0.1 0.7"],
                         ids=["pair-0.5", "asym"])
def test_arcs_cli_to_degree_96(intervals):
    # The README-style sets through the advertised degree range, through
    # `cli.run`, which `main` wraps with argument parsing and the mapping of
    # errors to exit codes.  On e_0.5, 2^m L_m = 2 (3/4)^(m/2) at even m.
    for n in range(1, 97):
        text, code = cli.run(RunConfig(command="arcs", intervals=intervals, degree=n))
        assert code == cli.EXIT_OK, n
        m = n // 2
        if intervals.startswith("-1 ") and m > 0 and m % 2 == 0:
            got = json.loads(text)["results"]["deviation_upper"]
            assert got == pytest.approx(2.0 * 0.75 ** (m / 2), rel=1e-12), n


def test_verify_battery_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--seed", "3", "--random", "4", "--nmax", "6"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["violations"] == 0
    assert doc["results"]["all_pass"] is True
    for row in doc["results"]["battery"]:
        assert row["rel_slack"] >= -1e-9


def test_verify_exits_on_a_violation(capsys, monkeypatch):
    # A lower bound raised 20% above the certified one breaks L_n >=
    # 2 lower^n: verify exits 1 and still prints the full report.
    lower_bound = cli.capacity_lower_bound
    monkeypatch.setattr(cli, "capacity_lower_bound", lambda e: (1.2 * lower_bound(e)[0], None))
    code, out, err = run_cli(capsys, "verify", "--seed", "0", "--random", "1", "--nmax", "3")
    assert code == cli.EXIT_VIOLATION == 1 and err == ""
    r = json.loads(out)["results"]
    assert r["checks"] == len(r["battery"]) == 27
    assert r["violations"] == sum(row["rel_slack"] < -r["tolerance"] for row in r["battery"]) == 23
    assert r["all_pass"] is False


def test_reports_are_deterministic(capsys):
    argv = ("verify", "--seed", "11", "--random", "3", "--nmax", "5")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_json_keys_sorted(capsys):
    _, out, _ = run_cli(capsys, "minpoly", "--intervals", "-1 1", "--degree", "2")
    top = [ln.split('"')[1] for ln in out.splitlines() if ln.startswith('  "')]
    assert top == sorted(top)


def test_invalid_intervals_exit_code(capsys):
    code, out, err = run_cli(capsys, "minpoly", "--intervals", "bogus", "--degree", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("spec", ['[["a", 1]]', "[[null, 1]]", "[[true, 1]]"])
def test_non_numeric_json_intervals_exit_code(capsys, spec):
    code, out, err = run_cli(capsys, "minpoly", "--intervals", spec, "--degree", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("spec, degree", [("-1e4 1e4", "80"), ("0 1e-5", "100")],
                         ids=["overflow", "underflow"])
def test_deviation_beyond_the_double_range_exits_invalid(capsys, spec, degree):
    # the hull radius to the power n leaves the double range: one error
    # line, not a traceback (exit 1 would read as a verified violation)
    code, out, err = run_cli(capsys, "minpoly", "--intervals", spec, "--degree", degree)
    assert code == cli.EXIT_INVALID == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and f"n = {degree}" in err


def test_coefficients_beyond_the_double_range_exit_invalid(capsys):
    # The solve is fine, but the monomial coefficients on a hull near 1e15
    # overflow: one error line, not an overflow warning or a traceback.
    code, out, err = run_cli(capsys, "minpoly", "--intervals", "1e15 1.0000001e15",
                             "--degree", "30")
    assert code == cli.EXIT_INVALID == 2
    assert out == ""
    assert err == "error: coefficients must be finite\n"


@pytest.mark.parametrize("option", ["--nmax=0", "--random=-3", "--tol=nan", "--tol=inf",
                                    "--tol=-1e-9", "--seed=-1", "--seed=4294967296"])
def test_verify_rejects_bad_numeric_options(capsys, option):
    # a battery of zero checks or a NaN tolerance cannot fail, and its
    # report (inf or nan) is not valid JSON; numpy refuses the seeds
    code, out, err = run_cli(capsys, "verify", "--random", "0", "--nmax", "1", option)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_component_too_narrow_for_the_equilibrium_exits_numerical(capsys):
    # A component one ulp wide leaves the equilibrium measure's midpoint
    # samples at its ends: a numerical failure, not a traceback.
    code, out, err = run_cli(capsys, "minpoly", "--intervals",
                             "-1 -0.6; 0.3 0.3000000000000001; 0.6 1", "--degree", "3")
    assert code == cli.EXIT_NO_CONVERGENCE == 3
    assert out == ""
    assert err.startswith("error: ") and "narrowest component" in err


def test_empty_image_exit_code(capsys):
    code, _, err = run_cli(capsys, "inverse-image", "--coeffs", "5 0 1")
    assert code == 2
    assert "error:" in err


def test_ill_conditioned_image_exit_code(capsys):
    # T_40 in monomial form: its coefficients round to 0.2 of the levels +-1
    t40 = " ".join(format(c, ".17g") for c in np.polynomial.chebyshev.cheb2poly([0] * 40 + [1]))
    code, out, err = run_cli(capsys, "inverse-image", "--coeffs", t40)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "rounding estimate" in err
    assert "exceeds 1e-06" in err


def test_degree_cap_env(capsys, monkeypatch):
    # CHEBCAP_MAX_DEGREE no longer moves the cap, nor fails when malformed.
    for value in ("4", "200", "nope"):
        monkeypatch.setenv("CHEBCAP_MAX_DEGREE", value)
        code, out, err = run_cli(capsys, "minpoly", "--intervals", "-1 1", "--degree", "101")
        assert code == 2 and out == "" and "cap 100" in err, value
        code, out, _ = run_cli(capsys, "minpoly", "--intervals", "-1 1", "--degree", "5")
        assert code == 0, value
        assert json.loads(out)["results"]["degree"] == 5


def test_degree_cap_env_lasts_one_run(capsys, monkeypatch):
    # DEGREE_CAP is a constant: no run, with or without the variable, changes it.
    monkeypatch.setenv("CHEBCAP_MAX_DEGREE", "4")
    code, _, _ = run_cli(capsys, "minpoly", "--intervals", "-1 1", "--degree", "100")
    assert code == 0
    assert _chebpoly.DEGREE_CAP == 100
    monkeypatch.delenv("CHEBCAP_MAX_DEGREE")
    code, _, err = run_cli(capsys, "minpoly", "--intervals", "-1 1", "--degree", "101")
    assert code == 2 and "cap 100" in err
    assert _chebpoly.DEGREE_CAP == 100


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "capacity", "--intervals", "-1 1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "capacity"


def test_unwritable_out_exits_invalid(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        capsys, "capacity", "--intervals", "-1 1", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err and err.count("\n") == 1


def test_config_roundtrip():
    cfg = RunConfig(
        command="ratio", intervals="-1 -0.6; 0.6 1", k_max=8, output="csv"
    )
    assert RunConfig(**cfg.to_inputs()) == cfg


def test_run_refuses_an_unknown_command():
    with pytest.raises(InvalidInputError, match="'bogus'"):
        cli.run(RunConfig(command="bogus"))


def test_json_writer_refuses_what_it_cannot_serialize():
    with pytest.raises(TypeError, match="cannot serialize set"):
        cli._to_json({"results": [1.0, {2.0}]})


def test_flat_csv_fallback(capsys):
    code, out, _ = run_cli(
        capsys, "capacity", "--intervals", "-1 1", "--output", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    keys = {ln.split(",")[0] for ln in lines[1:]}
    assert "lower" in keys and "upper" in keys and "scale" in keys


def test_ratio_readme_pair_to_degree_40(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--intervals", "-1 -0.6; 0.6 1", "--kmax", "40")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 41
    for line in lines[2::2]:
        k, ratio, _ = line.split(",")
        assert int(k) % 2 == 0
        assert float(ratio) == pytest.approx(2.0, rel=1e-9)


def test_readme_examples_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("chebcap ")]
    assert lines
    for line in lines:
        argv = shlex.split(line)[1:]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), line
        if out.startswith("{"):
            assert json.loads(out)["command"] == argv[0], line
        else:
            rows = list(csv.reader(io.StringIO(out)))
            assert len(rows) > 1 and len({len(r) for r in rows}) == 1, line


def test_main_in_one_process_matches_fresh_runs(capsys):
    # main builds its parser once per process; several subcommands, an error
    # among them, run through it in turn print what fresh processes print.
    runs = [
        ("minpoly", "--intervals", "-1 1", "--degree", "3"),
        ("capacity", "--intervals", "-1 -0.6; 0.6 1", "--degree", "8"),
        ("inverse-image", "--coeffs", "0 -3 0 4"),
        ("ratio", "--intervals", "-1 -0.6; 0.6 1", "--kmax", "6"),
        ("arcs", "--intervals", "-1 -0.5; 0.5 1", "--degree", "4"),
        ("minpoly", "--intervals", "bogus", "--degree", "2"),
        ("verify", "--seed", "0", "--random", "2", "--nmax", "4"),
        ("minpoly", "--intervals", "-1 -0.3; 0.2 1", "--degree", "5", "--output", "csv"),
    ]
    in_process = [run_cli(capsys, *argv)[:2] for argv in runs]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for argv, (code, out) in zip(runs, in_process):
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys; from chebcap.cli import main; sys.exit(main())", *argv],
            capture_output=True, text=True, env=env)
        assert (fresh.returncode, fresh.stdout) == (code, out), argv
    assert cli._build_parser() is cli._build_parser()
