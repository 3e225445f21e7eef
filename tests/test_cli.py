"""Command-line interface: report contents, formats, exit codes."""

import json
import math

import pytest

from chebcap import arcs as _arcs
from chebcap import cli
from chebcap import chebpoly as _chebpoly
from chebcap import remez as _remez
from chebcap.cli import RunConfig, main


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


def test_arcs_lift_disagreement_exits_numerical(capsys, monkeypatch):
    true_sup = _arcs.arc_sup_norm
    monkeypatch.setattr(_arcs, "arc_sup_norm", lambda p, a: 1.5 * true_sup(p, a))
    code, out, err = run_cli(
        capsys, "arcs", "--intervals", "-1 -0.5; 0.5 1", "--degree", "4"
    )
    assert code == cli.EXIT_NO_CONVERGENCE == 3
    assert out == ""
    assert "lift sup-norm" in err


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


def test_empty_image_exit_code(capsys):
    code, _, err = run_cli(capsys, "inverse-image", "--coeffs", "5 0 1")
    assert code == 2
    assert "error:" in err


def test_degree_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("CHEBCAP_MAX_DEGREE", "4")
    try:
        code, _, err = run_cli(
            capsys, "minpoly", "--intervals", "-1 1", "--degree", "9"
        )
        assert code == 2 and "error:" in err
        code, out, _ = run_cli(
            capsys, "minpoly", "--intervals", "-1 1", "--degree", "3"
        )
        assert code == 0
        monkeypatch.setenv("CHEBCAP_MAX_DEGREE", "nope")
        code, _, err = run_cli(
            capsys, "minpoly", "--intervals", "-1 1", "--degree", "2"
        )
        assert code == 2 and "CHEBCAP_MAX_DEGREE" in err
    finally:
        _chebpoly.DEGREE_CAP = 100
        _remez.DEGREE_CAP = 100


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "capacity", "--intervals", "-1 1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "capacity"


def test_config_roundtrip():
    cfg = RunConfig(
        command="ratio", intervals="-1 -0.6; 0.6 1", k_max=8, output="csv"
    )
    again = RunConfig.from_inputs(cfg.to_inputs())
    assert again == cfg


def test_flat_csv_fallback(capsys):
    code, out, _ = run_cli(
        capsys, "capacity", "--intervals", "-1 1", "--output", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    keys = {ln.split(",")[0] for ln in lines[1:]}
    assert "lower" in keys and "upper" in keys and "scale" in keys


def test_degree_cap_env_lasts_one_run(capsys, monkeypatch):
    monkeypatch.setenv("CHEBCAP_MAX_DEGREE", "4")
    code, _, err = run_cli(capsys, "minpoly", "--intervals", "-1 1", "--degree", "5")
    assert code == 2 and "error:" in err
    monkeypatch.delenv("CHEBCAP_MAX_DEGREE")
    code, out, _ = run_cli(capsys, "minpoly", "--intervals", "-1 1", "--degree", "5")
    assert code == 0
    assert json.loads(out)["results"]["degree"] == 5
    assert _chebpoly.DEGREE_CAP == 100


def test_ratio_readme_pair_to_degree_40(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--intervals", "-1 -0.6; 0.6 1", "--kmax", "40")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 41
    for line in lines[2::2]:
        k, ratio, _ = line.split(",")
        assert int(k) % 2 == 0
        assert float(ratio) == pytest.approx(2.0, rel=1e-9)
