"""Orchestration: artifacts, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from nulldust.cli import main


def run_cli(args, tmp_path):
    return main(["--out", str(tmp_path)] + args)


def test_burnett_run_writes_tables(tmp_path):
    code = run_cli(["burnett", "--lambda-seq", "2..6"], tmp_path)
    assert code == 0
    outdir = tmp_path / "burnett"
    assert (outdir / "manifest.json").exists()
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["checks"]["slope_ge_0.9"]
    rows = (outdir / "pairings.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 5  # header plus one row per member


def test_burnett_deterministic_output(tmp_path):
    run_cli(["burnett", "--lambda-seq", "2..5"], tmp_path / "a")
    run_cli(["burnett", "--lambda-seq", "2..5"], tmp_path / "b")
    csv_a = (tmp_path / "a" / "burnett" / "pairings.csv").read_bytes()
    csv_b = (tmp_path / "b" / "burnett" / "pairings.csv").read_bytes()
    assert csv_a == csv_b


def test_trapped_verdict(tmp_path):
    code = run_cli(["trapped", "--ustar", "0.5", "--mass", "const:1.2"], tmp_path)
    assert code == 0
    summary = json.loads((tmp_path / "trapped" / "summary.json").read_text())
    assert summary["trapped"] is True
    code = run_cli(["trapped", "--ustar", "0.5", "--mass", "const:1.0"], tmp_path)
    summary = json.loads((tmp_path / "trapped" / "summary.json").read_text())
    assert summary["trapped"] is False


def test_constraints_with_dust_spec(tmp_path):
    code = run_cli(["constraints", "--dust", "atom 0.45 cos:1.0,0.5"], tmp_path)
    assert code == 0
    summary = json.loads((tmp_path / "constraints" / "summary.json").read_text())
    assert summary["checks"]["weak_residuals"]


def test_cc_demo(tmp_path):
    code = run_cli(["cc-demo", "--n-seq", "4,8,16,32", "--pair", "resonant"], tmp_path)
    assert code == 0
    summary = json.loads((tmp_path / "cc-demo" / "summary.json").read_text())
    assert summary["checks"]["partition_exact"]
    assert summary["checks"]["verdict_as_expected"]


def test_malformed_flag_exits_2_without_artifacts(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nulldust.cli", "--out", str(tmp_path), "trapped", "--ustar", "oops"],
        capture_output=True,
    )
    assert proc.returncode == 2
    assert not (tmp_path / "trapped").exists()


@pytest.mark.parametrize("args", [
    ["burnett", "--lambda-seq", "2..4"],  # the rate fit needs 4 members
    ["hf-approx", "--m-seq", "1..2"],
    ["gowdy", "--n-seq", "2,x"],
    ["constraints", "--dust", "atom 0.45 bogus:1"],
    ["hf-approx", "--k", "oops"],
])
def test_bad_list_flag_exits_2_before_any_work(tmp_path, args):
    try:
        code = run_cli(args, tmp_path)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert not (tmp_path / args[0]).exists()


def test_unknown_mass_profile_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["trapped", "--mass", "sphere:1"], tmp_path)
    assert exc.value.code == 2
    assert not (tmp_path / "trapped").exists()


def test_env_var_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("NULLDUST_OUT", str(tmp_path / "envroot"))
    code = main(["trapped", "--ustar", "0.5", "--mass", "const:1.2"])
    assert code == 0
    assert (tmp_path / "envroot" / "trapped" / "summary.json").exists()


def test_numerical_failure_writes_error_and_exits_1(tmp_path):
    # an atom of mass 50 drives the conformal factor to zero near ub = 0.494
    code = run_cli(["constraints", "--dust", "atom 0.45 const:50"], tmp_path)
    assert code == 1
    summary = json.loads((tmp_path / "constraints" / "summary.json").read_text())
    assert summary["error"]["type"] == "FocusingError"
    assert "nonpositive" in summary["error"]["message"]
    assert abs(summary["error"]["location"][0] - 0.494) < 0.01
    assert (tmp_path / "constraints" / "manifest.json").exists()


def test_numerical_failures_share_one_base():
    from nulldust.charpipe import TransportBlowupError
    from nulldust.errors import NumericalFailure
    from nulldust.geometry import CurvatureConsistencyError
    from nulldust.hfapprox import PositivityEscalationError
    from nulldust.odesolve import FocusingError

    for exc in (FocusingError, TransportBlowupError, CurvatureConsistencyError, PositivityEscalationError):
        assert issubclass(exc, NumericalFailure)
