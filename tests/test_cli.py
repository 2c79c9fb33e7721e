"""Orchestration: artifacts, determinism, exit codes."""

import argparse
import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from nulldust import acceptance, constraints
from nulldust import compcompact as CC
from nulldust.acceptance import Verdict
from nulldust.cli import _write_csv, build_parser, main


def run_cli(args, tmp_path):
    return main(["--out", str(tmp_path)] + args)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_burnett_run_writes_tables(tmp_path):
    # the default span is the acceptance span: criterion 1 passes
    assert run_cli(["burnett"], tmp_path / "full") == 0
    outdir = tmp_path / "full" / "burnett"
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["workers"] == len(os.sched_getaffinity(0)) >= 1
    summary = json.loads((outdir / "summary.json").read_text())
    assert all(summary["checks"].values())
    rows = read_csv(outdir / "burnett_limit.csv")
    assert rows[0] == ["path", "value"]
    assert len([r for r in rows if r[0].startswith("pairing_slopes.")]) == 5  # one per test function
    # the short span 2..6 is too coarse for the phi = 1 pairing slope (0.70 < 0.9)
    assert run_cli(["burnett", "--lambda-seq", "2..6"], tmp_path / "short") == 1
    summary = json.loads((tmp_path / "short" / "burnett" / "summary.json").read_text())
    assert summary["checks"]["burnett_limit/pairing_slopes_ge_0.9"] is False
    assert summary["details"]["burnett_limit"]["pairing_slopes"][0] < 0.9


def test_burnett_deterministic_output(tmp_path):
    run_cli(["burnett", "--lambda-seq", "2..5"], tmp_path / "a")
    run_cli(["burnett", "--lambda-seq", "2..5"], tmp_path / "b")
    csv_a = (tmp_path / "a" / "burnett" / "burnett_limit.csv").read_bytes()
    csv_b = (tmp_path / "b" / "burnett" / "burnett_limit.csv").read_bytes()
    assert csv_a == csv_b


def test_trapped_verdict(tmp_path):
    code = run_cli(["trapped", "--ustar", "0.5", "--mass", "const:1.2"], tmp_path)
    assert code == 0
    summary = json.loads((tmp_path / "trapped" / "summary.json").read_text())
    assert summary["trapped"] is True
    assert "checks" not in summary
    code = run_cli(["trapped", "--ustar", "0.5", "--mass", "const:1.0"], tmp_path)
    summary = json.loads((tmp_path / "trapped" / "summary.json").read_text())
    assert summary["trapped"] is False


def test_constraints_with_dust_spec(tmp_path):
    code = run_cli(["constraints", "--dust", "atom 0.45 cos:1.0,0.5"], tmp_path)
    assert code == 0
    summary = json.loads((tmp_path / "constraints" / "summary.json").read_text())
    assert summary["checks"]["constraint_solver/weak_residuals_below_1e-6"]


def test_constraints_with_smooth_density(tmp_path):
    # no atoms: the glued solve is one segment with the smooth-dust source
    code = run_cli(["constraints", "--dust", "density 0.8"], tmp_path)
    assert code == 0
    summary = json.loads((tmp_path / "constraints" / "summary.json").read_text())
    assert summary["checks"]["constraint_solver/weak_residuals_below_1e-6"]
    assert summary["details"]["constraint_solver"]["max_weak_residual"] < 1e-9


def test_cc_demo(tmp_path):
    # the demo reports values; criterion 9 owns the checks on them
    code = run_cli(["cc-demo", "--n-seq", "4,8,16,32", "--pair", "resonant"], tmp_path)
    assert code == 0
    summary = json.loads((tmp_path / "cc-demo" / "summary.json").read_text())
    assert "checks" not in summary
    assert summary["partition_defect"] <= 1e-12
    assert summary["product_converges"] != summary["expects_defect"]


def test_cc_demo_grid_and_seed_value(tmp_path):
    code = run_cli(["cc-demo", "--grid", "128", "--seed-value", "3", "--n-seq", "4,8"], tmp_path)
    assert code == 0
    summary = json.loads((tmp_path / "cc-demo" / "summary.json").read_text())
    box = CC.PeriodicBox((128, 128))
    f = np.random.default_rng(3).standard_normal(box.shape)
    assert summary["partition_defect"] == CC.partition_defect(f, CC.decompose(f, box, 4.0, "x1"))


def test_malformed_flag_exits_2_without_artifacts(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nulldust.cli", "--out", str(tmp_path), "trapped", "--ustar", "oops"],
        capture_output=True,
    )
    assert proc.returncode == 2
    assert not (tmp_path / "trapped").exists()


@pytest.mark.parametrize("args", [
    ["burnett", "--lambda-seq", "2..4"],  # the rate fit needs 4 members
    ["measure-pipeline", "--m-seq", "1..2"],
    ["gowdy", "--n-seq", "2,x"],
    ["constraints", "--dust", "atom 0.45 bogus:1"],
    ["measure-pipeline", "--k", "oops"],
    ["constraints", "--dust", "atom 1.5 const:1"],  # outside 0 < ub < 1
    ["hf-approx", "--k", "12.5"],  # criterion 5 takes no flags: these are measure-pipeline's
    ["hf-approx", "--dust", "atom 0.45 cos:1.0,0.5"],
    ["shell-limit", "--lambda-seq", "0"],  # the jump window needs j >= 4
    ["shell-limit", "--lambda-seq", "3,6"],
    ["gowdy", "--n-seq", "0,1,2,3"],  # the rate fit needs n >= 1
    # refused by the criterion or demo itself, before its first write
    ["measure-pipeline", "--dust", "density 0.8"],  # the pipeline needs an atom
    ["shell-limit", "--seed", "cosine"],  # not compactly supported
    ["trapped", "--ustar", "1.5"],
    ["trapped", "--mass", "cos:1,2"],  # negative mass
    ["cc-demo", "--c1", "100"],  # 4 C1 beyond the Nyquist band
    # malformed numbers, refused by the parser: flag numbers must be finite
    ["trapped", "--mass", "const:nan"],
    ["trapped", "--mass", "const:inf"],
    ["trapped", "--mass", "cos:nan,0.1"],
    ["cc-demo", "--c1", "nan"],
    ["measure-pipeline", "--m-seq", "1..4", "--k", "-8"],  # the wavenumber must be > 0
    # refused by criterion 7 before its first solve: every level's mollifier window is checked first
    ["measure-pipeline", "--m-seq", "1..4", "--dust", "atom 0.5 const:1"],  # atom window meets both ends
    ["cc-demo", "--n-seq", "0"],  # the members are frequencies n >= 1
    ["cc-demo", "--n-seq=-3,0"],
    ["cc-demo", "--dim", "4"],  # no such flag: the demo is 2-D
    ["hf-approx", "--m-seq", "1..4"],  # the measure pipeline is its own subcommand
])
def test_bad_list_flag_exits_2_before_any_work(tmp_path, args):
    try:
        code = run_cli(args, tmp_path)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert not (tmp_path / args[0]).exists()


def counted_solves(monkeypatch):
    """Patch constraints.solve_constraint to record each call in the returned list."""
    solves = []
    solve = constraints.solve_constraint

    def counted(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(constraints, "solve_constraint", counted)
    return solves


@pytest.mark.parametrize("m_seq", ["1..4", "0..3"])
def test_pipeline_levels_refused_before_first_solve(tmp_path, capsys, monkeypatch, m_seq):
    # at m = 1 the window of an atom at ub = 0.5 reaches both ends of [0, 1]; m = 0 is no level
    solves = counted_solves(monkeypatch)
    code = run_cli(["measure-pipeline", "--m-seq", m_seq, "--dust", "atom 0.5 const:1"], tmp_path)
    assert code == 2
    assert solves == []
    out = capsys.readouterr()
    assert "PASS" not in out.out and "FAIL" not in out.out
    assert "error:" in out.err
    assert not (tmp_path / "measure-pipeline").exists()


def test_pipeline_refuses_atom_free_dust_before_first_solve(monkeypatch):
    solves = counted_solves(monkeypatch)
    with pytest.raises(ValueError, match="atom"):
        acceptance.criterion_pipeline(dust=(("density", 0.8, None),))
    assert solves == []


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # exp overflows before the metric check sees inf
@pytest.mark.parametrize("amplitude", ["1e3", "1e200"])
def test_overflowing_metric_is_numerical_failure(tmp_path, amplitude):
    code = run_cli(["gowdy", "--amplitude", amplitude], tmp_path)
    assert code == 1
    summary = json.loads((tmp_path / "gowdy" / "summary.json").read_text())
    assert summary["error"]["type"] == "NonFiniteError"
    assert (tmp_path / "gowdy" / "manifest.json").exists()


def test_numerical_failures_share_one_base():
    from nulldust.charpipe import TransportBlowupError
    from nulldust.errors import NonFiniteError, NumericalFailure
    from nulldust.hfapprox import PositivityEscalationError
    from nulldust.odesolve import FocusingError

    for exc in (FocusingError, TransportBlowupError, PositivityEscalationError, NonFiniteError):
        assert issubclass(exc, NumericalFailure)


def test_csv_cells_of_numpy_scalars(tmp_path):
    path = tmp_path / "t.csv"
    _write_csv(path, ["a", "b", "c"], [(np.float64(0.5), np.float32(0.25), 3)])
    assert read_csv(path)[1] == ["0.5", "0.25", "3"]


_PIPELINE_DUST = (("atom", 0.5, ("const", (1.0,))), ("density", 0.8, None))


_SUBCOMMAND_CALLS = [
    (["burnett"], [("criterion_burnett", {})]),
    (["burnett", "--lambda-seq", "3..6", "--seed", "const"],
     [("criterion_burnett", {"lambda_seq": [3, 4, 5, 6], "seed": "const"})]),
    (["shell-limit", "--lambda-seq", "5,7"], [("criterion_shell_limit", {"lambda_seq": [5, 7]})]),
    (["shell-limit", "--lambda-seq", "6..8", "--seed", "cosine"],
     [("criterion_shell_limit", {"lambda_seq": [6, 7, 8], "seed": "cosine"})]),
    (["gowdy", "--n-seq", "10,20,40,80", "--amplitude", "0.5"],
     [("criterion_gowdy", {"n_seq": [10, 20, 40, 80], "amplitude": 0.5})]),
    (["constraints"], [("criterion_constraints", {})]),
    (["constraints", "--dust", "atom 0.3 const:2; density 0.8"],
     [("criterion_constraints", {"dust": (("atom", 0.3, ("const", (2.0,))), ("density", 0.8, None))})]),
    (["hf-approx"], [("criterion_absorber", {})]),
    (["measure-pipeline"], [("criterion_pipeline", {})]),
    (["measure-pipeline", "--m-seq", "1..4"], [("criterion_pipeline", {"m_seq": [1, 2, 3, 4]})]),
    (["measure-pipeline", "--m-seq", "2,4,6,8", "--k", "12.5", "--dust", "atom 0.5 const:1; density 0.8"],
     [("criterion_pipeline", {"m_seq": [2, 4, 6, 8], "k": 12.5, "dust": _PIPELINE_DUST})]),
    (["pipeline"], [("criterion_char_pipeline", {})]),
    (["verify-all"], [(fn.__name__, {}) for fn in acceptance.ALL_CRITERIA]),
    (["measure-pipeline", "--k", "auto"], [("criterion_pipeline", {"k": None})]),
]


def test_one_subcommand_per_criterion():
    # every criterion subcommand is in the table and runs one criterion, and
    # no criterion has two; 6, 8 and 9 run under verify-all only (trapped and
    # cc-demo are demonstrations)
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    runs = {}
    for args, calls in _SUBCOMMAND_CALLS:
        if args[0] != "verify-all":
            assert len(calls) == 1, args
            runs.setdefault(calls[0][0], set()).add(args[0])
    assert all(len(subcommands) == 1 for subcommands in runs.values())
    assert set(commands) == {cmd for cmds in runs.values() for cmd in cmds} | {"verify-all", "trapped", "cc-demo"}
    names = {fn.__name__ for fn in acceptance.ALL_CRITERIA}
    assert names - set(runs) == {"criterion_mollification", "criterion_trapped", "criterion_compensated"}


@pytest.mark.parametrize("args, calls", _SUBCOMMAND_CALLS)
def test_subcommand_runs_its_criteria(tmp_path, monkeypatch, args, calls):
    recorded = []

    def recorder(name):
        def criterion(**kwargs):
            recorded.append((name, kwargs))
            return Verdict(name, False, {"gap": np.float64(0.5), "checks": {"ok": True, "bad": False}})
        return criterion

    names = [fn.__name__ for fn in acceptance.ALL_CRITERIA]
    for name in names:
        monkeypatch.setattr(acceptance, name, recorder(name))
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [getattr(acceptance, name) for name in names])

    assert run_cli(args, tmp_path) == 1
    assert recorded == calls
    outdir = tmp_path / args[0]
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["checks"] == {f"{name}/{c}": ok for name, _ in calls for c, ok in (("ok", True), ("bad", False))}
    assert summary["details"] == {name: {"gap": 0.5, "checks": {"ok": True, "bad": False}} for name, _ in calls}
    verdicts = read_csv(outdir / "verdicts.csv")
    assert verdicts[0] == ["criterion", "passed", "seconds"]
    assert [row[:2] for row in verdicts[1:]] == [[name, "False"] for name, _ in calls]
    assert all(float(row[2]) >= 0.0 for row in verdicts[1:])
    for name, _ in calls:
        assert read_csv(outdir / f"{name}.csv") == [
            ["path", "value"], ["gap", "0.5"], ["checks.ok", "True"], ["checks.bad", "False"],
        ]
