"""Orchestration: artifacts, determinism, exit codes."""

import argparse
import csv
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from nulldust import acceptance, constraints
from nulldust import compcompact as CC
from nulldust import measurepipe as MP
from nulldust import planewave as pw
from nulldust.acceptance import Verdict
from nulldust.cli import _write_csv, build_parser, main
from nulldust.grids import MAX_NODES


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
    assert set(manifest) == {"config", "versions", "wall_seconds"}
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
    # criterion 8: trapped and untrapped shells agree with inf m > 2 (1 - u*),
    # and a shell at that threshold is not trapped
    assert run_cli(["trapped"], tmp_path) == 0
    summary = json.loads((tmp_path / "trapped" / "summary.json").read_text())
    assert summary["checks"]["trapped_surfaces/criterion_matches_analytic_1000"] is True
    assert summary["checks"]["trapped_surfaces/marginal_not_trapped"] is True
    assert summary["details"]["trapped_surfaces"]["disagreements"] == 0


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


def test_compensated_run(tmp_path):
    # criterion 9: the partition is exact and the resonant pair does not converge
    assert run_cli(["compensated"], tmp_path) == 0
    checks = json.loads((tmp_path / "compensated" / "summary.json").read_text())["checks"]
    assert checks["compensated_compactness/partition_exact_1e-12"] is True
    assert checks["compensated_compactness/resonant_defect_persists"] is True


def test_compensated_grid_and_seed_value(tmp_path):
    assert run_cli(["compensated", "--grid", "128", "--seed-value", "3"], tmp_path) == 0
    summary = json.loads((tmp_path / "compensated" / "summary.json").read_text())
    box = CC.PeriodicBox((128, 128))
    f = np.random.default_rng(3).standard_normal(box.shape)
    partition = CC.partition_defect(f, CC.decompose(f, box, 8.0, "x1"))  # the partition's C1 is 8
    assert summary["details"]["compensated_compactness"]["partition_defect"] == partition


def test_malformed_flag_exits_2_without_artifacts(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nulldust.cli", "--out", str(tmp_path), "compensated", "--grid", "oops"],
        capture_output=True,
    )
    assert proc.returncode == 2
    assert not (tmp_path / "compensated").exists()


@pytest.mark.parametrize("args", [
    ["burnett", "--lambda-seq", "2..4"],  # the rate fit needs 4 members
    ["burnett", "--lambda-seq=-2000..-1997"],  # lambda = 2^-j needs j >= 0
    ["measure-pipeline", "--m-seq", "1..2"],
    ["gowdy", "--n-seq", "2,x"],
    ["constraints", "--dust", "atom 0.45 bogus:1"],
    ["measure-pipeline", "--k", "oops"],
    ["constraints", "--dust", "atom 1.5 const:1"],  # outside 0 < ub < 1
    ["constraints", "--dust", "density -0.5"],  # a negative density level
    ["measure-pipeline", "--m-seq", "1..4", "--dust", "atom 0.45 const:1.0;density -0.5"],
    ["constraints", "--dust", "density 0.5;density 0.7"],  # a second density line
    ["constraints", "--dust", "atom 0.45 const:1;atom 0.45 const:2"],  # two atoms at one ub
    ["hf-approx", "--k", "12.5"],  # criterion 5 takes no flags: these are measure-pipeline's
    ["hf-approx", "--dust", "atom 0.45 cos:1.0,0.5"],
    ["shell-limit", "--lambda-seq", "0"],  # the jump window needs j >= 4
    ["shell-limit", "--lambda-seq", "3,6"],
    ["gowdy", "--n-seq", "0,1,2,3"],  # the rate fit needs n >= 1
    # refused by the criterion itself, before its first write
    ["measure-pipeline", "--dust", "density 0.8"],  # the pipeline needs an atom
    ["shell-limit", "--seed", "cosine"],  # not compactly supported
    ["trapped", "--ustar", "1.5"],  # criterion 8 takes no flags: its shells are its own
    ["trapped", "--mass", "cos:1,2"],
    ["compensated", "--grid", "32"],  # the partition's 4 C1 = 32 beyond the Nyquist band 16
    # malformed numbers, refused by the parser: flag numbers must be finite
    ["constraints", "--dust", "atom 0.45 const:nan"],
    ["constraints", "--dust", "atom 0.45 const:inf"],
    ["constraints", "--dust", "atom 0.45 cos:nan,0.1"],
    ["compensated", "--grid", "2.5"],  # the box side is an integer
    ["compensated", "--seed-value", "x"],
    ["measure-pipeline", "--m-seq", "1..4", "--k", "-8"],  # the wavenumber must be > 0
    # refused by criterion 7 before its first solve: every level's mollifier window is checked first
    ["measure-pipeline", "--m-seq", "1..4", "--dust", "atom 0.5 const:1"],  # atom window meets both ends
    ["cc-demo"],  # gone, with no alias: compensated runs criterion 9
    ["compensated", "--c1", "2"],  # no such flag: criterion 9 fixes its thresholds C1
    ["compensated", "--n-seq", "4,8"],  # no such flag: criterion 9 fixes its frequencies
    ["hf-approx", "--m-seq", "1..4"],  # the measure pipeline is its own subcommand
    ["mollification", "--m-seq", "1..4"],  # criterion 6 takes no flags
    ["compensated", "--pair", "resonant"],  # criterion 9 runs all three pairs
    ["compensated", "--grid", "0"],  # an empty box
])
def test_bad_list_flag_exits_2_before_any_work(tmp_path, args):
    try:
        code = run_cli(args, tmp_path)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert not (tmp_path / args[0]).exists()


def counted_calls(monkeypatch, module, name):
    """Patch module.name to record each call in the returned list."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("m_seq", ["1..4", "0..3"])
def test_pipeline_levels_refused_before_first_solve(tmp_path, capsys, monkeypatch, m_seq):
    # at m = 1 the window of an atom at ub = 0.5 reaches both ends of [0, 1]; m = 0 is no level
    solves = counted_calls(monkeypatch, constraints, "solve_constraint")
    code = run_cli(["measure-pipeline", "--m-seq", m_seq, "--dust", "atom 0.5 const:1"], tmp_path)
    assert code == 2
    assert solves == []
    out = capsys.readouterr()
    assert "PASS" not in out.out and "FAIL" not in out.out
    assert "error:" in out.err
    assert not (tmp_path / "measure-pipeline").exists()


@pytest.mark.parametrize("m_seq, level", [("1000..1003", "m=1000"), ("200..203", "m=200")])
def test_pipeline_level_lost_in_rounding_is_refused_before_any_work(tmp_path, capsys, monkeypatch, m_seq, level):
    # eps = 2^-2000 underflows to 0.0; at m = 200 the kernel support 0.45 +- 2 eps rounds to 0.45
    solves = counted_calls(monkeypatch, constraints, "solve_constraint")
    code = run_cli(["measure-pipeline", "--m-seq", m_seq], tmp_path)
    assert code == 2
    assert solves == []
    err = capsys.readouterr().err
    assert level in err
    assert "Traceback" not in err
    assert not (tmp_path / "measure-pipeline").exists()


_REFUSALS = {  # the last flag value -> what the refusal names
    "30..33": "lambda_seq j=30 (lambda=2^-30): the member grid on [0, 0.5] would take 2^(j+5)+1 nodes",
    "1e300": "k=1e+300 at level m=1",
    "2,3,4,40": "lambda_seq j=40 (lambda=2^-40)",
    "100000..100003": "lambda_seq j=100000 (lambda=2^-100000)",
    "4096": "grid=4096: the box side must lie in 64..2048",
}


@pytest.mark.parametrize("args", [
    ["burnett", "--lambda-seq", "30..33"],  # 2^35 + 1 nodes, 256 GiB of them
    ["measure-pipeline", "--k", "1e300"],  # a resolving grid of about 1e302 nodes
    ["burnett", "--lambda-seq", "2,3,4,40"],  # refused before the j = 2 member is built
    ["burnett", "--lambda-seq", "100000..100003"],  # 2^j is never built: a 30,000-digit node count
    ["compensated", "--grid", "4096"],  # a box of 2^24 nodes
])
def test_oversized_grid_is_refused_before_allocation(tmp_path, capsys, monkeypatch, args):
    solves = counted_calls(monkeypatch, constraints, "solve_constraint")
    members = counted_calls(monkeypatch, pw, "make_burnett_G")
    tracemalloc.start()
    try:
        code = run_cli(args, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 64 * 2**20
    err = capsys.readouterr().err
    assert f"ceiling of {MAX_NODES} nodes" in err
    assert _REFUSALS[args[-1]] in err
    assert "Traceback" not in err
    assert not (tmp_path / args[0]).exists()
    assert solves == [] and members == []  # refused before the first solve and the first member


def test_zero_last_level_pairing_fails_the_linearity_check(tmp_path, monkeypatch):
    # the shear difference of the last level read as 0.0: the doubled measure's
    # has no ratio to it, so the linearity check fails instead of dividing by zero
    check = MP.pipeline_weak_check

    def zero_last_difference(*args):
        rows = [dict(r) for r in check(*args)]
        rows[-1]["difference"] = 0.0
        return rows

    monkeypatch.setattr(MP, "pipeline_weak_check", zero_last_difference)
    v = acceptance.criterion_pipeline(m_seq=(1, 2, 3, 4))
    assert not v.passed
    assert v.details["linearity_deviation"] == float("inf")
    assert v.details["checks"]["linearity_within_1pc"] is False
    assert run_cli(["measure-pipeline", "--m-seq", "1..4"], tmp_path) == 1
    summary = json.load(open(tmp_path / "measure-pipeline" / "summary.json"))
    assert summary["checks"]["measure_pipeline/linearity_within_1pc"] is False
    assert "error" not in summary


def test_pipeline_refuses_atom_free_dust_before_first_solve(monkeypatch):
    solves = counted_calls(monkeypatch, constraints, "solve_constraint")
    with pytest.raises(ValueError, match="atom"):
        acceptance.criterion_pipeline(dust=(("density", 0.8, None),))
    assert solves == []


def test_unknown_mass_profile_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["constraints", "--dust", "atom 0.45 sphere:1"], tmp_path)
    assert exc.value.code == 2
    assert not (tmp_path / "constraints").exists()


def test_env_var_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("NULLDUST_OUT", str(tmp_path / "envroot"))
    code = main(["trapped"])
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


# at 60 only the limit metric overflows, at 1e3 and 1e200 the family's too; no
# numpy overflow warning may escape, since pytest turns one into an error
@pytest.mark.parametrize("amplitude", ["60", "1e3", "1e200"])
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
    (["trapped"], [("criterion_trapped", {})]),
    (["mollification"], [("criterion_mollification", {})]),
    (["compensated"], [("criterion_compensated", {})]),
    (["compensated", "--grid", "128", "--seed-value", "3"],
     [("criterion_compensated", {"grid": 128, "seed_value": 3})]),
]


def test_one_subcommand_per_criterion():
    # every subcommand but verify-all is in the table and runs one criterion,
    # and every criterion has exactly one subcommand
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    runs = {}
    for args, calls in _SUBCOMMAND_CALLS:
        if args[0] != "verify-all":
            assert len(calls) == 1, args
            runs.setdefault(calls[0][0], set()).add(args[0])
    assert all(len(subcommands) == 1 for subcommands in runs.values())
    assert set(commands) == {cmd for cmds in runs.values() for cmd in cmds} | {"verify-all"}
    assert set(runs) == {fn.__name__ for fn in acceptance.ALL_CRITERIA}


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
