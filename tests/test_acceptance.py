"""Acceptance gate: every headline criterion at its stated tolerance.

Each test prints one PASS/FAIL line; the detailed numbers live in the
verdict objects (and in runs/verify-all/summary.json via the CLI).
"""

import dataclasses
import math

import numpy as np
import pytest

from nulldust import acceptance as A
from nulldust import compcompact as CC
from nulldust import constraints as C
from nulldust import gowdy
from nulldust import hfapprox as H
from nulldust import measurepipe as MP
from nulldust import mollify as M
from nulldust import odesolve
from nulldust import planewave as pw
from nulldust import ricci4
from nulldust import shellmod as S
from nulldust.errors import NumericalFailure


def _report(v):
    print(f"[{'PASS' if v.passed else 'FAIL'}] {v.name}")
    if not v.passed:
        print("  checks:", v.details["checks"])


def test_criterion_1_oscillation_limit():
    v = A.criterion_burnett()
    _report(v)
    assert v.passed, v.details["checks"]
    assert min(v.details["pairing_slopes"]) >= 0.9
    assert v.details["ricci_error"] <= 1e-6


def test_criterion_2_concentration_limit():
    v = A.criterion_shell_limit()
    _report(v)
    assert v.passed, v.details["checks"]
    assert v.details["jump_error"] <= 1e-3
    assert max(v.details["pairing_errors"]) <= 1e-3


def test_criterion_3_bessel_family():
    v = A.criterion_gowdy()
    _report(v)
    assert v.passed, v.details["checks"]
    assert v.details["observed_order"] >= 3.5
    e = v.details["einstein"]
    assert abs(e["G_tautau"] - e["target_tautau"]) <= 1e-5
    assert abs(e["G_thetatheta"] - e["target_thetatheta"]) <= 1e-5


def test_criterion_4_constraint_solver():
    v = A.criterion_constraints()
    _report(v)
    assert v.passed, v.details["checks"]
    assert v.details["rk4_order"] >= 3.9
    assert v.details["drift"] <= 1e-8
    assert v.details["max_weak_residual"] <= 1e-6


def test_criterion_5_oscillation_absorber():
    v = A.criterion_absorber()
    _report(v)
    assert v.passed, v.details["checks"]
    s = v.details["slopes"]
    assert min(s["gamma"], s["phi"], s["defect"]) >= 0.9
    assert s["control"] <= 0.2
    assert v.details["det_worst"] <= 1e-12


def test_criterion_6_mollification():
    v = A.criterion_mollification()
    _report(v)
    assert v.passed, v.details["checks"]
    assert v.details["phi_slope"] >= 0.9
    assert min(v.details["dsup"]) >= 0.98 * v.details["half_jump"]


def test_criterion_7_measure_pipeline():
    v = A.criterion_pipeline()
    _report(v)
    assert v.passed, v.details["checks"]
    assert v.details["slope"] >= 0.9
    assert v.details["linearity_deviation"] <= 0.01


def test_criterion_8_trapped_surfaces():
    v = A.criterion_trapped()
    _report(v)
    assert v.passed, v.details["checks"]
    assert v.details["disagreements"] == 0
    assert v.details["weak_residual"] <= 1e-6
    assert v.details["control"] >= 0.5 * v.details["pairing"]


def test_criterion_9_frequency_splitting():
    v = A.criterion_compensated()
    _report(v)
    assert v.passed, v.details["checks"]
    assert v.details["partition_defect"] <= 1e-12
    assert v.details["violations"] == 0
    assert v.details["transverse_final_gap"] <= 1e-3
    assert v.details["sin_sq_error"] <= 1e-6


def test_criterion_10_characteristic_pipeline():
    v = A.criterion_char_pipeline()
    _report(v)
    assert v.passed, v.details["checks"]
    assert v.details["trchi_error"] <= 1e-8
    assert v.details["trchb_error"] <= 1e-8
    assert v.details["reconstruction_gap"] <= 1e-12


def kernel_columns_per_solve(monkeypatch):
    """Record each constraints.solve_constraint call as (its dust's atom
    count, the columns each of its rounds hands odesolve._rk4_chunk)."""
    solves = []
    chunk, solve = odesolve._rk4_chunk, C.solve_constraint

    def recorder(phi, *args):
        solves[-1][1].append(phi.shape[0])
        return chunk(phi, *args)

    def recorded(data, *args):
        solves.append((len(data.dust.atoms) if data.dust else 0, []))
        return solve(data, *args)

    monkeypatch.setattr(odesolve, "_rk4_chunk", recorder)
    monkeypatch.setattr(C, "solve_constraint", recorded)
    return solves


def test_criterion_4_solves_march_only_the_angles_their_data_vary_along(monkeypatch):
    solves = kernel_columns_per_solve(monkeypatch)
    assert A.criterion_constraints().passed
    assert len(solves) == 7
    # the glued shell's mass depends on theta1 alone: one column before the
    # atom, one per theta1 line of the 8 x 4 chart after it; each segment's
    # first chunk is 512 steps, sized at the chart's 32 points, and the rest
    # of each, 388 and 588 steps, one chunk at its compact width
    assert [cols for atoms, cols in solves if atoms] == [[1, 1, 8, 8]]
    # no angle at all: the four coarse solves of 50 to 400 steps in one chunk,
    # the two on 2,000 steps in a 512-step chunk and one of the rest
    assert [cols for atoms, cols in solves if not atoms] == [[1]] * 4 + [[1, 1]] * 2


def cone_solves(monkeypatch):
    """The reduced solves of criterion 10: its main march and its ladder."""
    for n1, n in [(64, 513), (32, 65), (32, 97), (32, 129), (32, 193)]:
        A._cone_member(n1, n)


def test_criterion_10_cone_solves_march_one_column(monkeypatch):
    solves = kernel_columns_per_solve(monkeypatch)
    cone_solves(monkeypatch)
    # a first chunk of 2^14 point-steps at the n1 x 4 chart's points, 64 steps
    # at n1 = 64 and 128 at n1 = 32, then one chunk of the rest at one column
    assert solves == [(0, [1, 1]), (0, [1]), (0, [1]), (0, [1]), (0, [1, 1])]


def test_criterion_10_makes_2816_rhs_calls(monkeypatch):
    # four RK4 stages per step: 512 steps of the main march, then the ladder's
    # four members in one lockstep march of its longest member's 192 steps
    # (1,920 more calls, 3,968 in all, with each member marched alone)
    calls = []
    rhs = A.P._rhs

    def counted(*args):
        calls.append(1)
        return rhs(*args)

    monkeypatch.setattr(A.P, "_rhs", counted)
    assert A.criterion_char_pipeline().passed
    assert len(calls) == 4 * 512 + 4 * 192 == 2816


def test_second_density_line_is_refused_before_any_solve(monkeypatch):
    def no_solve(*args):
        raise AssertionError("a constraint was solved before the dust lines were read")

    monkeypatch.setattr(C, "solve_constraint", no_solve)
    for density, match in [((("density", 0.5, None), ("density", 0.7, None)), "more than one density line"),
                           ((("density", -0.5, None),), "density level -0.5 is negative")]:
        for criterion in (A.criterion_constraints, A.criterion_pipeline):
            with pytest.raises(ValueError, match=match):
                criterion(dust=A.GLUED_SHELL + density)


def solution_shapes(monkeypatch):
    """Record the angular shape of every DenseSolution a march hands back."""
    shapes = []
    result = odesolve.NodeTables.result

    def recorded(tables):
        sol = result(tables)
        shapes.append(sol.phi.shape[1:])
        return sol

    monkeypatch.setattr(odesolve.NodeTables, "result", recorded)
    return shapes


# flat data are the same at every angle, and the glued shell's mass and the
# pipeline's strip vary along theta1 alone; the cone's ring varies along
# theta1 too, but its shear is zero, so its solves vary in no angle
SOLUTION_SHAPES = {
    "constraints": [(1, 1)] * 5 + [(8, 1), (1, 1)],
    "mollification": [(8, 1)] * 8,
    "pipeline": [(8, 1)] * 22,
    "char_pipeline": [(1, 1)] * 5,
}


@pytest.mark.parametrize("criterion", list(SOLUTION_SHAPES))
def test_solutions_keep_only_the_angles_their_data_vary_along(monkeypatch, criterion):
    seen = solution_shapes(monkeypatch)
    if criterion == "char_pipeline":
        cone_solves(monkeypatch)
    else:
        assert getattr(A, f"criterion_{criterion}")().passed
    assert seen == SOLUTION_SHAPES[criterion]


@pytest.mark.parametrize("pick", [max, min])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_fold_keeps_a_nan_in_any_place(pick, where):
    values = [0.5, 2.0, 1.0]
    values[where] = float("nan")
    assert math.isnan(A._fold(pick, values))
    assert math.isnan(A._fold(pick, iter(values)))


def test_fold_equals_max_and_min_on_finite_values():
    values = [np.float64(0.5), 2.0, np.float64(2.0), 1.0]
    assert A._fold(max, values) is max(values)
    assert A._fold(min, values) is min(values)


def fails(criterion):
    """The criterion's verdict fails, or the criterion raises a NumericalFailure."""
    try:
        return not criterion().passed
    except NumericalFailure:
        return True


def nan_pairing(monkeypatch, n_lam, at):
    """Make weak_limit_pairings put a NaN at (test function, member) `at` of
    its calls with n_lam members."""
    exact = pw.weak_limit_pairings

    def weak_limit_pairings(family, phis, lam_seq):
        out = exact(family, phis, lam_seq)
        if len(lam_seq) == n_lam:
            out[at] = float("nan")
        return out

    monkeypatch.setattr(pw, "weak_limit_pairings", weak_limit_pairings)


def nan_wave_factor(monkeypatch, member, node):
    """Make the member-th solve_H (from 0) return H' with a NaN at node."""
    exact = pw.solve_H
    calls = []

    def solve_H(profile):
        sol = exact(profile)
        if len(calls) == member:
            sol.dphi[node] = float("nan")
        calls.append(1)
        return sol

    monkeypatch.setattr(pw, "solve_H", solve_H)


@pytest.mark.parametrize("at", [(0, 4), (2, 8), (4, 1)])
def test_nan_pairing_fails_the_oscillation_limit(monkeypatch, at):
    nan_pairing(monkeypatch, 9, at)
    assert fails(A.criterion_burnett)


@pytest.mark.parametrize("member, node", [(3, 2000), (8, -1)])
def test_nan_wave_factor_derivative_fails_the_oscillation_limit(monkeypatch, member, node):
    nan_wave_factor(monkeypatch, member, node)
    assert fails(A.criterion_burnett)


@pytest.mark.parametrize("n_lam, at", [(3, (0, 1)), (3, (0, 2)), (1, (1, 0)), (1, (2, 0))])
def test_nan_pairing_fails_the_concentration_limit(monkeypatch, n_lam, at):
    # members of the energy identity (3 of them), or test functions of the
    # point-value pairing at the finest member (1 member)
    nan_pairing(monkeypatch, n_lam, at)
    assert fails(A.criterion_shell_limit)


@pytest.mark.parametrize("node", [2**16 - 5000, 2**16 + 3, 2**17])
def test_nan_wave_factor_derivative_fails_the_concentration_limit(monkeypatch, node):
    # away from the shell, inside it, and at the last node: none of them is
    # where jump_detect reads H'
    nan_wave_factor(monkeypatch, 0, node)
    assert fails(A.criterion_shell_limit)


def test_nan_in_the_second_limit_fails_the_einstein_checks(monkeypatch):
    exact = gowdy.limit_einstein

    def limit_einstein(amplitude, tau):
        lim = dict(exact(amplitude, tau))
        if tau > 0.0:  # the second of the two limits the criterion folds
            lim["G_tautau"] = lim["max_off_component"] = float("nan")
        return lim

    monkeypatch.setattr(gowdy, "limit_einstein", limit_einstein)
    checks = A.criterion_gowdy().details["checks"]
    assert checks["einstein_tautau"] is False
    assert checks["off_components_vanish"] is False
    assert checks["einstein_thetatheta"] is True


def test_nan_ratio_after_the_first_fails_the_pairing_check(monkeypatch):
    exact = M.pairing_gap
    calls = []

    def pairing_gap(fm, tf, dtf):
        calls.append(1)
        r = dict(exact(fm, tf, dtf))
        if len(calls) == 2:  # m = 1, second test function
            r["ratio"] = float("nan")
        return r

    monkeypatch.setattr(M, "pairing_gap", pairing_gap)
    v = A.criterion_mollification()
    assert v.details["checks"]["pairing_bound_ratios_bounded"] is False
    assert not v.passed


def nan_on_call(monkeypatch, owner, name, call, poison):
    """Make the call-th (from 0) call of owner.name hand its result to poison,
    which puts a NaN in it, before returning it."""
    exact = getattr(owner, name)
    calls = []

    def patched(*args, **kwargs):
        out = exact(*args, **kwargs)
        if len(calls) == call:
            out = poison(out)
        calls.append(1)
        return out

    monkeypatch.setattr(owner, name, patched)
    return calls


def test_nan_weak_residual_after_the_first_fails_the_constraint_check(monkeypatch):
    nan_on_call(monkeypatch, C, "weak_constraint_residual", 3, lambda r: float("nan"))
    v = A.criterion_constraints()
    assert math.isnan(v.details["max_weak_residual"])
    assert v.details["checks"]["weak_residuals_below_1e-6"] is False
    assert not v.passed


def nan_at(index):
    """A poison for nan_on_call: a copy of the array result with a NaN at index."""
    def poison(out):
        out = np.array(out, dtype=float)
        out[index] = float("nan")
        return out
    return poison


@pytest.mark.parametrize("call", [1, 4])
def test_nan_corrector_in_a_later_member_fails_the_absorber(monkeypatch, call):
    # corrector_jet is called once per row block of each member of the family
    # ladder, n = 4..128; the NaN goes into the corrector F_n of member `call`
    # (from 0), n = 8 or 64, in its first block, at a point inside the interval
    n = (4, 8, 16, 32, 64, 128)[call]
    exact, poisoned = H.OscillatoryFamily.corrector_jet, []

    def corrector_jet(fam, *args):
        out = exact(fam, *args)
        if fam.n == n and not poisoned:
            poisoned.append(fam.n)
            out = (nan_at((100, 3, 1))(out[0]), out[1])
        return out

    monkeypatch.setattr(H.OscillatoryFamily, "corrector_jet", corrector_jet)
    assert fails(A.criterion_absorber)
    assert poisoned == [n]


@pytest.mark.parametrize("key, row", [("gap", 2), ("difference", -1)])
def test_nan_weak_check_row_fails_the_pipeline(monkeypatch, key, row):
    def poison(rows):
        rows = [dict(r) for r in rows]
        rows[row][key] = float("nan")
        return rows

    nan_on_call(monkeypatch, MP, "pipeline_weak_check", 0, poison)
    assert fails(A.criterion_pipeline)


@pytest.mark.parametrize("call", [1, 2, 499])
def test_nan_expansion_in_a_later_trial_fails_the_trapped_criterion(monkeypatch, call):
    # trial 1 is trapped, trials 2 and 499 are not: there a NaN read as untrapped
    # would agree with the analytic verdict, so is_trapped must refuse it
    nan_on_call(monkeypatch, S, "trch_jump", call, nan_at((5, 3)))
    assert fails(A.criterion_trapped)


@pytest.mark.parametrize("n_nan", [97, 65])
def test_nan_in_a_ladder_member_fails_the_order_check(monkeypatch, n_nan):
    # a NaN residual in one member of the table: no rate is fitted (at n = 65
    # a fit would raise), the order reads nan, and the order check fails
    def ladder_residuals(sizes):
        return [{"torsion": float("nan") if n == n_nan else (0.5 / (n - 1)) ** 4, "shear_in": 0.0} for n in sizes]

    monkeypatch.setattr(A, "_ladder_residuals", ladder_residuals)
    v = A.criterion_char_pipeline()
    assert math.isnan(v.details["residual_orders"]["torsion"])
    assert v.details["residual_orders"]["shear_in"] is None  # identically satisfied
    assert v.details["checks"]["residual_order_ge_3"] is False
    assert not v.passed


def test_nan_in_one_support_trial_fails_the_support_check(monkeypatch):
    exact = CC.random_strict_parts
    calls = []

    def random_strict_parts(box, c1, rng):
        calls.append(1)
        v1, v2 = exact(box, c1, rng)
        if len(calls) == 50:
            v1[3, 5] = float("nan")
        return v1, v2

    monkeypatch.setattr(CC, "random_strict_parts", random_strict_parts)
    v = A.criterion_compensated()
    assert v.details["violations"] == 1
    assert math.isnan(v.details["min_support_radius"])
    assert v.details["checks"]["support_check_100_trials"] is False
    assert not v.passed


def test_nan_in_the_last_ricci_block_of_a_scan_member_fails_the_order_check(monkeypatch):
    # the scan folds max |Ric| block by block; a NaN in a later block than
    # the first must reach the member's residual, as Python's max(0.0, nan) would not
    exact = ricci4._ricci

    def _ricci(m, diag):
        out = exact(m, diag)
        if m.diag.shape[0] == 241 and np.shares_memory(diag[-1], m.diag[-1]):  # the 240 member's last block
            out[-1, 7, 2, 3] = np.nan
        return out

    monkeypatch.setattr(ricci4, "_ricci", _ricci)
    v = A.criterion_gowdy()
    residuals = v.details["residuals"]
    assert math.isnan(residuals[2])
    assert all(math.isfinite(r) for i, r in enumerate(residuals) if i != 2)
    assert math.isnan(v.details["observed_order"])
    assert v.details["checks"]["fd_order_ge_3.5"] is False
    assert not v.passed


def test_nan_gap_of_the_resonant_control_fails_its_check(monkeypatch):
    # the NaN sits at n = 256 only, so sin_sq_half (read at n = 64) still passes
    exact = CC.resonant_pair

    def resonant_pair(box):
        pair = exact(box)
        on_rows = pair.rows

        def rows(r):
            # the pair on the rows r of the u axis: the NaN sits in f_256 at global row 7, column 9
            block = on_rows(r)
            wave, span = block.f, range(box.shape[0])[r]

            def f(n):
                out = np.array(wave(n))
                if n == 256 and 7 in span:
                    out[span.index(7), 9] = float("nan")
                return out

            return dataclasses.replace(block, f=f)

        pair.rows = rows
        return pair

    monkeypatch.setattr(CC, "resonant_pair", resonant_pair)
    v = A.criterion_compensated()
    assert v.details["checks"]["sin_sq_half"] is True
    assert v.details["checks"]["resonant_defect_persists"] is False
    assert not v.passed
