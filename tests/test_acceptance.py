"""Acceptance gate: every headline criterion at its stated tolerance.

Each test prints one PASS/FAIL line; the detailed numbers live in the
verdict objects (and in runs/verify-all/summary.json via the CLI).
"""

import math

import numpy as np
import pytest

from nulldust import acceptance as A
from nulldust import compcompact as CC
from nulldust import gowdy
from nulldust import mollify as M


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


@pytest.mark.parametrize("n_nan", [97, 65])
def test_nan_in_a_ladder_member_fails_the_order_check(monkeypatch, n_nan):
    # a NaN residual in one member of the table: no rate is fitted (at n = 65
    # a fit would raise), the order reads nan, and the order check fails
    def ladder_residuals(n):
        return {"torsion": float("nan") if n == n_nan else (0.5 / (n - 1)) ** 4, "shear_in": 0.0}

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


def test_nan_gap_of_the_resonant_control_fails_its_check(monkeypatch):
    # the NaN sits at n = 256 only, so sin_sq_half (read at n = 64) still passes
    exact = CC.resonant_pair

    def resonant_pair(box):
        pair = exact(box)
        wave = pair.f

        def f(n):
            out = np.array(wave(n))
            if n == 256:
                out[7, 9] = float("nan")
            return out

        pair.f = f
        return pair

    monkeypatch.setattr(CC, "resonant_pair", resonant_pair)
    v = A.criterion_compensated()
    assert v.details["checks"]["sin_sq_half"] is True
    assert v.details["checks"]["resonant_defect_persists"] is False
    assert not v.passed
