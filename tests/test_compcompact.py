"""Directional frequency splitting and weak product limits."""

import numpy as np
import pytest

from nulldust import compcompact as CC


@pytest.fixture
def box():
    return CC.PeriodicBox((128, 128))


def test_cutoff_plateau_properties():
    t = np.linspace(-3, 3, 601)
    chi = CC.cutoff_chi(t)
    assert np.all(chi[np.abs(t) <= 1.0] == 1.0)
    assert np.all(chi[np.abs(t) >= 2.0] == 0.0)
    assert np.all((chi >= 0) & (chi <= 1))


def test_partition_exact(box):
    rng = np.random.default_rng(1)
    f = rng.standard_normal(box.shape)
    for mode in ("x1", "x2"):
        parts = CC.decompose(f, box, 6.0, mode)
        assert CC.partition_defect(f, parts) < 1e-12
        assert np.array_equal(CC.strict_part(f, box, 6.0, mode), parts[1])


def test_constant_goes_low(box):
    low, strict, rest = CC.decompose(np.full(box.shape, 2.5), box, 4.0, "x1")
    assert np.abs(low - 2.5).max() < 1e-13
    assert np.abs(strict).max() + np.abs(rest).max() < 1e-13


def test_single_fast_mode_lands_in_dominant_part(box):
    u, ub = box.mesh()
    g = np.sin(40 * ub)  # pure x2 frequency far above the threshold
    _, strict, rest = CC.decompose(g, box, 2.0, "x1")
    assert np.abs(rest - g).max() < 1e-12
    assert np.abs(strict).max() < 1e-13
    _, _, rest2 = CC.decompose(np.sin(40 * u), box, 2.0, "x2")
    assert np.abs(rest2 - np.sin(40 * u)).max() < 1e-12


def test_parseval_and_reconstruction(box):
    rng = np.random.default_rng(3)
    f = rng.standard_normal(box.shape)
    spec = np.fft.fftn(f)
    assert abs(np.sum(f * f) - np.sum(np.abs(spec) ** 2) / f.size) < 1e-9 * np.sum(f * f)
    low, strict, rest = CC.decompose(f, box, 4.0, "x1")
    assert np.abs(f - (low + strict + rest)).max() < 1e-12


def test_strict_mask_supports_disjoint(box):
    _, pass1, _ = CC._masks(box, 3.0, "x1")
    _, pass2, _ = CC._masks(box, 3.0, "x2")
    assert np.abs(pass1 * pass2).max() == 0.0


def test_cached_masks_are_read_only(box):
    masks = CC._masks(box, 3.0, "x1")
    assert all(a is b for a, b in zip(masks, CC._masks(box, 3.0, "x1")))
    for mask in masks:
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 0] = 0.5


@pytest.mark.parametrize("shape, c1", [((128, 128), 4.0)])
def test_trial_strict_parts_equal_decomposition(shape, c1):
    box = CC.PeriodicBox(shape)
    p1, p2 = CC.random_strict_parts(box, c1, np.random.default_rng(11))
    f1, f2 = CC.random_fields(box, np.random.default_rng(11))
    assert np.array_equal(p1, CC.decompose(f1, box, c1, "x1")[1])
    assert np.array_equal(p2, CC.decompose(f2, box, c1, "x2")[1])


def test_pairs_equal_their_full_mesh_formulas():
    box = CC.PeriodicBox((64, 48))
    u, ub = box.mesh()
    n = 5
    transverse = CC.transverse_pair(box)
    assert np.array_equal(transverse.f(n), np.exp(0.3 * np.sin(u) + 0.2 * np.cos(ub)) * np.sin(n * ub))
    assert np.array_equal(transverse.h(n), np.exp(0.25 * np.sin(ub) + 0.2 * np.cos(u)) * np.sin(n * u))
    resonant = CC.resonant_pair(box)
    assert np.array_equal(resonant.f(n), np.sin(n * ub))
    assert np.array_equal(resonant.h(n), np.sin(n * ub))
    strong_weak = CC.strong_weak_pair(box)
    h_inf = 1.0 + 0.5 * np.cos(u)
    assert np.array_equal(strong_weak.f(n), np.exp(0.2 * np.sin(u) + 0.1 * np.cos(ub)))
    assert np.array_equal(strong_weak.h_inf, h_inf)
    assert np.array_equal(strong_weak.h(n), h_inf + np.sin(n * u) * (1.0 + 0.2 * np.cos(ub)))
    for pair in (transverse, resonant, strong_weak):
        assert pair.f(n).shape == pair.h(n).shape == box.shape


def test_threshold_below_nyquist_enforced(box):
    with pytest.raises(ValueError, match="Nyquist"):
        CC.decompose(np.zeros(box.shape), box, 20.0, "x1")
    with pytest.raises(ValueError):
        CC.decompose(np.zeros(box.shape), box, 0.5, "x1")


def test_support_check_explicit_masses():
    box = CC.PeriodicBox((256, 256))
    c1 = 2.0
    kx = int(60 * c1)
    spec1 = np.zeros(box.shape, complex)
    spec2 = np.zeros(box.shape, complex)
    spec1[kx, 1] = spec1[-kx, -1] = 1.0
    spec2[1, kx] = spec2[-1, -kx] = 1.0
    f1 = np.fft.ifftn(spec1).real * box.shape[0] ** 2
    f2 = np.fft.ifftn(spec2).real * box.shape[0] ** 2
    d1 = CC.strict_part(f1, box, c1, "x1")
    d2 = CC.strict_part(f2, box, c1, "x2")
    ok, min_radius = CC.support_check(box, c1, d1, d2)
    assert ok and min_radius >= c1


def test_support_check_zero_product_trivially_true(box):
    d1 = CC.strict_part(np.zeros(box.shape), box, 4.0, "x1")
    d2 = CC.strict_part(np.zeros(box.shape), box, 4.0, "x2")
    ok, min_radius = CC.support_check(box, 4.0, d1, d2)
    assert ok and np.isinf(min_radius)


def test_randomized_support_property(box):
    rng = np.random.default_rng(42)
    for _ in range(25):
        d1, d2 = CC.random_strict_parts(box, 4.0, rng)
        ok, _ = CC.support_check(box, 4.0, d1, d2)
        assert ok


def test_margin_invariant_under_common_translation():
    # a common phase on both spectra is a common translation in real space
    box = CC.PeriodicBox((128, 128))
    rng = np.random.default_rng(8)
    d1, d2 = CC.random_strict_parts(box, 4.0, rng)
    _, m0 = CC.support_check(box, 4.0, d1, d2)
    shift = (5, 11)
    _, m1 = CC.support_check(box, 4.0, np.roll(d1, shift, (0, 1)), np.roll(d2, shift, (0, 1)))
    assert abs(m0 - m1) < 1e-12


@pytest.mark.parametrize("shape", [(16, 16, 8, 8), (64,), (8, 8, 8)])
def test_box_other_than_2d_is_rejected(shape):
    with pytest.raises(ValueError, match="only 2D"):
        CC.PeriodicBox(shape)


def test_weak_product_transverse_and_controls():
    box = CC.PeriodicBox((512, 512))
    u, ub = box.mesh()
    psi = 1.0 + 0.5 * np.cos(u) * np.cos(ub)
    ns = [4, 8, 16, 32, 64]
    res = CC.weak_product_test(CC.transverse_pair(box), psi, ns)
    assert res["product_converges"]
    res_r = CC.weak_product_test(CC.resonant_pair(box), psi, ns)
    assert not res_r["product_converges"]
    assert res_r["expects_defect"]
    pair_sw = CC.strong_weak_pair(box)
    res_sw = CC.weak_product_test(pair_sw, psi, ns)
    assert res_sw["product_converges"]
    # the gaps are measured from the strong-weak limit int f_inf h_inf psi
    target = box.integrate(pair_sw.f_inf * pair_sw.h_inf * psi)
    for pairing, gap in zip(res_sw["pairings"], res_sw["gaps"]):
        assert abs(gap - abs(pairing - target)) < 1e-12


def test_sin_squared_mean():
    box = CC.PeriodicBox((512, 512))
    pair = CC.resonant_pair(box)
    mean = box.integrate(pair.f(37) * pair.h(37)) / (2 * np.pi) ** 2
    assert abs(mean - 0.5) < 1e-6
