"""Directional frequency splitting and weak product limits."""

import math

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


def test_constant_goes_low(box):
    low, strict, rest = CC.decompose(np.full(box.shape, 2.5), box, 4.0, "x1")
    assert np.abs(low - 2.5).max() < 1e-13
    assert np.abs(strict).max() + np.abs(rest).max() < 1e-13


def test_single_fast_mode_lands_in_dominant_part(box):
    u, ub = np.broadcast_arrays(*box.sparse_mesh())
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


@pytest.mark.parametrize("shape, c1", [((128, 128), 4.0), ((96, 80), 4.0), ((65, 63), 4.0)])
def test_trial_strict_parts_equal_decomposition(shape, c1):
    # irfftn is not bit-equal to ifftn(...).real, so they are equal to round-off
    box = CC.PeriodicBox(shape)
    parts = CC.random_strict_parts(box, c1, np.random.default_rng(11))
    specs = CC.random_fields(box, np.random.default_rng(11))
    for part, spec, mode in zip(parts, specs, ("x1", "x2")):
        strict = CC.decompose(np.fft.irfftn(spec, s=shape, axes=(0, 1)), box, c1, mode)[1]
        peak = np.abs(strict).max()
        assert peak > 0.0
        assert np.abs(part - strict).max() <= 1e-12 * peak


@pytest.mark.parametrize("shape", [(128, 96), (65, 63)])
def test_trial_spectrum_is_the_transform_of_re_plus_im(shape):
    # random_fields draws S on the band |k1|, |k2| <= h as s[i, j] = S(i - h, j - h)
    box = CC.PeriodicBox(shape)
    spec = CC.random_fields(box, np.random.default_rng(5))[0]
    rng = np.random.default_rng(5)
    h = box.nyquist() // 2
    draw = rng.standard_normal((2 * h + 1,) * 2) + 1j * rng.standard_normal((2 * h + 1,) * 2)
    full = np.zeros(shape, complex)
    k = np.arange(-h, h + 1)
    full[np.ix_(k % shape[0], k % shape[1])] = draw
    z = np.fft.ifftn(full)
    expected = np.fft.fftn(z.real + z.imag)
    assert spec.shape == (shape[0], shape[1] // 2 + 1)
    assert np.abs(spec - expected[:, : shape[1] // 2 + 1]).max() <= 1e-13 * np.abs(expected).max()
    # the k2 = 0 column, the one irfftn folds, is exactly Hermitian
    assert np.array_equal(spec[:, 0], spec[-np.arange(shape[0]), 0].conj())


def test_pairs_equal_their_full_mesh_formulas():
    box = CC.PeriodicBox((64, 48))
    u, ub = np.broadcast_arrays(*box.sparse_mesh())
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


def _support_check_full_lattice(box, c1, v1, v2):
    """support_check as a full complex transform of the product."""
    spec = np.abs(np.fft.fftn(v1 * v2))
    peak = spec.max()
    if peak == 0.0:
        return True, np.inf
    k1, k2 = box.freqs()
    radial = np.sqrt(k1**2 + k2**2)
    carrying = spec > 1e-10 * peak
    ok = not bool((carrying & (radial < c1)).any())
    return ok, float(radial[carrying].min()) if carrying.any() else np.inf


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
    d1 = CC.decompose(f1, box, c1, "x1")[1]
    d2 = CC.decompose(f2, box, c1, "x2")[1]
    ok, min_radius = CC.support_check(box, c1, d1, d2)
    assert ok and min_radius >= c1
    assert (ok, min_radius) == _support_check_full_lattice(box, c1, d1, d2)


def test_support_check_zero_product_trivially_true(box):
    ok, min_radius = CC.support_check(box, 4.0, np.zeros(box.shape), np.zeros(box.shape))
    assert ok and np.isinf(min_radius)


def test_randomized_support_property(box):
    rng = np.random.default_rng(42)
    for _ in range(25):
        d1, d2 = CC.random_strict_parts(box, 4.0, rng)
        ok, min_radius = CC.support_check(box, 4.0, d1, d2)
        assert ok
        assert (ok, min_radius) == _support_check_full_lattice(box, 4.0, d1, d2)


@pytest.mark.parametrize("modes, radius", [
    (((10, 0), (11, 0)), 1.0),            # product mass at (+-1, 0) and (+-21, 0)
    (((0, 10), (0, 11)), 1.0),            # at (0, +-1): k2 < 0 is folded onto k2 > 0
    (((10, 0), (11, -1)), np.sqrt(2.0)),  # at +-(1, -1): stored as (-1, 1)
])
def test_support_check_sees_mass_below_c1(box, modes, radius):
    u, ub = box.sparse_mesh()
    (a1, b1), (a2, b2) = modes
    v1, v2 = np.cos(a1 * u + b1 * ub), np.cos(a2 * u + b2 * ub)
    assert CC.support_check(box, 4.0, v1, v2) == (False, radius)
    assert _support_check_full_lattice(box, 4.0, v1, v2) == (False, radius)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_support_check_fails_a_product_that_is_not_finite(box, bad):
    v1 = np.ones(box.shape)
    v1[3, 5] = bad
    with np.errstate(invalid="ignore"):  # the transform of an inf meets inf - inf
        ok, min_radius = CC.support_check(box, 4.0, v1, np.ones(box.shape))
    assert ok is False and math.isnan(min_radius)


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
    u, ub = box.sparse_mesh()
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
