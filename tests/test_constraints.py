"""Hypersurface constraint: strong solves, glued shells, weak residuals."""

import dataclasses

import numpy as np
import pytest

from nulldust import constraints as C
from nulldust.fields import sym2_entries, sym2_inverse, sym2_pack
from nulldust.grids import AngularGrid, Grid1D
from nulldust.odesolve import FocusingError
from nulldust.rates import fit_rate
from nulldust.testfunctions import bump_dictionary


@pytest.fixture
def chart():
    return AngularGrid(8, 4)


@pytest.fixture
def ring(chart):
    g = np.zeros((2, 2) + chart.shape)
    g[0, 0] = g[1, 1] = 1.0
    return g


def const_maps(chart):
    one = lambda ub: np.ones((len(np.atleast_1d(ub)),) + chart.shape)
    zero = lambda ub: np.zeros((len(np.atleast_1d(ub)),) + chart.shape)
    return one, zero


def chi_from_data(data, solution, ub, identity_tol=1e-10):
    """Oracle: outgoing expansion and shear on the slice at ub, from the free data.

    chi = (2 Omega)^-1 d/dub (Phi^2 gamma_hat); returns (trchi, chihat, chi).
    The normalization det gamma_hat = det gamma_ring forces
    trchi = 2 dPhi / (Omega Phi), asserted against the trace.
    """
    ub_arr = np.array([float(ub)])
    om = np.asarray(data.omega(ub_arr))[0]
    phi = np.asarray(solution(ub_arr))[0]
    dphi = np.asarray(solution.deriv(ub_arr))[0]
    gh, dgh = (sym2_pack(*fn(ub_arr))[:, :, 0] for fn in (data.entries, data.dentries))
    gamma = phi**2 * gh
    chi = (2.0 * phi * dphi / (2.0 * om)) * gh + (phi**2 / (2.0 * om)) * dgh
    trchi = np.einsum("ab...,ab...->...", sym2_inverse(gamma), chi)
    forced = 2.0 * dphi / (om * phi)
    gap = np.abs(trchi - forced).max()
    if gap > identity_tol * (1.0 + np.abs(forced).max()):
        raise AssertionError(f"trace identity violated by {gap:.3e}")
    chihat = chi - 0.5 * trchi * gamma
    return trchi, chihat, chi


def diag_exp_metric(chart, rate=2.0):
    """Entry maps of gamma_hat = diag(e^{rate ub}, e^{-rate ub}) and their derivatives."""
    def gh(ub):
        u = np.atleast_1d(np.asarray(ub, float))[:, None, None] * np.ones(chart.shape)
        return np.exp(rate * u), np.zeros_like(u), np.exp(-rate * u)

    def dgh(ub):
        a, b, d = gh(ub)
        return rate * a, b, -rate * d

    return gh, dgh


def test_norm_square_constant_metric(chart, ring):
    zero = np.zeros(chart.shape)
    assert np.abs(C.dgamma_norm_sq(sym2_entries(ring), (zero, zero, zero))).max() == 0.0


def test_norm_square_diagonal_oracle(chart):
    # gamma = diag(e^s, e^-s) gives 2 s'^2
    gh, dgh = diag_exp_metric(chart, rate=1.3)
    val = C.dgamma_norm_sq(gh(0.4), dgh(0.4))
    assert np.abs(val - 2.0 * 1.3**2).max() < 1e-12


def test_norm_square_rotation_invariant(chart):
    rng = np.random.default_rng(2)
    g = np.zeros((2, 2) + chart.shape)
    g[0, 0], g[1, 1] = 1.4, 0.9
    g[0, 1] = g[1, 0] = 0.2
    M = rng.standard_normal((2, 2) + chart.shape)
    M = M + np.swapaxes(M, 0, 1)
    c, s = np.cos(0.6), np.sin(0.6)
    R = np.array([[c, -s], [s, c]])
    gr = np.einsum("ca,db,cd...->ab...", R, R, g)
    Mr = np.einsum("ca,db,cd...->ab...", R, R, M)
    rotated = C.dgamma_norm_sq(sym2_entries(gr), sym2_entries(Mr))
    assert np.abs(rotated - C.dgamma_norm_sq(sym2_entries(g), sym2_entries(M))).max() < 1e-12


def test_norm_square_matrix_oracle(chart):
    # random SPD g with nonzero off-diagonal entry against trace(g^-1 M g^-1 M)
    rng = np.random.default_rng(11)
    L = rng.standard_normal(chart.shape + (2, 2))
    g = L @ np.swapaxes(L, -1, -2) + 0.2 * np.eye(2)
    M = rng.standard_normal(chart.shape + (2, 2))
    M = M + np.swapaxes(M, -1, -2)
    assert np.all(g[..., 0, 1] != 0.0)
    inv = np.linalg.inv(g)
    oracle = np.trace(inv @ M @ inv @ M, axis1=-2, axis2=-1)
    slots_first = lambda x: np.moveaxis(x, (-2, -1), (0, 1))  # the layout sym2_entries reads
    val = C.dgamma_norm_sq(sym2_entries(slots_first(g)), sym2_entries(slots_first(M)))
    assert np.abs(val - oracle).max() < 1e-12 * np.abs(oracle).max()


def test_norm_square_rejects_indefinite_metric(chart):
    # g = diag(1, -1), M = [[0, 1], [1, 0]]: trace((g^-1 M)^2) = -2
    one, zero = np.ones(chart.shape), np.zeros(chart.shape)
    with pytest.raises(ValueError, match="negative"):
        C.dgamma_norm_sq((one, zero, -one), (zero, one, zero))


def test_sym2_pack_packs_the_entries(chart, ring):
    t1, t2 = chart.mesh()

    def ent(ub):
        u = np.asarray(ub, float)[:, None, None]
        a = np.exp(u) * (1.0 + 0.2 * np.cos(t1))
        b = 0.3 * np.sin(u + t2)
        return a, b, (1.0 + b * b) / a  # unit determinant

    def dent(ub):
        a, b, d = ent(ub)
        return 2.0 * a, -b, 3.0 * d

    one, zero = const_maps(chart)
    data = C.ReducedCharData(Grid1D(0.0, 1.0, 11), chart, ring, one, zero, ent, dent)
    for fn in (data.entries, data.dentries):
        a, b, d = fn(np.array([0.37]))
        assert np.array_equal(sym2_pack(a, b, d), np.stack([np.stack([a, b]), np.stack([b, d])]))


def test_vacuum_cosine_oracle(chart, ring):
    gh, dgh = diag_exp_metric(chart)  # |dgam|^2 = 8 -> Phi'' = -Phi
    one, zero = const_maps(chart)
    grid = Grid1D(0.0, 1.0, 401)
    data = C.ReducedCharData(grid, chart, ring, one, zero, gh, dgh)
    sol = C.solve_constraint(data, 1.0, 0.0)
    assert np.abs(sol.phi[:, 0, 0] - np.cos(grid.points())).max() < 1e-11


def test_vacuum_affine_for_constant_metric(chart, ring):
    one, zero = const_maps(chart)
    grid = Grid1D(0.0, 1.0, 101)
    data = C.ReducedCharData(grid, chart, ring, one, zero, *C.ring_entries(ring))
    sol = C.solve_constraint(data, 1.0, 0.3)
    assert np.abs(sol.phi[:, 0, 0] - (1.0 + 0.3 * grid.points())).max() < 1e-13


def test_rk4_order_against_cosine(chart, ring):
    gh, dgh = diag_exp_metric(chart)
    one, zero = const_maps(chart)
    errs, hs = [], []
    for n in (51, 101, 201, 401):
        grid = Grid1D(0.0, 1.0, n)
        data = C.ReducedCharData(grid, chart, ring, one, zero, gh, dgh)
        sol = C.solve_constraint(data, 1.0, 0.0)
        errs.append(np.abs(sol.phi[:, 0, 0] - np.cos(grid.points())).max())
        hs.append(grid.h)
    assert fit_rate(hs, errs) >= 3.9


def test_point_locality_bitwise(chart, ring):
    # solving on an angular sub-grid equals the restriction of the full solve
    gh, dgh = diag_exp_metric(chart)
    one, zero = const_maps(chart)
    grid = Grid1D(0.0, 1.0, 101)
    data = C.ReducedCharData(grid, chart, ring, one, zero, gh, dgh)
    t1, _ = chart.mesh()
    phi0 = 1.0 + 0.1 * np.cos(t1)
    full = C.solve_constraint(data, phi0, 0.0)
    sub_chart = AngularGrid(4, 4)
    sub_ring = np.zeros((2, 2) + sub_chart.shape)
    sub_ring[0, 0] = sub_ring[1, 1] = 1.0
    one_s, zero_s = const_maps(sub_chart)
    gh_s, dgh_s = diag_exp_metric(sub_chart)
    data_s = C.ReducedCharData(grid, sub_chart, sub_ring, one_s, zero_s, gh_s, dgh_s)
    sub = C.solve_constraint(data_s, phi0[::2], 0.0)
    assert np.array_equal(sub.phi, full.phi[:, ::2])


def with_density(data, density):
    """data carrying the smooth dust density f and no atoms."""
    return dataclasses.replace(data, dust=C.NullDustMeasure(density=density))


def test_dust_zero_density_matches_vacuum(chart, ring):
    gh, dgh = diag_exp_metric(chart)
    one, zero = const_maps(chart)
    grid = Grid1D(0.0, 1.0, 201)
    data = C.ReducedCharData(grid, chart, ring, one, zero, gh, dgh)
    vac = C.solve_constraint(data, 1.0, 0.0)
    dust = C.solve_constraint(with_density(data, lambda ub: np.zeros((len(ub),) + chart.shape)), 1.0, 0.0)
    assert np.array_equal(vac.phi, dust.phi)


def test_dust_first_integral(chart, ring):
    one, zero = const_maps(chart)
    grid = Grid1D(0.0, 1.0, 2001)
    cval = 0.8
    data = C.ReducedCharData(grid, chart, ring, one, zero, *C.ring_entries(ring))
    sol = C.solve_constraint(with_density(data, lambda ub: np.full((len(ub),) + chart.shape, cval)), 1.0, 0.0)
    energy = 0.5 * sol.dphi[:, 0, 0] ** 2 + 0.5 * cval * np.log(sol.phi[:, 0, 0])
    assert np.abs(energy - energy[0]).max() < 1e-8


def test_dust_comparison_monotone(chart, ring):
    one, zero = const_maps(chart)
    grid = Grid1D(0.0, 1.0, 401)
    data = C.ReducedCharData(grid, chart, ring, one, zero, *C.ring_entries(ring))
    lo = C.solve_constraint(with_density(data, lambda ub: np.full((len(ub),) + chart.shape, 0.4)), 1.0, 0.0)
    hi = C.solve_constraint(with_density(data, lambda ub: np.full((len(ub),) + chart.shape, 0.9)), 1.0, 0.0)
    assert np.all(hi.phi <= lo.phi + 1e-14)


def test_focusing_error_location(chart, ring):
    one, zero = const_maps(chart)
    grid = Grid1D(0.0, 4.0, 801)
    gh, dgh = diag_exp_metric(chart)  # Phi = cos(ub): zero at pi/2
    data = C.ReducedCharData(grid, chart, ring, one, zero, gh, dgh)
    with pytest.raises(FocusingError) as err:
        C.solve_constraint(data, 1.0, 0.0)
    assert abs(err.value.location[0] - np.pi / 2) < 0.05


def shell_data(chart, ring, grid, mass_scale=1.0):
    one, zero = const_maps(chart)
    t1, _ = chart.mesh()
    m_theta = mass_scale * (1.0 + 0.5 * np.cos(2.0 * np.pi * t1 / chart.L1))
    dust = C.NullDustMeasure(atoms=[(0.45, m_theta)])
    return C.ReducedCharData(grid, chart, ring, one, zero, *C.ring_entries(ring),
                             dust=dust), m_theta


def test_glued_shell_jump_value(chart, ring):
    grid = Grid1D(0.0, 1.0, 513)
    data, m_theta = shell_data(chart, ring, grid)
    sol = C.solve_constraint(data, 1.0, 0.1)
    loc, jump = sol.deriv_jumps()[0]
    assert loc == 0.45
    phi_at = sol(np.array([0.45]))[0]
    assert np.abs(jump + 0.5 * m_theta / phi_at).max() < 1e-12


def test_weak_residual_vacuum_strong_solution(chart, ring):
    gh, dgh = diag_exp_metric(chart, rate=1.1)
    one, zero = const_maps(chart)
    grid = Grid1D(0.0, 1.0, 513)
    data = C.ReducedCharData(grid, chart, ring, one, zero, gh, dgh)
    sol = C.solve_constraint(data, 1.0, 0.0)
    for tf in bump_dictionary(grid, chart)[:4]:
        assert abs(C.weak_constraint_residual(data, sol, tf, tf.deriv, support=tf.support)) < 1e-9


def test_weak_residual_smooth_dust_consistency(chart, ring):
    # strong smooth-dust solution pairs to zero against the dictionary
    one, zero = const_maps(chart)
    grid = Grid1D(0.0, 1.0, 513)
    density = lambda ub: (1.0 + np.sin(np.pi * np.asarray(ub, float)))[:, None, None] * np.ones(chart.shape)
    dust = C.NullDustMeasure(atoms=[], density=density)
    data = C.ReducedCharData(grid, chart, ring, one, zero, *C.ring_entries(ring),
                             dust=dust)
    sol = C.solve_constraint(data, 1.0, 0.0)
    for tf in bump_dictionary(grid, chart)[:4]:
        assert abs(C.weak_constraint_residual(data, sol, tf, tf.deriv, support=tf.support)) < 1e-8


def test_weak_residual_glued_shell_and_negative_control(chart, ring):
    grid = Grid1D(0.0, 1.0, 1025)
    data, m_theta = shell_data(chart, ring, grid)
    sol = C.solve_constraint(data, 1.0, 0.1)
    tf = bump_dictionary(grid, chart)[1]
    res = C.weak_constraint_residual(data, sol, tf, tf.deriv, support=tf.support)
    assert abs(res) < 1e-6
    # dropping the measure: residual becomes the (scaled) dust pairing
    no_dust = C.ReducedCharData(grid, chart, ring, data.omega, data.dlog_omega,
                                data.entries, data.dentries)
    res_control = C.weak_constraint_residual(no_dust, sol, tf, tf.deriv, tf.support)
    pairing = C.measure_pairing(data, tf, weight=lambda ub: 1.0 / sol(ub))
    assert abs(res_control) > 0.4 * pairing


def test_weak_residual_linearity_in_mass(chart, ring):
    grid = Grid1D(0.0, 1.0, 513)
    tf = bump_dictionary(grid, chart)[1]
    for scale in (1.0, 2.0):
        data, _ = shell_data(chart, ring, grid, mass_scale=scale)
        sol = C.solve_constraint(data, 1.0, 0.1)
        assert abs(C.weak_constraint_residual(data, sol, tf, tf.deriv, support=tf.support)) < 1e-6


def test_boundary_touching_test_function_rejected(chart, ring):
    grid = Grid1D(0.0, 1.0, 101)
    data, _ = shell_data(chart, ring, grid)
    sol = C.solve_constraint(data, 1.0, 0.1)
    tf = bump_dictionary(grid, chart)[0]
    with pytest.raises(C.MeasureSupportError):
        C.weak_constraint_residual(data, sol, tf, tf.deriv, support=(0.0, 0.5))


def test_atom_outside_interval_rejected(chart, ring):
    grid = Grid1D(0.0, 1.0, 101)
    dust = C.NullDustMeasure(atoms=[(1.5, np.ones(chart.shape))])
    one, zero = const_maps(chart)
    with pytest.raises(C.MeasureSupportError):
        C.ReducedCharData(grid, chart, ring, one, zero, *C.ring_entries(ring),
                          dust=dust)


def test_coincident_atoms_rejected(chart, ring):
    grid = Grid1D(0.0, 1.0, 101)
    mass = np.ones(chart.shape)
    dust = C.NullDustMeasure(atoms=[(0.45, mass), (0.3, mass), (0.45, 2.0 * mass)])
    one, zero = const_maps(chart)
    with pytest.raises(ValueError, match="two atoms at ub=0.45"):
        C.ReducedCharData(grid, chart, ring, one, zero, *C.ring_entries(ring), dust=dust)


def test_det_ratio_enforced(chart, ring):
    one, zero = const_maps(chart)
    grid = Grid1D(0.0, 1.0, 101)
    entries, dentries = C.ring_entries(ring)

    def bad(ub):
        a, b, d = entries(ub)
        return a + 0.1 * np.asarray(ub, float)[:, None, None], b, d  # det drifts away from det gamma_ring

    with pytest.raises(ValueError, match="det"):
        C.ReducedCharData(grid, chart, ring, one, zero, bad, dentries)


def test_ring_with_slots_last_is_rejected(chart, ring):
    one, zero = const_maps(chart)
    slots_last = np.moveaxis(ring, (0, 1), (-2, -1))
    with pytest.raises(ValueError, match="gamma_ring shape"):
        C.ReducedCharData(Grid1D(0.0, 1.0, 11), chart, slots_last, one, zero, *C.ring_entries(ring))


@pytest.mark.parametrize("name", ["gamma_ring", "omega", "dlog_omega", "entries", "dentries", "density"])
def test_a_map_on_another_chart_is_refused_by_name(chart, ring, name):
    # one map, or the ring, on the transposed 4 x 8 chart of the 8 x 4 data
    one, zero = const_maps(chart)
    entries, dentries = C.ring_entries(ring)
    transposed = lambda ub: np.ones((len(ub), 4, 8))
    args = {"gamma_ring": ring, "omega": one, "dlog_omega": zero, "entries": entries, "dentries": dentries}
    density = zero
    if name == "gamma_ring":
        args[name] = np.moveaxis(ring, -1, -2).copy()
    elif name in ("entries", "dentries"):
        args[name] = lambda ub, fn=args[name]: (transposed(ub), *fn(ub)[1:])
    elif name == "density":
        density = transposed
    else:
        args[name] = transposed
    with pytest.raises(ValueError, match=f"^{name}"):
        C.ReducedCharData(Grid1D(0.0, 1.0, 11), chart, dust=C.NullDustMeasure(density=density), **args)


def test_chi_identities(chart, ring):
    # conformal-only deformation: shear vanishes, trace matches 2 dPhi/(Omega Phi)
    one, zero = const_maps(chart)
    grid = Grid1D(0.0, 1.0, 201)
    data = C.ReducedCharData(grid, chart, ring, one, zero, *C.ring_entries(ring))
    sol = C.solve_constraint(data, 1.0, 1.0)  # Phi = 1 + ub
    trchi, chihat, chi = chi_from_data(data, sol, 0.5)
    assert np.abs(trchi - 2.0 / 1.5).max() < 1e-12
    assert np.abs(chihat).max() < 1e-13


def test_shear_norm_identity_random_data(chart, ring):
    # |chihat|^2_gamma = (1/4) Omega^-2 |dgamma_hat|^2 for any data
    gh, dgh = diag_exp_metric(chart, rate=0.7)
    om = lambda ub: np.exp(0.2 * np.sin(np.asarray(ub, float)))[:, None, None] * np.ones(chart.shape)
    dlom = lambda ub: 0.2 * np.cos(np.asarray(ub, float))[:, None, None] * np.ones(chart.shape)
    grid = Grid1D(0.0, 1.0, 201)
    data = C.ReducedCharData(grid, chart, ring, om, dlom, gh, dgh)
    sol = C.solve_constraint(data, 1.0, 0.0)
    from nulldust.calculus import dot22

    ub = 0.37
    trchi, chihat, chi = chi_from_data(data, sol, ub)
    phi = sol(np.array([ub]))[0]
    gamma = phi**2 * sym2_pack(*(x[0] for x in gh(ub)))
    lhs = dot22(sym2_inverse(gamma), chihat, chihat)
    ub_arr = np.array([ub])
    rhs = 0.25 * data.dgamma_normsq(ub_arr)[0] / data.omega(ub_arr)[0] ** 2
    assert np.abs(lhs - rhs).max() < 1e-12


def test_dust_concavity_sign(chart, ring):
    # with constant lapse, nonnegative dust keeps the factor concave
    grid = Grid1D(0.0, 1.0, 513)
    data, _ = shell_data(chart, ring, grid)
    sol = C.solve_constraint(data, 1.0, 0.1)
    assert len(sol.grids) == 2  # the shell's atom splits the march
    assert np.all(sol.ddphi <= 1e-14)
