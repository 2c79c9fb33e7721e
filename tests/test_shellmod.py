"""Null-shell spacetime: cone values, jumps, trapping, weak identities."""

import numpy as np
import pytest

from nulldust import shellmod as S
from nulldust.grids import AngularGrid
from nulldust.quadrature import composite_rule


@pytest.fixture
def chart():
    return AngularGrid(16, 8)


def cone_coefficients(u, ub):
    """Oracle: (trchi-, trchb) of the interior cone on the closed chart 0 <= u <= ub+1 <= 1."""
    if not (0.0 <= u <= ub + 1.0 <= 1.0):
        raise S.CoordinateRangeError(f"(u, ub)=({u}, {ub}) outside the cone chart")
    r = ub - u + 1.0
    if r == 0.0:
        raise S.CoordinateRangeError("focal point: ub - u + 1 = 0")
    return 2.0 / r, -2.0 / r


def test_corner_values():
    assert cone_coefficients(0.0, 0.0) == (2.0, -2.0)


def test_cone_sum_vanishes():
    for u, ub in ((0.1, -0.5), (0.3, -0.2), (0.5, -0.1)):
        trchi, trchb = cone_coefficients(u, ub)
        assert trchi + trchb == 0.0


def test_cone_diverges_at_focal_radius():
    vals = [cone_coefficients(u, u - 1.0 + 1e-9)[0] for u in (0.5,)]
    assert vals[0] > 1e8
    with pytest.raises(S.CoordinateRangeError):
        cone_coefficients(0.5, 0.5 - 1.0)


def test_out_of_range_rejected():
    with pytest.raises(S.CoordinateRangeError):
        cone_coefficients(-0.1, 0.0)
    with pytest.raises(S.CoordinateRangeError):
        cone_coefficients(0.5, 0.7)  # ub + 1 > 1


def test_jump_examples(chart):
    marginal = S.ShellSpacetime(chart, np.ones(chart.shape), 0.5)
    assert np.abs(S.trch_jump(marginal, 0.5)).max() < 1e-15
    heavy = S.ShellSpacetime(chart, np.full(chart.shape, 1.2), 0.5)
    assert np.abs(S.trch_jump(heavy, 0.5) + 0.8).max() < 1e-15
    none = S.ShellSpacetime(chart, np.zeros(chart.shape), 0.5)
    assert np.abs(S.trch_jump(none, 0.5) - 2.0 / 0.5).max() < 1e-15


@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
def test_shell_mass_must_be_finite_and_nonnegative(chart, value):
    mass = np.ones(chart.shape)
    mass[1, 0] = value
    with pytest.raises(ValueError):
        S.ShellSpacetime(chart, mass, 0.5)


def test_trapping_flags(chart):
    u_star = 0.5
    marginal = S.ShellSpacetime(chart, np.full(chart.shape, 2 * (1 - u_star)), u_star)
    per, overall, margin = S.is_trapped(marginal)
    assert not overall and margin == 0.0
    heavy = S.ShellSpacetime(chart, np.full(chart.shape, 2 * (1 - u_star) + 0.1), u_star)
    per, overall, margin = S.is_trapped(heavy)
    assert overall and np.all(per)


def test_per_direction_dips(chart):
    t1, _ = chart.mesh()
    u_star = 0.5
    mass = 2 * (1 - u_star) + 0.3 * np.cos(t1)  # dips below threshold where cos < 0
    shell = S.ShellSpacetime(chart, mass, u_star)
    per, overall, _ = S.is_trapped(shell)
    assert not overall
    assert np.array_equal(per, mass > 2 * (1 - u_star))


def test_criterion_equivalence_randomized(chart):
    rng = np.random.default_rng(99)
    t1, t2 = chart.mesh()
    for _ in range(200):
        base = rng.uniform(0.05, 3.0)
        mass = np.clip(base + rng.uniform(0, base) * np.cos(t1 + rng.uniform(0, 6)), 0, None)
        u_star = rng.uniform(0.05, 0.95)
        shell = S.ShellSpacetime(chart, mass, u_star)
        _, overall, margin = S.is_trapped(shell)
        assert overall == (margin > 0)
        assert overall == (mass.min() > 2 * (1 - u_star))


def test_ingoing_expansion_continuous_across_shell(chart):
    # the construction never jumps the ingoing expansion: the value used at
    # the crossing sphere equals the interior cone value at the shell
    u_star = 0.4
    shell = S.ShellSpacetime(chart, np.ones(chart.shape), u_star)
    interior = cone_coefficients(u_star, -1e-12)[1]
    at_crossing = -2.0 / (shell.ub0 - u_star + 1.0)
    assert abs(interior - at_crossing) < 1e-10


def test_weak_identity_and_linearity(chart):
    t1, _ = chart.mesh()
    mass = 1.0 + 0.5 * np.cos(t1)
    phi = lambda u, ub: (1.0 + 0.3 * np.sin(t1)) * np.exp(-2 * (ub - 0.2) ** 2)[:, None, None] * (1 + 0.1 * u)[:, None, None]
    residuals = []
    for scale in (1.0, 2.0):
        shell = S.ShellSpacetime(chart, scale * mass, 0.4, ub0=0.2)
        residuals.append(S.weak_trch_residual(shell, phi, 0.4, 0.05, 0.35))
    assert max(abs(r) for r in residuals) < 1e-6


def test_weak_identity_vacuum_case(chart):
    shell = S.ShellSpacetime(chart, np.zeros(chart.shape), 0.4, ub0=0.2)
    phi = lambda u, ub: np.exp(-3 * ub**2)[:, None, None] * np.ones(chart.shape)
    assert abs(S.weak_trch_residual(shell, phi, 0.4, 0.05, 0.35)) < 1e-8


def test_negative_control_equals_pairing(chart):
    t1, _ = chart.mesh()
    shell = S.ShellSpacetime(chart, 1.0 + 0.5 * np.cos(t1), 0.4, ub0=0.2)
    phi = lambda u, ub: (1.0 + 0.2 * np.cos(t1)) * np.exp(-4 * (ub - 0.2) ** 2)[:, None, None]
    control = S.weak_trch_residual(shell, phi, 0.4, 0.05, 0.35, include_measure=False)
    pairing = S.shell_pairing(shell, phi, 0.4)
    assert abs(abs(control) - pairing) < 1e-6 * pairing


def test_interval_must_straddle_shell(chart):
    shell = S.ShellSpacetime(chart, np.ones(chart.shape), 0.4, ub0=0.2)
    with pytest.raises(ValueError):
        S.weak_trch_residual(shell, lambda u, ub: np.ones((len(ub),) + chart.shape), 0.4, 0.25, 0.35)


def test_propagation_identity(chart):
    t1, _ = chart.mesh()
    shell = S.ShellSpacetime(chart, 1.0 + 0.5 * np.cos(t1), 0.4, ub0=0.2)
    psi = 1.0 + 0.3 * np.sin(t1)
    # u-independent: exactly zero
    assert S.dust_propagation_residual(shell, lambda u, ub: psi * np.exp(-ub**2)[:, None, None], 0.1, 0.35) == 0.0
    # linear in u: quadrature-level zero
    res = S.dust_propagation_residual(shell, lambda u, ub: u[:, None, None] * psi * np.exp(-ub**2)[:, None, None], 0.1, 0.35)
    assert abs(res) < 1e-8
    # zero mass: exactly zero
    empty = S.ShellSpacetime(chart, np.zeros(chart.shape), 0.4, ub0=0.2)
    assert S.dust_propagation_residual(empty, lambda u, ub: u[:, None, None] * psi, 0.1, 0.35) == 0.0


def test_invalid_mass_and_ustar(chart):
    with pytest.raises(ValueError):
        S.ShellSpacetime(chart, -np.ones(chart.shape), 0.5)
    with pytest.raises(ValueError):
        S.ShellSpacetime(chart, np.ones(chart.shape), 1.5)


# the per-node loops the batched quadratures replaced: one test-function call
# per node, on a batch map called with one node at a time


def one_node(phi):
    """phi as a per-node loop calls it: scalar u and ub -> its (n1, n2) row."""
    return lambda u, ub: phi(np.array([u]), np.array([ub]))[0]


def oracle_weak_trch_residual(shell, phi, u, ub1, ub2, include_measure=True):
    phi, w = one_node(phi), shell.weights()

    def trace_term(ub):
        tr, ratio = (f[0] for f in S._cone_fields(shell, u, np.array([ub])))
        return float(np.sum(phi(u, ub) * tr * ratio * w))

    def bulk(lo, hi):
        total = 0.0
        dub_eps = 1e-6 * (ub2 - ub1)
        xs, ws = composite_rule([(lo, hi, 64)], S._GL)
        for x, wq, rat, trv in zip(xs, ws, *S._cone_fields(shell, u, xs)[::-1]):
            dphi = (phi(u, x + dub_eps) - phi(u, x - dub_eps)) / (2.0 * dub_eps)
            integrand = dphi * trv + 0.5 * phi(u, x) * trv**2
            total += wq * float(np.sum(integrand * rat * w))
        return total

    rhs = bulk(ub1, shell.ub0) + bulk(shell.ub0, ub2)
    if include_measure:
        rhs -= oracle_shell_pairing(shell, phi, u)
    return float(trace_term(ub2) - trace_term(ub1) - rhs)


def oracle_shell_pairing(shell, scalar_phi, u):
    return float(np.sum(scalar_phi(u, shell.ub0) * shell.mass * shell.weights()))


def oracle_dust_propagation_residual(shell, phi, u1, u2):
    pair = lambda u: oracle_shell_pairing(shell, one_node(phi), u)
    total = pair(u2) - pair(u1)
    du_eps = 1e-6 * (u2 - u1)
    for x, wq in zip(*composite_rule([(u1, u2, 32)], S._GL)):
        dphi = (pair(x + du_eps) - pair(x - du_eps)) / (2.0 * du_eps)
        total -= wq * dphi
    return float(total)


def criterion_8_phi(chart):
    t1, _ = chart.mesh()
    return lambda u, ub: ((1.0 + 0.3 * np.sin(t1)) * np.exp(-2.0 * (ub - 0.2) ** 2)[:, None, None]
                          * (1.0 + 0.1 * u)[:, None, None])


def u_dependent_phi(chart):
    _, t2 = chart.mesh()  # varies along theta2 alone: a (K, 1, n2) batch map
    return lambda u, ub: np.cos(3.0 * u)[:, None, None] * np.exp(-(ub - 0.2) ** 2 - u**2)[:, None, None] * (
        1.0 + 0.2 * np.cos(t2[:1]))


@pytest.mark.parametrize("make_phi", [criterion_8_phi, u_dependent_phi])
def test_batched_quadratures_equal_per_node_loops(chart, make_phi):
    t1, _ = chart.mesh()
    shell = S.ShellSpacetime(chart, 1.0 + 0.5 * np.cos(t1), 0.4, ub0=0.2)  # criterion 8's shell
    phi = make_phi(chart)
    for include_measure in (True, False):
        got = S.weak_trch_residual(shell, phi, 0.4, 0.05, 0.35, include_measure)
        assert got == oracle_weak_trch_residual(shell, phi, 0.4, 0.05, 0.35, include_measure)
    assert S.shell_pairing(shell, phi, 0.4) == oracle_shell_pairing(shell, one_node(phi), 0.4)
    assert S.dust_propagation_residual(shell, phi, 0.1, 0.35) == oracle_dust_propagation_residual(shell, phi, 0.1, 0.35)


def counted(phi, calls):
    def wrapper(u, ub):
        calls.append(len(ub))
        return phi(u, ub)
    return wrapper


def test_weak_residuals_call_the_test_function_once_per_batch(chart):
    # 6,147 calls per weak_trch_residual and 1,026 shell pairings per
    # dust_propagation_residual with one call per node: now the two end
    # traces, three batches of 1,024 nodes in each bulk, and the pairing
    shell = S.ShellSpacetime(chart, np.ones(chart.shape), 0.4, ub0=0.2)
    calls = []
    S.weak_trch_residual(shell, counted(criterion_8_phi(chart), calls), 0.4, 0.05, 0.35)
    assert calls == [2] + [1024] * 6 + [1]
    calls.clear()
    S.dust_propagation_residual(shell, counted(criterion_8_phi(chart), calls), 0.1, 0.35)
    assert calls == [2 + 2 * 512]


def test_scalar_contract_test_function_is_refused(chart):
    # phi(u, ub) -> (n1, n2) for scalar u and ub: a (K,) batch would broadcast
    # against the chart silently when K equals n2 = 8
    shell = S.ShellSpacetime(chart, np.ones(chart.shape), 0.4, ub0=0.2)
    scalar = lambda u, ub: np.ones(chart.shape)
    with pytest.raises(ValueError, match="phi"):
        S.weak_trch_residual(shell, scalar, 0.4, 0.05, 0.35)
    with pytest.raises(ValueError, match="phi"):
        S.shell_pairing(shell, scalar, 0.4)
    with pytest.raises(ValueError, match="phi"):
        S.dust_propagation_residual(shell, scalar, 0.1, 0.35)
    with pytest.raises(ValueError, match="phi"):
        S._pairings(shell, lambda u, ub: np.exp(-ub**2) * np.ones(chart.shape), np.linspace(0.1, 0.3, 8))


@pytest.mark.parametrize("u, ub1", [(0.9, -0.1), (0.95, -0.5)])
def test_interval_reaching_the_focal_point_is_refused(chart, u, ub1):
    # ub1 - u + 1 <= 0: the cone formulas gave NaN at (0.9, -0.1) and a
    # meaningless finite residual at (0.95, -0.5)
    shell = S.ShellSpacetime(chart, np.ones(chart.shape), 0.4, ub0=0.2)
    phi = criterion_8_phi(chart)
    with pytest.raises(S.CoordinateRangeError, match="focal point"):
        S.weak_trch_residual(shell, phi, u, ub1, 0.35)
