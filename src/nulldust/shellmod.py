"""Collapsing null-shell spacetime: interior cone coefficients, the expansion
jump across the shell, the trapped-surface criterion, and weak-formulation
residuals for the explicit shell solution.

The interior region {0 < u <= ub + 1 < 1} carries the light-cone values
    trchi = 2 / (ub - u + 1),    trchb = -2 / (ub - u + 1),
all other coefficients zero.  A dust shell of angular mass m(theta) on an
ingoing null hypersurface forces the jump
    trchi+ = trchi- - m(theta) / (ub - u + 1)^2,
while trchb stays continuous; the crossing sphere at u = u_* is trapped
exactly when  inf_theta m > 2 (1 - u_*).

A test function of the weak residuals is an angular batch map
(odesolve.angular_array): phi(u, ub) takes two (K,) arrays and returns
(K, n1, n2), each axis past the first of size 1 or the chart's.  The
quadratures call it once per batch of nodes, sum each node's angular row
alone, and add the weighted node sums left to right, as a per-node loop does.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .grids import AngularGrid
from .odesolve import angular_array
from .quadrature import composite_rule

_GL = 16  # Gauss-Legendre nodes per panel of the weak residuals


class CoordinateRangeError(ValueError):
    pass


@dataclass
class ShellSpacetime:
    """Shell of mass m(theta) >= 0 crossing the interior cone at ub = ub0."""

    chart: AngularGrid
    mass: np.ndarray  # (n1, n2) >= 0
    u_star: float
    ub0: float = 0.0

    def __post_init__(self):
        self.mass = np.asarray(self.mass, dtype=float)
        if not np.all(np.isfinite(self.mass) & (self.mass >= 0)):
            raise ValueError("shell mass must be finite and nonnegative")
        if not (0.0 < self.u_star < 1.0):
            raise ValueError("u_star must lie in (0, 1)")

    def weights(self) -> np.ndarray:
        return np.ones(self.chart.shape) * self.chart.cell_area


def trch_jump(shell: ShellSpacetime, u: float) -> np.ndarray:
    """Outgoing expansion just past the shell: trchi+ = trchi- - m/(ub0 - u + 1)^2."""
    r = shell.ub0 - u + 1.0
    if r <= 0:
        raise CoordinateRangeError("shell radius collapsed: u past the focal point")
    return 2.0 / r - shell.mass / r**2


def is_trapped(shell: ShellSpacetime):
    """Pointwise and overall trapped flags at the shell crossing u = u_star, plus margin.

    Trapped at theta means trchi+ < 0 and trchb < 0 there; the overall flag
    demands it for every direction.  margin = inf m - 2 (1 - u_star) is the
    analytic criterion's slack (trapped overall iff margin > 0).  Raises
    NonFiniteError when trchi+ is not finite, which would read as untrapped.
    """
    r = shell.ub0 - shell.u_star + 1.0
    trchi_plus = trch_jump(shell, shell.u_star)
    if not np.isfinite(trchi_plus).all():
        raise NonFiniteError("outgoing expansion past the shell is not finite")
    trchb = -2.0 / r
    per_theta = (trchi_plus < 0.0) & (trchb < 0.0)
    margin = float(shell.mass.min() - 2.0 * r)
    return per_theta, bool(per_theta.all()), margin


def _cone_fields(shell, u, ub):
    """trchi and the area ratio sqrt(det gamma) / sqrt(det gamma_ring) on the
    slices ub (K,), each (K, n1, n2): the cone laws 2 / r and r^2 below the
    shell; above it, the solution of d trchi/d ub = -(1/2) trchi^2 past the
    jump value q and its focusing law, which keeps the ratio continuous."""
    ub = np.asarray(ub, dtype=float)
    r, q = ub - u + 1.0, trch_jump(shell, u)[None]
    dub, below = np.maximum(ub - shell.ub0, 0.0)[:, None, None], (ub <= shell.ub0)[:, None, None]
    trchi = np.where(below, (2.0 / r)[:, None, None], q / (1.0 + 0.5 * q * dub))
    return trchi, np.where(below, (r**2)[:, None, None], (shell.ub0 - u + 1.0) ** 2 * (1.0 + 0.5 * q * dub) ** 2)


def _test_values(shell, phi, u, ub) -> np.ndarray:
    """phi at the nodes (u, ub), each a scalar or (K,), held to the batch contract."""
    u, ub = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(ub, dtype=float))
    return angular_array("test function phi(u, ub)", phi(u, ub), ub.shape, shell.chart.shape)


def _node_sums(a: np.ndarray) -> np.ndarray:
    """Each node's sum over its angular row of a (K, n1, n2)."""
    return a.reshape(len(a), -1).sum(axis=1)


def weak_trch_residual(
    shell: ShellSpacetime,
    phi,
    u: float,
    ub1: float,
    ub2: float,
    include_measure: bool = True,
) -> float:
    """LHS - RHS of the weak outgoing-expansion identity on [ub1, ub2].

    phi(u, ub) -> (K, n1, n2), for u and ub (K,), is a C^1 test function, an
    angular batch map (module docstring); with the lapse one and vanishing
    shear the identity reads

        int phi trchi^- dA(ub2) - int phi trchi^+ dA(ub1)
        = int int ( (d_ub phi) trchi + (1/2) phi trchi^2 ) dA dub
          - int phi(ub0) m dA_ring.

    Dropping the measure term (include_measure=False) is the negative
    control: the residual then equals the shell pairing.  Raises
    CoordinateRangeError if the interval reaches the focal point ub = u - 1.
    """
    if not (ub1 < shell.ub0 < ub2):
        raise ValueError("interval must straddle the shell")
    if ub1 - u + 1.0 <= 0:
        raise CoordinateRangeError(f"interval [{ub1:g}, {ub2:g}] reaches the focal point ub = u - 1 of u={u:g}")
    w, test = shell.weights(), lambda ub: _test_values(shell, phi, u, ub)
    ends = np.array([ub2, ub1])
    tr, ratio = _cone_fields(shell, u, ends)
    traces = _node_sums(test(ends) * tr * ratio * w)
    lhs = float(traces[0]) - float(traces[1])

    def bulk(lo, hi):
        dub_eps = 1e-6 * (ub2 - ub1)
        xs, ws = composite_rule([(lo, hi, 64)], _GL)
        dphi = (test(xs + dub_eps) - test(xs - dub_eps)) / (2.0 * dub_eps)
        trv, ratio = _cone_fields(shell, u, xs)
        integrand = dphi * trv + 0.5 * test(xs) * trv**2
        return float(np.cumsum(ws * _node_sums(integrand * ratio * w))[-1])  # left to right

    rhs = bulk(ub1, shell.ub0) + bulk(shell.ub0, ub2)
    if include_measure:
        rhs -= shell_pairing(shell, phi, u)
    return float(lhs - rhs)


def _pairings(shell: ShellSpacetime, phi, u) -> np.ndarray:
    """int phi(u, ub0) m dA_ring at each u of a (K,) batch."""
    return _node_sums(_test_values(shell, phi, u, shell.ub0) * shell.mass * shell.weights())


def shell_pairing(shell: ShellSpacetime, phi, u: float) -> float:
    """int phi(ub0) m dA_ring: the measure term of the weak identity."""
    return float(_pairings(shell, phi, [u])[0])


def dust_propagation_residual(
    shell: ShellSpacetime,
    phi,
    u1: float,
    u2: float,
) -> float:
    """Transport identity of the shell measure in the transversal direction.

    With vanishing shift the measure m(theta) delta(ub - ub0) dA_ring is
    carried unchanged, so for C^1 test functions (batch maps, as in
    weak_trch_residual)

        int phi(u2) dnu - int phi(u1) dnu - int_{u1}^{u2} int d_u phi dnu du = 0
    """
    du_eps = 1e-6 * (u2 - u1)
    xs, ws = composite_rule([(u1, u2, 32)], _GL)
    pairs = _pairings(shell, phi, np.concatenate([[u2, u1], xs + du_eps, xs - du_eps]))
    dphi = (pairs[2:2 + len(xs)] - pairs[2 + len(xs):]) / (2.0 * du_eps)
    # subtracted left to right from the end terms: a - w d is a + (-w) d, exactly
    return float(np.cumsum(np.concatenate([pairs[:1] - pairs[1:2], -ws * dphi]))[-1])
