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
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .grids import AngularGrid
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


def _post_shell_trchi(q: np.ndarray, dub: np.ndarray) -> np.ndarray:
    """Solution of d trchi/d ub = -(1/2) trchi^2 past the jump value q."""
    return q / (1.0 + 0.5 * q * dub)


def _area_ratio(shell, u, ub):
    """sqrt(det gamma)(ub) / sqrt(det gamma_ring): the cone law r^2 below the
    shell, the post-jump focusing law above; continuous across the shell."""
    r0 = shell.ub0 - u + 1.0
    ub = np.asarray(ub, dtype=float)
    below = (ub - u + 1.0) ** 2
    q = trch_jump(shell, u)
    above = r0**2 * (1.0 + 0.5 * q[None] * np.maximum(ub - shell.ub0, 0.0)[:, None, None]) ** 2
    return np.where((ub <= shell.ub0)[:, None, None], below[:, None, None], above)


def _trchi_field(shell, u, ub):
    r = np.asarray(ub, dtype=float) - u + 1.0
    below = np.broadcast_to((2.0 / r)[:, None, None], (len(r),) + shell.chart.shape)
    q = trch_jump(shell, u)
    above = _post_shell_trchi(q[None], np.maximum(np.asarray(ub) - shell.ub0, 0.0)[:, None, None])
    return np.where((np.asarray(ub) <= shell.ub0)[:, None, None], below, above)


def weak_trch_residual(
    shell: ShellSpacetime,
    phi,
    u: float,
    ub1: float,
    ub2: float,
    include_measure: bool = True,
) -> float:
    """LHS - RHS of the weak outgoing-expansion identity on [ub1, ub2].

    phi(u, ub, theta) -> (n1, n2) is a C^1 test function; with the lapse one
    and vanishing shear the identity reads

        int phi trchi^- dA(ub2) - int phi trchi^+ dA(ub1)
        = int int ( (d_ub phi) trchi + (1/2) phi trchi^2 ) dA dub
          - int phi(ub0) m dA_ring.

    Dropping the measure term (include_measure=False) is the negative
    control: the residual then equals the shell pairing.
    """
    if not (ub1 < shell.ub0 < ub2):
        raise ValueError("interval must straddle the shell")
    w = shell.weights()

    def trace_term(ub):
        ratio = _area_ratio(shell, u, np.array([ub]))[0]
        tr = _trchi_field(shell, u, np.array([ub]))[0]
        return float(np.sum(phi(u, ub) * tr * ratio * w))

    lhs = trace_term(ub2) - trace_term(ub1)

    def bulk(lo, hi):
        total = 0.0
        dub_eps = 1e-6 * (ub2 - ub1)
        xs, ws = composite_rule([(lo, hi, 64)], _GL)
        for x, wq, rat, trv in zip(xs, ws, _area_ratio(shell, u, xs), _trchi_field(shell, u, xs)):
            dphi = (phi(u, x + dub_eps) - phi(u, x - dub_eps)) / (2.0 * dub_eps)
            integrand = dphi * trv + 0.5 * phi(u, x) * trv**2
            total += wq * float(np.sum(integrand * rat * w))
        return total

    rhs = bulk(ub1, shell.ub0) + bulk(shell.ub0, ub2)
    if include_measure:
        rhs -= shell_pairing(shell, phi, u)
    return float(lhs - rhs)


def shell_pairing(shell: ShellSpacetime, phi, u: float) -> float:
    """int phi(ub0) m dA_ring: the measure term of the weak identity."""
    return float(np.sum(phi(u, shell.ub0) * shell.mass * shell.weights()))


def dust_propagation_residual(
    shell: ShellSpacetime,
    phi,
    u1: float,
    u2: float,
) -> float:
    """Transport identity of the shell measure in the transversal direction.

    With vanishing shift the measure m(theta) delta(ub - ub0) dA_ring is
    carried unchanged, so for C^1 test functions

        int phi(u2) dnu - int phi(u1) dnu - int_{u1}^{u2} int d_u phi dnu du = 0
    """
    pair = lambda u: shell_pairing(shell, phi, u)
    total = pair(u2) - pair(u1)
    du_eps = 1e-6 * (u2 - u1)
    for x, wq in zip(*composite_rule([(u1, u2, 32)], _GL)):
        dphi = (pair(x + du_eps) - pair(x - du_eps)) / (2.0 * du_eps)
        total -= wq * dphi
    return float(total)
