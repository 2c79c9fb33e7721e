"""Mollification of measure-valued dust into smooth densities with
quantitative weak-* rates, and the dust-constraint stability step.

The dyadic index m sets the mollification scale eps = 2^{-2m}.  An even
normalized bump rho and a three-piece partition of unity (which shifts the
kernel inward near the interval ends) produce

    f_m(ub, theta) = Omega^2 [ sum_atoms m_i(theta) sum_j zeta_j(ub) rho_eps(ub - ub_i - alpha_j eps)
                               + sum_j zeta_j(ub) (rho_eps * w)(ub - alpha_j eps, theta) ],

where w = Omega^-2 f is the density of the absolutely continuous part against
dA_ring dub.  Pairings of Omega^-2 f_m dA_ring dub then converge to the
measure pairing at rate  2^-m |d phi|_{L2 L1} + 2^-2m |phi|_{Linf L1}.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constraints import ReducedCharData, constraint_problem, measure_pairing
from .grids import Grid1D
from .odesolve import march, segmented_grids
from .quadrature import gauss_legendre_integrate, gauss_legendre_nodes, panel_pairing, panel_values
from .testfunctions import plateau, plateau_d

_ALPHAS = (1.0, 0.0, -1.0)  # inward shifts for the three partition pieces
_PAD = 2.5  # atom window half-width in units of eps (the kernel reaches 2 eps)


@lru_cache(maxsize=1)
def _rho_norm() -> float:
    return 1.0 / gauss_legendre_integrate(
        lambda s: np.exp(-1.0 / np.maximum(1.0 - s * s, 1e-300)) * (np.abs(s) < 1.0), -1.0, 1.0, 256
    )


def rho(s):
    """Even smooth bump supported in (-1, 1) with unit integral."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return _rho_norm() * out


def rho_d(s):
    """Derivative of the mollifier bump (analytic: its tails stay subordinate
    to sqrt(rho), which the oscillation amplitudes divide by)."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    q = 1.0 - si * si
    out[inside] = np.exp(-1.0 / q) * (-2.0 * si / q**2)
    return _rho_norm() * out


def partition(grid: Grid1D):
    """Three smooth ramps summing to one, supported in the first third, the
    middle half and the last third of the interval, with derivatives."""
    a, span = grid.a, grid.b - grid.a
    c1, c2, w = a + span / 4.0, a + 2.0 * span / 3.0, span / 12.0

    def r1(ub):
        return plateau((np.asarray(ub, float) - c1) / w)

    def r2(ub):
        return plateau((np.asarray(ub, float) - c2) / w)

    def dr1(ub):
        return plateau_d((np.asarray(ub, float) - c1) / w) / w

    def dr2(ub):
        return plateau_d((np.asarray(ub, float) - c2) / w) / w

    z1 = lambda ub: 1.0 - r1(ub)
    z2 = lambda ub: r1(ub) * (1.0 - r2(ub))
    z3 = lambda ub: r1(ub) * r2(ub)
    dz1 = lambda ub: -dr1(ub)
    dz2 = lambda ub: dr1(ub) * (1.0 - r2(ub)) - r1(ub) * dr2(ub)
    dz3 = lambda ub: dr1(ub) * r2(ub) + r1(ub) * dr2(ub)
    return (z1, z2, z3), (dz1, dz2, dz3)


def _scale(m: int) -> float:
    """The mollification scale eps = 2^-2m of dyadic index m."""
    return 2.0 ** (-2 * m)


def check_level(m: int, grid: Grid1D, atom_locations) -> None:
    """Refuse a dyadic index m below 1, or an atom whose mollifier window at
    level m reaches both ends of grid: the shifted partitions absorb
    one-sided proximity, both-sided overflow they cannot."""
    if m < 1:
        raise ValueError("dyadic index must be >= 1")
    eps = _scale(m)
    for loc in atom_locations:
        if loc - 2.0 * eps <= grid.a and loc + 2.0 * eps >= grid.b:
            raise ValueError(f"atom at ub={loc:g} too close to both boundaries for eps={eps:g}")


@dataclass
class MollifiedDensity:
    """Smooth density f_m mollifying the dust measure of data at dyadic
    scale eps = 2^-2m."""

    data: ReducedCharData
    m: int

    def __post_init__(self):
        check_level(self.m, self.data.grid, [loc for loc, _ in self.data.dust.atoms])
        self._zetas, self._dzetas = partition(self.data.grid)

    @property
    def eps(self) -> float:
        return _scale(self.m)

    def _atom_sum(self, ub, deriv: bool):
        """Mass-weighted sum over atoms of the mollification kernel (deriv:
        its analytic d/dub); None without atoms."""
        eps = self.eps
        acc = None
        for loc, mass in self.data.dust.atoms:
            kern = np.zeros_like(ub)
            for zeta, dzeta, alpha in zip(self._zetas, self._dzetas, _ALPHAS):
                arg = (ub - loc - alpha * eps) / eps
                if deriv:
                    kern += dzeta(ub) * rho(arg) / eps + zeta(ub) * rho_d(arg) / eps**2
                else:
                    kern += zeta(ub) * rho(arg) / eps
            v = kern[:, None, None] * np.asarray(mass)[None, :, :]
            acc = v if acc is None else acc + v
        return acc

    def deriv(self, ub_batch):
        """Analytic d f_m / d ub (density part differentiated under the kernel)."""
        ub = np.asarray(ub_batch, dtype=float)
        om2 = np.asarray(self.data.omega(ub)) ** 2
        dlog = np.asarray(self.data.dlog_omega(ub))
        base = self(ub_batch)
        acc = self._atom_sum(ub, True)
        if self.data.dust.density is not None:
            h = self.eps / 32.0  # smooth ambient density: stencil is safe here
            dd = (
                self.density_part(ub - 2 * h)
                - 8.0 * self.density_part(ub - h)
                + 8.0 * self.density_part(ub + h)
                - self.density_part(ub + 2 * h)
            ) / (12.0 * h)
            acc = dd if acc is None else acc + dd
        if acc is None:
            acc = np.zeros_like(base)
        else:
            acc = om2 * acc
        return acc + 2.0 * dlog * base

    def density_part(self, ub_batch):
        """Mollified absolutely continuous part (against dA_ring dub)."""
        density, grid = self.data.dust.density, self.data.grid
        if density is None:
            return None
        ub = np.asarray(ub_batch, dtype=float)
        eps = self.eps
        nodes, wts = gauss_legendre_nodes(-1.0, 1.0, 32)

        def w_of(u):
            u = np.clip(u, grid.a, grid.b)
            f = np.asarray(density(u))
            om = np.asarray(self.data.omega(u))
            inside = ((u >= grid.a) & (u <= grid.b)).astype(float)
            return f / om**2 * inside[:, None, None]

        acc = None
        for zeta, alpha in zip(self._zetas, _ALPHAS):
            zv = zeta(ub)[:, None, None]
            part = None
            for s, wq in zip(nodes, wts):
                v = w_of(ub - alpha * eps - eps * s) * (wq * rho(np.array([s]))[0])
                part = v if part is None else part + v
            if acc is None:
                acc = zv * part
            else:
                acc += zv * part
        return acc

    def __call__(self, ub_batch):
        """f_m(ub, theta): an angular batch map (ReducedCharData)."""
        ub = np.asarray(ub_batch, dtype=float)
        om2 = np.asarray(self.data.omega(ub)) ** 2
        acc = self._atom_sum(ub, False)
        dens = self.density_part(ub)
        if dens is not None:
            acc = dens if acc is None else acc + dens
        if acc is None:
            acc = np.zeros((len(ub), 1, 1))
        return om2 * acc

    def windows(self):
        """Atom support windows [loc - 2.5 eps, loc + 2.5 eps] clipped to the grid."""
        grid, eps = self.data.grid, self.eps
        return [
            (max(grid.a, loc - _PAD * eps), min(grid.b, loc + _PAD * eps))
            for loc, _ in self.data.dust.atoms
        ]

    def segments(self):
        """The grid interval cut at every window edge, in order: (lo, hi, inside),
        where inside says [lo, hi] lies in an atom window."""
        windows, grid = self.windows(), self.data.grid
        cuts = sorted({grid.a, grid.b, *(x for w in windows for x in w)})
        return [
            (lo, hi, any(wl <= lo and hi <= wh for wl, wh in windows))
            for lo, hi in zip(cuts[:-1], cuts[1:])
        ]


def density_pairing(fm: MollifiedDensity, phi_test) -> float:
    """int int phi Omega^-2 f_m dA_ring dub, resolved around each atom window.

    phi_test is an angular batch map.
    """
    data = fm.data

    def integrand(xs):
        f = fm(xs)
        om2 = np.asarray(data.omega(xs)) ** 2
        return np.asarray(phi_test(xs)) * f / om2

    pieces = [(lo, hi, 48 if inside else 64) for lo, hi, inside in fm.segments()]
    return panel_pairing(integrand, pieces, 16, data.area_weights())


def pairing_gap(fm: MollifiedDensity, phi_test, dphi_test) -> dict:
    """Mollified-vs-measure pairing gap plus the norms entering the rate bound."""
    data = fm.data
    approx = density_pairing(fm, phi_test)
    exact = measure_pairing(data, phi_test)
    gap = abs(approx - exact)
    # |dphi|_{L2_ub L1(S)} and |phi|_{Linf_ub L1(S)} with dA_ring
    w = data.area_weights()
    xs, ws = gauss_legendre_nodes(data.grid.a, data.grid.b, 256)
    l1 = np.einsum("kij,ij->k", np.abs(dphi_test(xs)), w)
    norm_dphi = float(np.sqrt(np.sum(ws * l1**2)))
    norm_phi = float(np.einsum("kij,ij->k", np.abs(phi_test(xs)), w).max())
    rate_bound = 2.0 ** (-fm.m) * norm_dphi + 2.0 ** (-2 * fm.m) * norm_phi
    return {
        "m": fm.m,
        "pairing_mollified": approx,
        "pairing_measure": exact,
        "gap": gap,
        "bound_terms": (norm_dphi, norm_phi),
        "rate_bound": rate_bound,
        "ratio": gap / rate_bound if rate_bound > 0 else 0.0,
    }


def l1_w_uniform_norm(fm: MollifiedDensity) -> float:
    """L1_ub of the angular sup of f_m: bounded uniformly in m."""
    sup = lambda xs: np.asarray(fm(xs)).max(axis=(1, 2))
    total = 0.0
    for wp, sup_vals in panel_values(sup, [(lo, hi, 1) for lo, hi, _ in fm.segments()], 256):
        total += float(np.sum(wp * sup_vals))
    return total


def solve_phi_m_dust(fms, phi0, dphi0) -> list:
    """Integrate the dust constraint with each mollified density f_m, all from
    phi0, dphi0 and marched in lockstep: one DenseSolution per density.

    Steps resolve the mollifier scale (eps/32) inside atom windows and stay
    coarse (1/2048 of the interval) on the smooth remainder.
    """
    problems = []
    for fm in fms:
        data = fm.data
        fine, smooth = fm.eps / 32, (data.grid.b - data.grid.a) / 2048.0
        grids = segmented_grids([(lo, hi, fine if inside else smooth) for lo, hi, inside in fm.segments()])
        problems.append(constraint_problem(data, grids, data.dgamma_normsq, fm, phi0, dphi0))
    return march(problems)
