"""Characteristic constraint on an initial null hypersurface.

Free data on the hypersurface is (Omega, gamma_hat) with gamma_hat normalized
against a reference metric (det gamma_hat / det gamma_ring = 1); the conformal
factor Phi solves, per angular point, the one constraint equation

    Phi'' = 2 (log Omega)' Phi' - (1/8) |d gamma_hat|^2 Phi - (1/2) f / Phi,

with f = 0 in vacuum.  An atom m_i of the dust measure at ub_i enters as the
derivative jump [Phi'] = -(1/2) Omega^2 m_i / Phi there, so solve_constraint
glues the pieces between atoms.  The weak form of the constraint is

    -int (d phi) W dA dub + (1/8) int phi Omega^-2 |dgam|^2 Phi dA dub
        + (1/2) int phi Phi^-1 dnu  =  0,     W := Omega^-2 dPhi,

paired against test functions compactly supported in the open interval, with
dnu = sum_i m_i(theta) delta(ub - ub_i) dA_ring + Omega^-2 f dA_ring dub.
"""

from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .fields import sym2_det
from .grids import AngularGrid, Grid1D
from .odesolve import DenseSolution, Problem, angular_array, march, segmented_grids
from .quadrature import composite_rule


class MeasureSupportError(ValueError):
    pass


@dataclass
class NullDustMeasure:
    """Atoms plus an absolutely continuous density.

    atoms: list of (location, mass field (m1, m2), each m 1 or the chart's
        size), masses >= 0, locations strictly inside the coordinate interval.
    density: angular batch map (see ReducedCharData) ub(K,) -> f >= 0, in
        the convention that the absolutely continuous part of the measure is
        Omega^-2 f dA_ring dub.
    """

    atoms: list = dc_field(default_factory=list)
    density: Callable | None = None

    def validate(self, grid: Grid1D):
        locs = [loc for loc, _ in self.atoms]
        for loc, mass in self.atoms:
            if not (grid.a < loc < grid.b):
                raise MeasureSupportError(f"atom at ub={loc} not strictly inside ({grid.a}, {grid.b})")
            if np.any(np.asarray(mass) < 0):
                raise ValueError("atom masses must be nonnegative")
            if locs.count(loc) > 1:
                raise ValueError(f"two atoms at ub={loc}: give one atom their summed mass")


_DET_RTOL = 1e-12  # tolerated |det gamma_hat / det gamma_ring - 1|
_GL = 16  # Gauss-Legendre nodes per panel of the pairings
_WEAK_PANELS = 128  # panels per segment of the weak residual


@dataclass
class ReducedCharData:
    """Reduced data on one null hypersurface over a periodic angular chart.

    omega/dlog_omega are angular batch maps ub(K,) -> (K, m1, m2), each m 1
    (no variation in that angle) or n.  The conformal metric gamma_hat =
    [[a, b], [b, d]] is given by its entries: entries maps ub(K,) -> (a, b, d)
    and dentries to their ub-derivatives, each such an array; gamma_ring is
    the reference metric's entries (a, b, d), each (m1, m2).  The ring's and,
    at five ub, every map's shape (the dust density's too) is checked
    (angular_array), and so is the normalization det gamma_hat = det gamma_ring.
    """

    grid: Grid1D
    chart: AngularGrid
    gamma_ring: tuple
    omega: Callable
    dlog_omega: Callable
    entries: Callable
    dentries: Callable
    dust: NullDustMeasure | None = None

    def __post_init__(self):
        shape = self.chart.shape
        self.gamma_ring = tuple(angular_array(f"gamma_ring[{i}]", x, (), shape)
                                for i, x in enumerate(self.gamma_ring))
        if self.dust is not None:
            self.dust.validate(self.grid)
        probe = np.linspace(self.grid.a, self.grid.b, 5)
        maps = {"omega": self.omega, "dlog_omega": self.dlog_omega, "density": self.dust and self.dust.density}
        for name, fn in maps.items():
            if fn is not None:
                angular_array(name, fn(probe), (5,), shape)
        a, b, d = (angular_array(f"entries[{i}]", x, (5,), shape) for i, x in enumerate(self.entries(probe)))
        for i, x in enumerate(self.dentries(probe)):
            angular_array(f"dentries[{i}]", x, (5,), shape)
        dev = np.abs(sym2_det(a, b, d) / sym2_det(*self.gamma_ring) - 1.0).max(axis=(1, 2))
        for ub, worst in zip(probe, dev):
            if worst > _DET_RTOL:
                raise ValueError(
                    f"det gamma_hat / det gamma_ring deviates from 1 by {worst:.2e} at ub={ub:g}"
                )

    def dgamma_normsq(self, ub_batch):
        """|d gamma_hat|^2 with indices raised by gamma_hat: an angular batch map."""
        return dgamma_norm_sq(self.entries(ub_batch), self.dentries(ub_batch))

    def area_weights(self) -> np.ndarray:
        """Quadrature weights of dA_ring on the chart nodes, chart-shaped so that every pairing sums over the chart."""
        return np.broadcast_to(np.sqrt(sym2_det(*self.gamma_ring)) * self.chart.cell_area, self.chart.shape).copy()


def ring_entries(gamma_ring):
    """(entries, dentries) of conformally flat data: gamma_hat = gamma_ring, given by its entries, d gamma_hat = 0."""

    def entries(ub_batch):
        k = len(np.atleast_1d(ub_batch))
        return tuple(np.broadcast_to(x, (k,) + x.shape) for x in gamma_ring)

    def dentries(ub_batch):
        zero = np.zeros((len(np.atleast_1d(ub_batch)), 1, 1))
        return zero, zero, zero

    return entries, dentries


def dgamma_norm_sq(entries, dentries) -> np.ndarray:
    """|M|^2 with both indices raised by g: trace of (g^-1 M)^2, for the
    symmetric fields g = [[a, b], [b, d]] and M = [[p, q], [q, r]] given as
    entries (a, b, d) and dentries (p, q, r)."""
    a, b, d = entries
    p, q, r = dentries
    det = sym2_det(a, b, d)
    i11, i12, i22 = d / det, -b / det, a / det
    n11 = i11 * p + i12 * q
    n12 = i11 * q + i12 * r
    n21 = i12 * p + i22 * q
    n22 = i12 * q + i22 * r
    out = n11 * n11 + 2.0 * n12 * n21 + n22 * n22
    if np.any(out < -1e-10):
        raise ValueError("norm-square came out negative: degenerate conformal metric")
    return np.maximum(out, 0.0)


def solve_constraint(data: ReducedCharData, phi0, dphi0) -> DenseSolution:
    """Solve the constraint of data's own dust measure per angular point.

    One march with the density as the source (none without dust): on
    data.grid without atoms, and with atoms on segments between them at step
    data.grid.h, with the jump [Phi'] = -(1/2) Omega^2 m / Phi at each atom.
    """
    dust = data.dust or NullDustMeasure()
    atoms = sorted(dust.atoms, key=lambda am: am[0])
    cuts = [data.grid.a] + [loc for loc, _ in atoms] + [data.grid.b]
    # without atoms, data.grid itself: segmented_grids takes at least 9 nodes and can round up by one
    grids = segmented_grids([(lo, hi, data.grid.h) for lo, hi in zip(cuts[:-1], cuts[1:])]) if atoms else [data.grid]
    jumps = [_atom_jump(data, loc, mass) for loc, mass in atoms]
    return march([constraint_problem(data, grids, data.dgamma_normsq, dust.density, phi0, dphi0, jumps)])[0]


def constraint_problem(data: ReducedCharData, grids, normsq, density, phi0, dphi0, jumps=None) -> Problem:
    """Phi'' = 2 (log Omega)' Phi' - (1/8) normsq Phi - (1/2) density / Phi on grids, from
    phi0, dphi0 broadcast to the chart; normsq and density (None in vacuum)
    are angular batch maps, and jumps are as Problem's."""
    shape = data.chart.shape
    return Problem(grids, data.dlog_omega, lambda ub: 0.125 * normsq(ub), density,
                   np.broadcast_to(np.asarray(phi0, float), shape), np.broadcast_to(np.asarray(dphi0, float), shape),
                   jumps)


def _atom_jump(data: ReducedCharData, loc, mass):
    """The derivative jump -(1/2) Omega^2 m / Phi of the atom m at ub = loc."""
    om2 = np.asarray(data.omega(np.array([loc])))[0] ** 2

    def jump(phi_at_atom):
        return -0.5 * om2 * np.asarray(mass) / phi_at_atom

    return jump


def measure_pairing(data: ReducedCharData, phi_test: Callable, weight: Callable | None = None,
                    panels: int = 64) -> float:
    """Pairing of the dust measure with phi_test (times an optional weight field).

    phi_test and weight are angular batch maps.
    """
    if data.dust is None:
        return 0.0
    w = data.area_weights()  # chart-shaped, so every sum below runs over the whole chart
    test = phi_test if weight is None else lambda ub: np.asarray(phi_test(ub)) * np.asarray(weight(ub))
    total = 0.0
    for loc, mass in data.dust.atoms:
        total += float(np.sum(np.asarray(test(np.array([loc])))[0] * np.asarray(mass) * w))
    if data.dust.density is not None:
        xs, ws = composite_rule([(data.grid.a, data.grid.b, panels)], _GL)
        f = np.asarray(data.dust.density(xs))
        om = np.asarray(data.omega(xs))
        total += float(np.einsum("k,kij,ij->", ws, np.asarray(test(xs)) * f / om**2, w))
    return total


def weak_constraint_residual(
    data: ReducedCharData,
    solution,
    phi_test: Callable,
    dphi_test: Callable,
    support: tuple[float, float],
) -> float:
    """LHS - RHS of the weak constraint identity for the given solution.

    solution is a DenseSolution, whose breakpoints cut the quadrature
    panels; phi_test/dphi_test are angular batch maps.
    """
    if support[0] <= data.grid.a or support[1] >= data.grid.b:
        raise MeasureSupportError("test function support touches the interval boundary")
    w = data.area_weights()
    cuts = solution.breakpoints
    xs, wq = composite_rule([(lo, hi, _WEAK_PANELS) for lo, hi in zip(cuts[:-1], cuts[1:])], _GL)

    om2 = np.asarray(data.omega(xs)) ** 2
    dphi_sol = solution.deriv(xs)
    phi_sol = solution(xs)
    normsq = np.asarray(data.dgamma_normsq(xs))

    term_transport = -np.einsum("k,kij,ij->", wq, np.asarray(dphi_test(xs)) * dphi_sol / om2, w)
    term_shear = 0.125 * np.einsum("k,kij,ij->", wq, np.asarray(phi_test(xs)) * normsq * phi_sol / om2, w)
    term_measure = 0.0
    if data.dust is not None:
        term_measure = 0.5 * measure_pairing(data, phi_test, weight=lambda ub: 1.0 / solution(ub),
                                             panels=_WEAK_PANELS)
    return float(term_transport + term_shear + term_measure)
