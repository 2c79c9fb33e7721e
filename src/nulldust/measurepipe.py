"""Composed approximation: measure-valued dust -> mollified smooth dust ->
determinant-preserving vacuum oscillations, with the weak-convergence check

    (1/4) int phi Omega^-2 |dgam_vac|^2 dA_vac dub
        - (1/4) int phi Omega^-2 |dgam|^2 dA dub   ->   int phi dnu

along the dyadic index m, where the oscillation index n(m) is the smallest
power of two with n >= 4 * 2^{5m/2} so every O(1/n) defect sits below 2^-m.
It grows like 2^{5m/2} because the mollified density's envelope steepens like
eps^{-3/2} = 2^{3m}, and the envelope-derivative defect terms integrate down
only once the oscillation outruns it.

pipeline_members builds the chain for a sequence of levels: every level's
dust solve in one lockstep march, the wavenumber k frozen over the first and
last level unless given, then every member's vacuum solve in another.
"""

from dataclasses import dataclass

import numpy as np

from .constraints import ReducedCharData, constraint_problem, measure_pairing
from .fields import sym2_min_eigenvalue
from .grids import MAX_NODES
from .hfapprox import DustBackground, OscillatoryFamily, select_k_uniform
from .mollify import MollifiedDensity, solve_phi_m_dust
from .odesolve import DenseSolution, march, segmented_grids
from .quadrature import panel_pairing


@dataclass
class PipelineMember:
    """Level fm.m of the pipeline: its oscillation family (index family.n) and vacuum solve."""

    fm: MollifiedDensity
    family: OscillatoryFamily
    phi_vac: DenseSolution


def n_of(m: int) -> int:
    """The oscillation index of level m: the smallest power of two >= 4 * 2^{5m/2}."""
    n = 1
    target = 4 * 2.0 ** (2.5 * m)
    while n < target:
        n *= 2
    return n


def _probe(fm: MollifiedDensity) -> np.ndarray:
    """Window-refined probe points resolving the mollifier envelope."""
    pts = [np.linspace(fm.data.grid.a, fm.data.grid.b, 513)]
    for lo, hi in fm.windows():
        pts.append(np.linspace(lo, hi, 512))
    return np.unique(np.concatenate(pts))


def pipeline_members(data: ReducedCharData, phi_bv: DenseSolution, m_values, k: float | None = None) -> list:
    """gamma_n and its vacuum solve per level m of the sequence m_values.

    The levels' dust solves march together, from the value and slope of the
    BV solution phi_bv at ub = a.  Without a given k, k is frozen over the
    first and last level (select_k_uniform on their probe points).  The
    members' vacuum solves then march together on the grids of member_pieces.
    """
    ub0 = np.array([data.grid.a])
    initial = phi_bv(ub0)[0], phi_bv.deriv(ub0)[0]
    fms = [MollifiedDensity(data, m) for m in m_values]
    bgs = [DustBackground(data, fm, fm.deriv, phi, phi.deriv) for fm, phi in zip(fms, solve_phi_m_dust(fms, *initial))]
    ns = [n_of(m) for m in m_values]
    if k is None:
        probes = [_probe(fms[i]) for i in (0, -1)]
        eigs = [float(sym2_min_eigenvalue(*data.jet(probe)[0]).min()) for probe in probes]
        k = select_k_uniform([(bgs[i], ns[i]) for i in (0, -1)], float(np.min(eigs)), probes)  # np.min keeps a NaN
    families = [OscillatoryFamily(bg, k, n) for bg, n in zip(bgs, ns)]
    problems = [constraint_problem(data, segmented_grids(member_pieces(fm, k, fam.n)), fam.dgamma_normsq, None,
                                   *initial) for fm, fam in zip(fms, families)]
    return [PipelineMember(fm, fam, sol) for fm, fam, sol in zip(fms, families, march(problems))]


def member_pieces(fm: MollifiedDensity, k: float, n: int) -> list:
    """(lo, hi, step) pieces of the vacuum grids of member n at level fm and
    wavenumber k: steps of 1/16 of the smaller of the wavelength and eps
    inside the atom windows, where the oscillation envelope lives, and 1/2048
    of the interval outside them."""
    grid = fm.data.grid
    smooth = (grid.b - grid.a) / 2048.0
    fine = min(2.0 * np.pi / (k * n), fm.eps) / 16
    return [(lo, hi, fine if inside else smooth) for lo, hi, inside in fm.segments()]


def check_member_grids(fm: MollifiedDensity, k: float, n: int) -> None:
    """Refuse a wavenumber k whose member n at level fm would march a grid of
    more than grids.MAX_NODES nodes, before anything is solved or allocated."""
    for lo, hi, step in member_pieces(fm, k, n):
        nodes = (hi - lo) / step + 1.0 if step > 0.0 else np.inf  # a step that underflows to 0.0 has no count
        if nodes > MAX_NODES:
            raise ValueError(f"k={k:g} at level m={fm.m}: the member grid on [{lo:g}, {hi:g}] would take"
                             f" {nodes:.3g} nodes, past the ceiling of {MAX_NODES} nodes")


def _shear_pairing(data: ReducedCharData, pieces, normsq_fn, phi_sol, phi_test) -> float:
    """(1/4) int int phi Omega^-2 |dgam|^2 Phi^2 dA_ring dub on 12-node panels of the pieces."""
    def integrand(xs):
        om2 = np.asarray(data.omega(xs)) ** 2
        normsq = np.asarray(normsq_fn(xs))
        phiv = phi_sol(xs) ** 2
        return np.asarray(phi_test(xs)) * normsq * phiv / om2

    return 0.25 * panel_pairing(integrand, pieces, 12, data.area_weights())


def shear_energy_pairing(member: PipelineMember, data: ReducedCharData, phi_test) -> float:
    """(1/4) int int phi Omega^-2 |dgam_vac|^2 (Phi_vac)^2 dA_ring dub."""
    fam = member.family
    wavelength = 2.0 * np.pi / (fam.k * fam.n)
    pieces = [(lo, hi, max(48, int(np.ceil((hi - lo) / wavelength)) * 2) if inside else 48)
              for lo, hi, inside in member.fm.segments()]
    return _shear_pairing(data, pieces, fam.dgamma_normsq, member.phi_vac, phi_test)


def background_shear_pairing(data: ReducedCharData, phi_bv, phi_test) -> float:
    """(1/4) int int phi Omega^-2 |dgam|^2 Phi^2 dA_ring dub for the BV data."""
    pieces = [(lo, hi, 96) for lo, hi in zip(phi_bv.breakpoints[:-1], phi_bv.breakpoints[1:])]
    return _shear_pairing(data, pieces, data.dgamma_normsq, phi_bv, phi_test)


def pipeline_weak_check(data: ReducedCharData, phi_bv: DenseSolution, members, phi_tests) -> list:
    """Convergence table of the weak identity, one row per (member, test):
    the level m, the shear difference (vacuum minus background pairing) and
    its gap to the measure pairing."""
    rows = []
    for tf in phi_tests:
        target = measure_pairing(data, tf)
        bg_term = background_shear_pairing(data, phi_bv, tf)
        for member in members:
            vac_term = shear_energy_pairing(member, data, tf)
            rows.append({"m": member.fm.m, "difference": vac_term - bg_term,
                         "gap": abs(vac_term - bg_term - target)})
    return rows
