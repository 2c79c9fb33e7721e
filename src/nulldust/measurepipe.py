"""Composed approximation: measure-valued dust -> mollified smooth dust ->
determinant-preserving vacuum oscillations, with the weak-convergence check

    (1/4) int phi Omega^-2 |dgam_vac|^2 dA_vac dub
        - (1/4) int phi Omega^-2 |dgam|^2 dA dub   ->   int phi dnu

along the dyadic index m, where the oscillation index n(m) is the smallest
power of two with n >= 4 * 2^{5m/2} so every O(1/n) defect sits below 2^-m.
"""

from dataclasses import dataclass

import numpy as np

from .constraints import ReducedCharData, constraint_problem, measure_pairing
from .fields import sym2_min_eigenvalue
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


@dataclass
class MeasurePipeline:
    """Driver holding the measure data, its BV solution, and the frozen k.

    The oscillation index grows like n(m) ~ 2^{5m/2}: the mollified density's
    envelope steepens like eps^{-3/2} = 2^{3m}, and the envelope-derivative
    defect terms integrate down only once the oscillation outruns it, which
    is the composed version of choosing n large enough that every O(1/n)
    error sits below 2^-m.
    """

    data: ReducedCharData
    phi_bv: DenseSolution
    k: float | None = None

    def __post_init__(self):
        self._built = {}  # m -> (fm, bg) of level m, shared by freeze_k and members

    def n_of(self, m: int) -> int:
        n = 1
        target = 4 * 2.0 ** (2.5 * m)
        while n < target:
            n *= 2
        return n

    def _initial(self):
        """Value and slope of the BV solution at ub = a, where every solve starts."""
        ub0 = np.array([self.data.grid.a])
        return self.phi_bv(ub0)[0], self.phi_bv.deriv(ub0)[0]

    def backgrounds(self, m_values) -> list:
        """(fm, bg) per level m of the sequence m_values: the level-m mollified
        density and the dust background on it.  The levels not built before
        are solved together, in one lockstep march."""
        missing = [MollifiedDensity(self.data, m) for m in dict.fromkeys(m_values) if m not in self._built]
        for fm, phi_dust in zip(missing, solve_phi_m_dust(missing, *self._initial())):
            self._built[fm.m] = fm, DustBackground(self.data, fm, fm.deriv, phi_dust, phi_dust.deriv)
        return [self._built[m] for m in m_values]

    def _probe(self, fm) -> np.ndarray:
        """Window-refined probe points resolving the mollifier envelope."""
        pts = [np.linspace(self.data.grid.a, self.data.grid.b, 513)]
        for lo, hi in fm.windows():
            pts.append(np.linspace(lo, hi, 512))
        return np.unique(np.concatenate(pts))

    def freeze_k(self, m_values) -> float:
        if self.k is None:
            pairs, probes, eigs = [], [], []
            for m, (fm, bg) in zip(m_values, self.backgrounds(m_values)):
                pairs.append((bg, self.n_of(m)))
                probes.append(self._probe(fm))
                eigs.append(float(sym2_min_eigenvalue(*self.data.entries(probes[-1])).min()))
            self.k = select_k_uniform(pairs, float(np.min(eigs)), probes)  # np.min keeps a NaN
        return self.k

    def members(self, m_values) -> list:
        """gamma_n and its vacuum solve per level m of the sequence m_values,
        the solves marched in lockstep, with steps of 1/16 of the smaller of
        the wavelength and eps inside the atom windows, where the oscillation
        envelope lives, and 1/2048 of the interval outside them."""
        if self.k is None:
            raise RuntimeError("freeze_k must run before building members")
        smooth = (self.data.grid.b - self.data.grid.a) / 2048.0
        initial = self._initial()
        levels, problems = [], []
        for m, (fm, bg) in zip(m_values, self.backgrounds(m_values)):
            n = self.n_of(m)
            fam = OscillatoryFamily(bg, self.k, n)
            fine = min(2.0 * np.pi / (self.k * n), fm.eps) / 16
            grids = segmented_grids([(lo, hi, fine if inside else smooth) for lo, hi, inside in fm.segments()])
            levels.append((fm, fam))
            problems.append(constraint_problem(self.data, grids, fam.dgamma_normsq, None, *initial))
        return [PipelineMember(fm, fam, sol) for (fm, fam), sol in zip(levels, march(problems))]


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


def pipeline_weak_check(pipeline: MeasurePipeline, members, phi_tests) -> list:
    """Convergence table of the weak identity, one row per (member, test):
    the level m, the shear difference (vacuum minus background pairing) and
    its gap to the measure pairing."""
    rows = []
    for tf in phi_tests:
        target = measure_pairing(pipeline.data, tf)
        bg_term = background_shear_pairing(pipeline.data, pipeline.phi_bv, tf)
        for member in members:
            vac_term = shear_energy_pairing(member, pipeline.data, tf)
            rows.append({"m": member.fm.m, "difference": vac_term - bg_term,
                         "gap": abs(vac_term - bg_term - target)})
    return rows
