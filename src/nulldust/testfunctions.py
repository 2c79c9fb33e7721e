"""Dictionary of smooth compactly supported test functions.

The reproducible weak-residual dictionary is a set of 1D smooth bumps in the
null coordinate at 3 scales x 4 locations, multiplied by a fixed smooth
angular profile (tensor products).
"""

from dataclasses import dataclass

import numpy as np

from .grids import AngularGrid, Grid1D


def bump(x):
    """C-infinity bump supported in (-1, 1), value 1 at 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (1.0 - xi * xi) + 1.0)
    return out


def dbump(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(-1.0 / (1.0 - xi * xi) + 1.0) * (-2.0 * xi / (1.0 - xi * xi) ** 2)
    return out


@dataclass
class TestFunction:
    """phi(ub, theta) = b((ub - center)/scale) * angular(theta), with support info."""

    center: float
    scale: float
    support: tuple[float, float]
    angular: np.ndarray  # (n1, n2) profile

    def __call__(self, ub):
        v = bump((np.asarray(ub, float) - self.center) / self.scale)
        return v[:, None, None] * self.angular[None, :, :]

    def deriv(self, ub):
        v = dbump((np.asarray(ub, float) - self.center) / self.scale) / self.scale
        return v[:, None, None] * self.angular[None, :, :]


_N_SCALES, _N_LOCATIONS = 3, 4


def bump_dictionary(grid: Grid1D, chart: AngularGrid) -> list:
    """Smooth bumps at 3 scales x 4 locations, scale-major, all compactly
    supported strictly inside the grid interval, times one angular profile."""
    length = grid.b - grid.a
    funcs = []
    t1, t2 = chart.mesh()
    angular = 1.0 + 0.5 * np.cos(2.0 * np.pi * t1 / chart.L1) * np.cos(2.0 * np.pi * t2 / chart.L2)
    for i in range(_N_SCALES):
        scale = length * 0.4 / (2.0**i)
        for j in range(_N_LOCATIONS):
            center = grid.a + length * (j + 1) / (_N_LOCATIONS + 1)
            lo = max(center - scale, grid.a)
            hi = min(center + scale, grid.b)
            if lo <= grid.a + 1e-12 * length or hi >= grid.b - 1e-12 * length:
                scale_j = min(center - grid.a, grid.b - center) * 0.9
            else:
                scale_j = scale
            funcs.append(
                TestFunction(
                    center,
                    scale_j,
                    (center - scale_j, center + scale_j),
                    angular,
                )
            )
    return funcs


def _ramp_core(t):
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _ramp_core_d(t):
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos]) / t[pos] ** 2
    return out


def plateau(x):
    """Smooth ramp: 0 for x <= 0, 1 for x >= 1."""
    x = np.asarray(x, dtype=float)
    num = _ramp_core(x)
    return num / (num + _ramp_core(1.0 - x))


def plateau_d(x):
    """Derivative of the smooth ramp."""
    x = np.asarray(x, dtype=float)
    s, sm = _ramp_core(x), _ramp_core(1.0 - x)
    ds, dsm = _ramp_core_d(x), _ramp_core_d(1.0 - x)
    return (ds * sm + s * dsm) / (s + sm) ** 2
