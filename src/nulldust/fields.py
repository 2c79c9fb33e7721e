"""Symmetric 2x2 fields on the angular chart and sampled 4-metric blocks.

Array layout: tensor slots lead, then any batch axes, then the angular grid
axes (n1, n2).  A scalar field is (..., n1, n2), a 1-form (2, ..., n1, n2), a
covariant symmetric 2-tensor (2, 2, ..., n1, n2), Christoffel symbols
(2, 2, 2, ..., n1, n2) indexed [c, a, b] = Gamma^c_{ab}.  A scalar broadcasts
onto a tensor of the same batch with no added axes, and each entry T[a, b] is
a contiguous (..., n1, n2) plane.  MetricBlock keeps its 4-metric with the
(4, 4) slots trailing, the layout np.linalg.inv and @ read.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .grids import Grid1D


class PositivityError(ValueError):
    """A field required to be positive definite fails the sign test."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


def check_positive_definite(g: np.ndarray) -> None:
    """Exact sign tests det > 0 and g11 > 0 at every grid point."""
    det = sym2_det(g)
    bad = (det <= 0.0) | (g[0, 0] <= 0.0)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise PositivityError(f"metric not positive definite at grid point {idx}", where=idx)


def sym2_inverse(g: np.ndarray) -> np.ndarray:
    """Inverse of a field of symmetric 2x2 matrices."""
    det = sym2_det(g)
    inv = np.empty_like(g)
    inv[0, 0] = g[1, 1] / det
    inv[1, 1] = g[0, 0] / det
    inv[0, 1] = -g[0, 1] / det
    inv[1, 0] = -g[1, 0] / det
    return inv


def sym2_det(g: np.ndarray) -> np.ndarray:
    return g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]


def trace(ginv: np.ndarray, T: np.ndarray) -> np.ndarray:
    """ginv^{ab} T_{ab}, with ginv the inverse 2-metric the caller holds; the
    four products are summed in the pairs numpy 2.4.6's einsum forms for
    "...ab,...ab->..." on the slots-last layout."""
    return (ginv[0, 0] * T[0, 0] + ginv[1, 0] * T[1, 0]) + (ginv[0, 1] * T[0, 1] + ginv[1, 1] * T[1, 1])


def sym2_pack(a, b, d) -> np.ndarray:
    """Field of symmetric 2x2 matrices [[a, b], [b, d]] from its entry fields."""
    a, b, d = np.broadcast_arrays(a, b, d)
    return np.stack((a, b, b, d), dtype=float).reshape((2, 2) + a.shape)


def sym2_entries(g: np.ndarray):
    """Entries (a, b, d) of a field of symmetric 2x2 matrices, as views: the inverse of sym2_pack."""
    return g[0, 0], g[0, 1], g[1, 1]


def sym2_min_eigenvalue(a, b, d) -> np.ndarray:
    """Smaller eigenvalue of [[a, b], [b, d]], entrywise."""
    tr = a + d
    det = a * d - b * b
    return 0.5 * (tr - np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))


@dataclass
class MetricBlock:
    """Sampled 4-metric whose components depend on at most two coordinates.

    active: indices (0..3) of the <= 2 coordinates the components
        depend on, each with its own Grid1D and periodicity flag.
    g: array of shape grid_shape + (4, 4) where grid_shape has one axis per
        active coordinate.
    """

    active: tuple[int, ...]
    grids: tuple[Grid1D, ...]
    periodic: tuple[bool, ...]
    g: np.ndarray

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        if len(self.active) > 2:
            raise ValueError("at most two active coordinates supported")
        if len(self.active) != len(self.grids) or len(self.grids) != len(self.periodic):
            raise ValueError("active/grids/periodic length mismatch")
        expect = tuple(gr.n for gr in self.grids) + (4, 4)
        if self.g.shape != expect:
            raise ValueError(f"metric shape {self.g.shape} != {expect}")
        if not np.isfinite(self.g).all():
            raise NonFiniteError("metric block has non-finite entries")
        if not np.allclose(self.g, np.swapaxes(self.g, -1, -2), atol=0.0, rtol=0.0):
            raise ValueError("metric block not symmetric")

    def check_lorentzian(self) -> None:
        """Signature test (exactly one negative eigenvalue) at five sample points."""
        flat = self.g.reshape(-1, 4, 4)
        idx = np.linspace(0, flat.shape[0] - 1, min(5, flat.shape[0])).astype(int)
        for i in idx:
            ev = np.linalg.eigvalsh(flat[i])
            if int((ev < 0).sum()) != 1:
                raise ValueError(f"metric not Lorentzian at flat index {i}: eigenvalues {ev}")
