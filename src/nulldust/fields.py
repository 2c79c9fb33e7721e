"""Symmetric 2x2 fields on the angular chart and sampled 4-metric blocks.

Array layout: tensor slots lead, then any batch axes, then the angular grid
axes (n1, n2).  A scalar field is (..., n1, n2), a 1-form (2, ..., n1, n2), a
covariant symmetric 2-tensor (2, 2, ..., n1, n2), Christoffel symbols
(2, 2, 2, ..., n1, n2) indexed [c, a, b] = Gamma^c_{ab}.  A scalar broadcasts
onto a tensor of the same batch with no added axes, and each entry T[a, b] is
a contiguous (..., n1, n2) plane.  gamma_hat and gamma_ring, which need no
tensor calculus, travel as the entries (a, b, d) of [[a, b], [b, d]], whose
determinant sym2_det states.  MetricBlock keeps the four diagonal entries of
its diagonal 4-metric in one trailing slot.
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
    det = sym2_det(g[0, 0], g[0, 1], g[1, 1])
    bad = (det <= 0.0) | (g[0, 0] <= 0.0)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise PositivityError(f"metric not positive definite at grid point {idx}", where=idx)


def sym2_inverse(g: np.ndarray) -> np.ndarray:
    """Inverse of a field of symmetric 2x2 matrices."""
    det = sym2_det(g[0, 0], g[0, 1], g[1, 1])
    inv = np.empty_like(g)
    inv[0, 0] = g[1, 1] / det
    inv[1, 1] = g[0, 0] / det
    inv[0, 1] = -g[0, 1] / det
    inv[1, 0] = -g[1, 0] / det
    return inv


def sym2_det(a, b, d) -> np.ndarray:
    """a d - b^2, the determinant of [[a, b], [b, d]]; a packed g passes g[0, 0], g[0, 1], g[1, 1]."""
    return a * d - b * b


def trace(ginv: np.ndarray, T: np.ndarray) -> np.ndarray:
    """ginv^{ab} T_{ab}, with ginv the inverse 2-metric the caller holds; the
    four products are summed in the pairs numpy 2.4.6's einsum forms for
    "...ab,...ab->..." on the slots-last layout."""
    return (ginv[0, 0] * T[0, 0] + ginv[1, 0] * T[1, 0]) + (ginv[0, 1] * T[0, 1] + ginv[1, 1] * T[1, 1])


def sym2_pack(a, b, d) -> np.ndarray:
    """Field of symmetric 2x2 matrices [[a, b], [b, d]] from its entry fields."""
    a, b, d = np.broadcast_arrays(a, b, d)
    return np.stack((a, b, b, d), dtype=float).reshape((2, 2) + a.shape)


def sym2_min_eigenvalue(a, b, d) -> np.ndarray:
    """Smaller eigenvalue of [[a, b], [b, d]], entrywise."""
    tr = a + d
    return 0.5 * (tr - np.sqrt(np.maximum(tr * tr - 4.0 * sym2_det(a, b, d), 0.0)))


@dataclass
class MetricBlock:
    """Sampled diagonal 4-metric whose entries depend on at most two coordinates.

    active: indices (0..3) of the <= 2 coordinates the entries depend on,
        each with its own Grid1D and periodicity flag.
    diag: array of shape grid_shape + (4,), diag[..., a] = g_aa, where
        grid_shape has one axis per active coordinate; g_ab = 0 for a != b.
    """

    active: tuple[int, ...]
    grids: tuple[Grid1D, ...]
    periodic: tuple[bool, ...]
    diag: np.ndarray

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=float)
        if len(self.active) > 2:
            raise ValueError("at most two active coordinates supported")
        if len(self.active) != len(self.grids) or len(self.grids) != len(self.periodic):
            raise ValueError("active/grids/periodic length mismatch")
        expect = tuple(gr.n for gr in self.grids) + (4,)
        if self.diag.shape != expect:
            raise ValueError(f"metric shape {self.diag.shape} != {expect}")
        if not np.isfinite(self.diag).all():
            raise NonFiniteError("metric block has non-finite entries")

    def check_lorentzian(self) -> None:
        """Exact signature test at every grid point: one negative diagonal entry, three positive."""
        bad = ((self.diag < 0.0).sum(axis=-1) != 1) | (self.diag == 0.0).any(axis=-1)
        if bad.any():
            idx = tuple(int(i) for i in np.argwhere(bad)[0])
            raise ValueError(f"metric not Lorentzian at grid point {idx}: diagonal {self.diag[idx]}")
