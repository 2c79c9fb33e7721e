"""Tensor fields on the angular chart and sampled 4-metric blocks.

Array layout: angular grid axes lead, tensor slots trail.  A scalar field is
(n1, n2), a 1-form (n1, n2, 2), a covariant symmetric 2-tensor (n1, n2, 2, 2),
Christoffel symbols (n1, n2, 2, 2, 2) indexed [..., c, a, b] = Gamma^c_{ab}.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .grids import AngularGrid, Grid1D


class PositivityError(ValueError):
    """A field required to be positive definite fails the sign test."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


@dataclass
class TensorField2:
    """Tensor field on an AngularGrid.

    rank = (covariant, contravariant).  Only ranks used by the pipeline are
    supported: (0,0) scalar, (1,0) one-form, (0,1) vector, (2,0) covariant
    2-tensor, (2,1) connection coefficients.
    """

    chart: AngularGrid
    rank: tuple[int, int]
    components: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=float)
        nslots = self.rank[0] + self.rank[1]
        expect = self.chart.shape + (2,) * nslots
        if self.components.shape != expect:
            raise ValueError(f"component shape {self.components.shape} != {expect}")
        if self.symmetric and self.rank == (2, 0):
            if not np.allclose(self.components, np.swapaxes(self.components, -1, -2)):
                raise ValueError("symmetric flag set but components are not symmetric")

    @classmethod
    def scalar(cls, chart, values):
        return cls(chart, (0, 0), values)

    @classmethod
    def metric(cls, chart, values):
        f = cls(chart, (2, 0), values, symmetric=True)
        check_positive_definite(f.components)
        return f


def check_positive_definite(g: np.ndarray) -> None:
    """Exact sign tests det > 0 and g11 > 0 at every grid point."""
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    bad = (det <= 0.0) | (g[..., 0, 0] <= 0.0)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise PositivityError(f"metric not positive definite at grid point {idx}", where=idx)


def sym2_inverse(g: np.ndarray) -> np.ndarray:
    """Inverse of a field of symmetric 2x2 matrices."""
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    inv = np.empty_like(g)
    inv[..., 0, 0] = g[..., 1, 1] / det
    inv[..., 1, 1] = g[..., 0, 0] / det
    inv[..., 0, 1] = -g[..., 0, 1] / det
    inv[..., 1, 0] = -g[..., 1, 0] / det
    return inv


def sym2_det(g: np.ndarray) -> np.ndarray:
    return g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]


def sym2_pack(a, b, d) -> np.ndarray:
    """Field of symmetric 2x2 matrices [[a, b], [b, d]] from its entry fields."""
    a, b, d = np.broadcast_arrays(a, b, d)
    g = np.empty(a.shape + (2, 2))
    g[..., 0, 0], g[..., 1, 1] = a, d
    g[..., 0, 1] = g[..., 1, 0] = b
    return g


def sym2_entries(g: np.ndarray):
    """Entries (a, b, d) of a field of symmetric 2x2 matrices: the inverse of sym2_pack."""
    return g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]


def sym2_min_eigenvalue(a, b, d) -> np.ndarray:
    """Smaller eigenvalue of [[a, b], [b, d]], entrywise."""
    tr = a + d
    det = a * d - b * b
    return 0.5 * (tr - np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))


@dataclass
class MetricBlock:
    """Sampled 4-metric whose components depend on at most two coordinates.

    coords: the four coordinate labels.
    active: indices (into coords) of the <= 2 coordinates the components
        depend on, each with its own Grid1D and periodicity flag.
    g: array of shape grid_shape + (4, 4) where grid_shape has one axis per
        active coordinate.
    """

    coords: tuple[str, str, str, str]
    active: tuple[int, ...]
    grids: tuple[Grid1D, ...]
    periodic: tuple[bool, ...]
    g: np.ndarray
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        if len(self.active) > 2:
            raise ValueError("at most two active coordinates supported")
        if len(self.active) != len(self.grids) or len(self.grids) != len(self.periodic):
            raise ValueError("active/grids/periodic length mismatch")
        expect = tuple(gr.n for gr in self.grids) + (4, 4)
        if self.g.shape != expect:
            raise ValueError(f"metric shape {self.g.shape} != {expect}")
        if not np.allclose(self.g, np.swapaxes(self.g, -1, -2), atol=0.0, rtol=0.0):
            raise ValueError("metric block not symmetric")

    def check_lorentzian(self, samples: int = 5) -> None:
        """Signature test (exactly one negative eigenvalue) at sample points."""
        flat = self.g.reshape(-1, 4, 4)
        idx = np.linspace(0, flat.shape[0] - 1, min(samples, flat.shape[0])).astype(int)
        for i in idx:
            ev = np.linalg.eigvalsh(flat[i])
            if int((ev < 0).sum()) != 1:
                raise ValueError(f"metric not Lorentzian at flat index {i}: eigenvalues {ev}")


def field_to_csv(path, chart: AngularGrid, named_fields: dict, header_path=None) -> None:
    """Column CSV: grid coordinates then components in documented slot order.

    Tensor slots are flattened C-order; a rank-(2,0) field F contributes
    columns F_11, F_12, F_21, F_22.  A JSON sidecar records grid metadata.
    """
    t1, t2 = chart.mesh()
    cols = {"theta1": t1.ravel(), "theta2": t2.ravel()}
    slot_order = {}
    for name, arr in named_fields.items():
        arr = np.asarray(arr)
        nslots = arr.ndim - 2
        if nslots == 0:
            cols[name] = arr.ravel()
            slot_order[name] = [name]
        else:
            labels = []
            flat = arr.reshape(chart.n1, chart.n2, -1)
            for j in range(flat.shape[-1]):
                sub = np.unravel_index(j, (2,) * nslots)
                label = name + "_" + "".join(str(s + 1) for s in sub)
                cols[label] = flat[..., j].ravel()
                labels.append(label)
            slot_order[name] = labels
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(cols.keys()))
        for row in zip(*cols.values()):
            writer.writerow([repr(float(v)) for v in row])
    meta = {
        "n1": chart.n1,
        "n2": chart.n2,
        "L1": chart.L1,
        "L2": chart.L2,
        "columns": list(cols.keys()),
        "slot_order": slot_order,
    }
    if header_path is None:
        header_path = str(path) + ".json"
    with open(header_path, "w") as fh:
        json.dump(meta, fh, indent=2)
