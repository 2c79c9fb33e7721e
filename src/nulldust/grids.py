"""Uniform 1D grids and the doubly periodic angular chart.

The angular manifold is a flat periodic rectangle (a torus chart) standing in
for the compact 2-surface; all angular derivatives are spectral.
"""

from dataclasses import dataclass

import numpy as np

# Most nodes of a Grid1D, 32 MiB per float array over them: 32 times the largest grid a
# default criterion builds (criterion 2's 2^17 + 1).  A larger grid is refused before numpy allocates it.
MAX_NODES = 2**22 + 1


@dataclass(frozen=True)
class Grid1D:
    """Uniformly sampled coordinate interval [a, b] with n nodes."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError(f"empty interval: [{self.a}, {self.b}]")
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n}")
        if self.n > MAX_NODES:
            raise ValueError(f"a grid of {self.n} nodes exceeds the ceiling of {MAX_NODES} nodes")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n)

    def points_periodic(self) -> np.ndarray:
        """n nodes over [a, b) for use as one period (no duplicate endpoint)."""
        return self.a + np.arange(self.n) * ((self.b - self.a) / self.n)


@dataclass(frozen=True)
class AngularGrid:
    """Doubly periodic chart with n1 x n2 nodes and periods L1, L2.

    Node j along axis i sits at j * L_i / n_i; the right endpoint is the
    wrap-around image of the left one and is not stored.
    """

    n1: int
    n2: int
    L1: float = 2.0 * np.pi
    L2: float = 2.0 * np.pi

    def __post_init__(self):
        if self.n1 < 4 or self.n2 < 4:
            raise ValueError(f"angular grid needs >= 4 nodes per axis, got {self.n1}x{self.n2}")
        if self.L1 <= 0 or self.L2 <= 0:
            raise ValueError("periods must be positive")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n1, self.n2)

    def theta1(self) -> np.ndarray:
        return np.arange(self.n1) * (self.L1 / self.n1)

    def theta2(self) -> np.ndarray:
        return np.arange(self.n2) * (self.L2 / self.n2)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays of shape (n1, n2)."""
        return np.meshgrid(self.theta1(), self.theta2(), indexing="ij")

    @property
    def cell_area(self) -> float:
        """Coordinate area of one grid cell (quadrature weight of the periodic trapezoid rule)."""
        return (self.L1 / self.n1) * (self.L2 / self.n2)
