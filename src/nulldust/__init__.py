"""Numerical laboratory for high-frequency limits of gravitational waves,
null dust shells, and characteristic constraint data in double-null gauge."""

__version__ = "0.1.0"

from .errors import NumericalFailure
from .grids import AngularGrid, Grid1D
from .fields import MetricBlock, PositivityError
from .odesolve import DenseSolution, FocusingError

__all__ = [
    "AngularGrid",
    "Grid1D",
    "MetricBlock",
    "PositivityError",
    "DenseSolution",
    "FocusingError",
    "NumericalFailure",
    "__version__",
]
