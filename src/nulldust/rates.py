"""Log-log rate fitting for convergence tables."""

import numpy as np

from .errors import NonFiniteError


def fit_rate(xs, ys) -> float:
    """Slope of the least-squares line through (log x, log y): the observed rate.

    Requires at least 4 points with x > 0 and y >= 0; NonFiniteError on non-finite data or slope.
    A table with an exact 0 ordinate has no rate: the slope is NaN, so every
    comparison with a bound fails.  A caller that means a floor applies it.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 4:
        raise ValueError(f"rate fit needs >= 4 points, got {len(xs)}")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise NonFiniteError("rate fit needs finite data")
    if np.any(xs <= 0) or np.any(ys < 0):
        raise ValueError("rate fit needs positive abscissae and nonnegative ordinates")
    if np.any(ys == 0.0):
        return float("nan")
    lx, ly = np.log(xs), np.log(ys)
    a = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(a, ly, rcond=None)
    if not np.isfinite(coef[0]):
        raise NonFiniteError("rate fit produced a non-finite slope")
    return float(coef[0])
