"""Log-log rate fitting for convergence tables."""

import numpy as np


def fit_rate(xs, ys) -> float:
    """Slope of the least-squares line through (log x, log y): the observed rate.

    Requires at least 4 strictly positive points.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 4:
        raise ValueError(f"rate fit needs >= 4 points, got {len(xs)}")
    if np.any(xs <= 0) or np.any(ys < 0):
        raise ValueError("rate fit needs positive abscissae and nonnegative ordinates")
    ys = np.maximum(ys, np.finfo(float).tiny)  # zeros sit at the float floor
    lx, ly = np.log(xs), np.log(ys)
    a = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(a, ly, rcond=None)
    if not np.isfinite(coef[0]):
        raise ValueError("rate fit produced a non-finite slope")
    return float(coef[0])
