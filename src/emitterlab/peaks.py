"""Local-maximum detection with 3-point parabolic refinement."""

from __future__ import annotations

import numpy as np


def local_maxima(y: np.ndarray, min_fraction: float = 0.0) -> list:
    """Indices of strict interior local maxima at least min_fraction of max."""
    y = np.asarray(y, dtype=float)
    if y.size < 3:
        return []
    floor = min_fraction * np.max(y)
    mid = y[1:-1]
    return (np.flatnonzero((mid > y[:-2]) & (mid > y[2:]) & (mid > floor)) + 1).tolist()


def parabolic_refine(x: np.ndarray, y: np.ndarray, i: int) -> tuple:
    """Refine extremum location/value at index i via a 3-point parabola.

    Assumes a uniform x spacing around i; falls back to the grid point when
    the curvature vanishes.
    """
    if i <= 0 or i >= len(y) - 1:
        return float(x[i]), float(y[i])
    ym, y0, yp = float(y[i - 1]), float(y[i]), float(y[i + 1])
    denom = ym - 2.0 * y0 + yp
    if denom == 0.0:
        return float(x[i]), y0
    shift = 0.5 * (ym - yp) / denom
    shift = float(np.clip(shift, -0.5, 0.5))
    dx = float(x[i + 1] - x[i]) if i + 1 < len(x) else float(x[i] - x[i - 1])
    x_ref = float(x[i]) + shift * dx
    y_ref = y0 - 0.25 * (ym - yp) * shift
    return x_ref, y_ref
