"""Least-squares slope fits: sewing increment rates, scaling exponents."""

from __future__ import annotations

import numpy as np


def line_fit(x, y):
    """Least squares fit y = slope*x + intercept.

    Returns (slope, intercept). With fewer than two distinct x values the
    slope is NaN.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or np.ptp(x) == 0:
        return float("nan"), float(y.mean()) if y.size else float("nan")
    xb = x.mean()
    yb = y.mean()
    slope = ((x - xb) * (y - yb)).sum() / ((x - xb) ** 2).sum()
    return float(slope), float(yb - slope * xb)


def loglog_slope(x, y):
    """Slope of log y against log x, ignoring nonpositive entries."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 0)
    if keep.sum() < 2:
        return float("nan")
    s, _ = line_fit(np.log(x[keep]), np.log(y[keep]))
    return s


def increment_rate(sums):
    """Fitted log-linear rate of |increments| of partial sums against index.

    Increments at or below the floating-point floor
    1e-13 * max(1, max |sum|) are rounding noise and are left out; the
    rate is NaN when fewer than two are above it.
    """
    sums = np.asarray(sums, dtype=float)
    inc = np.abs(np.diff(sums))
    keep = np.flatnonzero(inc > 1e-13 * max(1.0, float(np.abs(sums).max())))
    if keep.size < 2:
        return float("nan")
    s, _ = line_fit(keep, np.log(inc[keep]))
    return s
