"""Least-squares slope fits used by rate probes and diagnostics."""

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


def decay_rate(values):
    """Fitted log-linear rate of a positive sequence against its index."""
    v = np.asarray(values, dtype=float)
    idx = np.arange(len(v), dtype=float)
    keep = v > 0
    if keep.sum() < 2:
        return float("nan")
    s, _ = line_fit(idx[keep], np.log(v[keep]))
    return s
