"""Closed forms that check the package from outside; no module of src/
calls them.

weierstrass_young_segment is the Young integral of f dg along a segment
for two WeierstrassFunctions: both are finite cosine sums, so along the
segment the integrand is a sum of 2 x 13 x 13 sines of affine phases, each
integrated exactly.
"""

import numpy as np


def _modes(w, x0, v):
    """Amplitudes, phases at x0 and rates along v of w's cosine terms."""
    j = np.arange(w.LEVELS)
    freq = 2.0 * np.pi * 2.0**j
    return 2.0 ** (-w.gamma * j), freq * (w.xi @ x0), freq * (w.xi @ v)


def _sine_integral(c, e):
    """int_0^1 sin(c + e t) dt = 2 sin(c + e/2) sin(e/2) / e, also at e = 0."""
    return np.sin(c + e / 2) * np.sinc(e / (2 * np.pi))


def weierstrass_young_segment(f, g, segment):
    """int f dg over the oriented segment [x0, x1], exact up to rounding.

    With x(t) = x0 + t (x1 - x0), f(x(t)) = sum_i a_i cos(p_i + q_i t)
    and d/dt g(x(t)) = -sum_j b_j s_j sin(r_j + s_j t). Each product
    cos A sin B is (sin(B + A) + sin(B - A)) / 2.
    """
    x0, x1 = np.asarray(segment, dtype=float)
    a, p, q = (m[:, None] for m in _modes(f, x0, x1 - x0))
    b, r, s = _modes(g, x0, x1 - x0)
    halves = _sine_integral(r + p, s + q) + _sine_integral(r - p, s - q)
    return float(-0.5 * np.sum(a * b * s * halves))
