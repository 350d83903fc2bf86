"""Closed forms that check the package from outside; no module of src/
calls them.

weierstrass_young_segment is the Young integral of f dg along a segment
for two WeierstrassFunctions: both are finite cosine sums, so along the
segment the integrand is a sum of 2 x 13 x 13 sines of affine phases, each
integrated exactly. weierstrass_triangle is the integral of one
WeierstrassFunction over a triangle, a sum of 13 exponentials integrated
by the Hermite-Genocchi formula.
"""

import math

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


def _phi1(u):
    """(e^u - 1) / u, and its limit 1 at u = 0."""
    return np.expm1(u) / u if u != 0 else 1.0


def exp_divided_difference(z0, z1, z2):
    """exp[z0, z1, z2] at complex points, coinciding ones included.

    When the points spread by at least 1, the two farthest apart, a and b,
    give (exp[a, m] - exp[b, m]) / (a - b) with exp[x, m] = e^m phi1(x - m)
    accurate to rounding, so the one division is by the largest spread.
    Closer points use the Taylor series about their centroid c:
    exp[z] = e^c sum_n h_n(z - c) / (n + 2)!, h_n the complete homogeneous
    symmetric polynomial of degree n, each |z_i - c| below 1.
    """
    z = [complex(z0), complex(z1), complex(z2)]
    pairs = [(0, 1), (0, 2), (1, 2)]
    i, j = max(pairs, key=lambda p: abs(z[p[0]] - z[p[1]]))
    a, b, m = z[i], z[j], z[3 - i - j]
    if abs(a - b) >= 1.0:
        return (np.exp(m) * (_phi1(a - m) - _phi1(b - m))) / (a - b)
    c = sum(z) / 3
    h = np.zeros(30, dtype=complex)
    h[0] = 1.0
    for w in z:
        # multiply the generating series by 1 / (1 - (w - c) t)
        for n in range(1, len(h)):
            h[n] += (w - c) * h[n - 1]
    return np.exp(c) * sum(h[n] / math.factorial(n + 2) for n in range(len(h)))


def weierstrass_triangle(w, triangle):
    """int_T w dx over the triangle T = [v0, v1, v2], exact up to rounding.

    w is the real part of sum_j a_j e^(i omega_j . x), and by the
    Hermite-Genocchi formula int_T e^(i omega . x) dx is 2 area(T)
    e^(i omega . v0) exp[0, i omega . (v1 - v0), i omega . (v2 - v0)].
    """
    v0, v1, v2 = np.asarray(triangle, dtype=float)
    e1, e2 = v1 - v0, v2 - v0
    two_area = math.sqrt((e1 @ e1) * (e2 @ e2) - (e1 @ e2) ** 2)
    amps, phases, rates1 = _modes(w, v0, e1)
    rates2 = _modes(w, v0, e2)[2]
    total = sum(
        a * np.exp(1j * p) * exp_divided_difference(0.0, 1j * r1, 1j * r2)
        for a, p, r1, r2 in zip(amps, phases, rates1, rates2)
    )
    return float(two_area * np.real(total))
