"""Tests for Gaussian field sampling, cube norms, and moment scalings.

Expected values come from independent lattice-sum oracles built in the
tests: for a field with Hermitian amplitudes c_p = s_p zeta_p, a real
linear observable A = Re sum_p c_p w_p has E[A^2] = sum_p s_p^2 |w_p|^2,
and every pairing kernel w used below (points, axis boxes, rotated cubes)
is assembled here from scratch.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from roughforms import forms
from roughforms import gaussian as G
from roughforms.embedding import TestFunction, pi_J
from roughforms.errors import (
    ExponentViolationError,
    InsufficientSamplesError,
    TruncationTailError,
)
from roughforms.forms import _duffy_rule
from roughforms.geometry import (
    Cube,
    Simplex,
    _permutation_sign,
    axis_box_chain,
)

from conftest import assert_rounding_close


def box_kernel(spec, pt, J):
    """Fourier kernel of the axis-box observable at pt, independent oracle."""
    h = np.arange(-(spec.N // 2) + 1, spec.N // 2, dtype=float)
    grids = np.meshgrid(*([h] * spec.d), indexing="ij")
    total = np.ones_like(grids[0], dtype=complex)
    for a in range(spec.d):
        omega = grids[a]
        if (a + 1) in J:
            den = 2j * np.pi * omega / spec.L
            safe = np.where(np.abs(omega) < 0.5, 1.0, den)
            fac = (np.exp(den * pt[a]) - 1.0) / safe
            total = total * np.where(np.abs(omega) < 0.5, pt[a], fac)
        else:
            total = total * np.exp(2j * np.pi * omega * pt[a] / spec.L)
    return total


def test_sampling_is_deterministic_and_real():
    spec = G.SpectralFieldSpec(d=2, theta=1.5, N=16, seed=11)
    f1 = G.sample_field(spec)
    f2 = G.sample_field(spec)
    assert np.array_equal(f1.coeffs, f2.coeffs)
    other = G.sample_field(G.SpectralFieldSpec(d=2, theta=1.5, N=16, seed=12))
    assert not np.array_equal(f1.coeffs, other.coeffs)
    # hermitian symmetry makes point values and the grid exactly real
    flip = np.conj(f1.coeffs[::-1, ::-1])
    assert np.allclose(f1.coeffs, flip, atol=1e-12)
    pts = np.random.default_rng(0).uniform(0, 1, (10, 2))
    vals = f1.eval(pts)
    assert vals.shape == (10,)
    assert np.all(np.isreal(vals))


def test_field_is_periodic_and_matches_grid():
    spec = G.SpectralFieldSpec(d=2, theta=1.0, N=8, seed=3)
    f = G.sample_field(spec)
    pts = np.random.default_rng(1).uniform(0, 1, (6, 2))
    for shift in ([1.0, 0.0], [0.0, 1.0], [2.0, -1.0]):
        assert np.allclose(f.eval(pts), f.eval(pts + shift), atol=1e-10)
    g = f.grid
    assert g.shape == (8, 8)
    for i, j in [(0, 0), (3, 7), (5, 2)]:
        assert g[i, j] == pytest.approx(
            float(f.eval(np.array([[i / 8, j / 8]]))[0]), abs=1e-10
        )


def test_component_streams_are_independent():
    spec = G.SpectralFieldSpec(d=2, theta=1.0, N=8, seed=4)
    f1 = G.sample_field(spec, component=(1,))
    f2 = G.sample_field(spec, component=(2,))
    assert not np.array_equal(f1.coeffs, f2.coeffs)
    again = G.sample_field(spec, component=(1,))
    assert np.array_equal(f1.coeffs, again.coeffs)
    with pytest.raises(ValueError):
        G.sample_field(spec, component=(3,))


def test_point_variance_matches_spectral_sum():
    spec = G.SpectralFieldSpec(d=2, theta=1.5, N=8, seed=0)
    target = G.spectral_point_variance(spec)
    x = np.array([[0.37, 0.81]])
    vals = np.empty(500)
    for s in range(500):
        f = G.sample_field(
            G.SpectralFieldSpec(d=2, theta=1.5, N=8, seed=1000 + s)
        )
        vals[s] = f.eval(x)[0]
    assert np.mean(vals**2) == pytest.approx(target, rel=0.10)


def test_theta_zero_is_white_on_modes():
    # with theta = 0 every mode has weight L^(-d/2), so the point variance
    # is just the mode count divided by L^d
    spec = G.SpectralFieldSpec(d=2, theta=0.0, N=8, L=2.0, seed=0)
    assert G.spectral_point_variance(spec) == pytest.approx(
        (8 - 1) ** 2 / 4.0, rel=1e-12
    )


def test_axis_box_pairing_variance_matches_lattice_sum():
    spec = G.SpectralFieldSpec(d=2, theta=1.5, N=8, seed=0)
    pt = np.array([0.43, 0.77])
    J = (1, 2)
    kernel = box_kernel(spec, pt, J)
    target = float(np.sum(spec.symbol() ** 2 * np.abs(kernel) ** 2))
    vals = np.empty(500)
    for s in range(500):
        f = G.sample_field(
            G.SpectralFieldSpec(d=2, theta=1.5, N=8, seed=5000 + s)
        )
        vals[s] = f.integral_axis_box(pt[None, :], J)[0]
    assert np.mean(vals**2) == pytest.approx(target, rel=0.10)


def test_pairing_variance_satisfies_sobolev_hypothesis():
    # the sampled pairing A(f) = sum_p c_p fhat(p) has second moment equal
    # to the torus Sobolev norm sum_p (1 + |p|)^(-2 theta) |fhat(p)|^2; a
    # 500-seed Monte Carlo mean must stay under a 1.1 cushion of it and
    # close to it for a spread of bump test functions
    theta = 1.5
    spec = G.SpectralFieldSpec(d=2, theta=theta, N=64, seed=0)
    h = spec.modes()
    s2 = spec.symbol() ** 2
    xg, wg = np.polynomial.legendre.leggauss(48)
    bumps = [
        (0.5, [0.5, 0.5], 6),
        (0.25, [0.35, 0.6], 6),
        (0.25, [0.7, 0.3], 4),
        (0.125, [0.5, 0.5], 6),
        (0.125, [0.25, 0.75], 4),
    ]
    coeff_draws = [
        G.sample_field(
            G.SpectralFieldSpec(d=2, theta=theta, N=64, seed=9000 + s)
        ).coeffs
        for s in range(500)
    ]
    for lam, center, m in bumps:
        psi = TestFunction(2, center=center, radius=0.5 * lam, m=m)
        half = 0.5 * lam * 0.9999
        xs0 = center[0] + half * xg
        xs1 = center[1] + half * xg
        X, Y = np.meshgrid(xs0, xs1, indexing="ij")
        vals = psi(np.column_stack([X.ravel(), Y.ravel()])).reshape(48, 48)
        F = vals * np.outer(half * wg, half * wg)
        Ea = np.exp(2j * np.pi * np.outer(h, xs0))
        Eb = np.exp(2j * np.pi * np.outer(h, xs1))
        fhat = Ea @ F @ Eb.T
        torus_norm = float(np.sum(s2 * np.abs(fhat) ** 2))
        pair = np.array(
            [float(np.real(np.sum(c * fhat))) for c in coeff_draws]
        )
        mean_sq = float(np.mean(pair**2))
        assert mean_sq <= 1.1 * torus_norm
        assert mean_sq == pytest.approx(torus_norm, rel=0.15)


def test_delta_q_matches_independent_quadrature():
    # continuum-norm oracle by brute force: fine tensor panels over the
    # frame-adapted symbol integral, with an explicit power-law tail pad
    xg, wg = np.polynomial.legendre.leggauss(32)

    def panels(lo, hi, n):
        edges = np.linspace(lo, hi, n + 1)
        xs = np.concatenate(
            [0.5 * (b - a) * xg + 0.5 * (a + b) for a, b in zip(edges, edges[1:])]
        )
        ws = np.concatenate(
            [0.5 * (b - a) * wg for a, b in zip(edges, edges[1:])]
        )
        return xs, ws

    r, theta = 0.25, 1.2

    def phi(t):
        return np.where(
            np.abs(t) < 1e-12,
            r * r,
            np.sin(np.pi * t * r) ** 2 / np.pi**2 / np.where(t == 0, 1, t) ** 2,
        )

    # k = 1 in d = 2: one transverse direction, integrated by brute force
    xs, ws = panels(0.0, 600.0, 150)
    ys, wy = panels(0.0, 2000.0, 120)
    Tvals = 2.0 * np.array(
        [
            float(
                np.sum(wy * (1.0 + np.sqrt(a * a + ys * ys)) ** (-2 * theta))
            )
            + (1.0 + 2000.0) ** (1 - 2 * theta) / (2 * theta - 1)
            for a in xs
        ]
    )
    oracle_sq = 2.0 * float(np.sum(ws * phi(xs) * Tvals))
    got = G.delta_Q_sobolev(
        Cube(np.zeros(2), np.array([[1.0, 0.0]]), r), theta
    )
    assert got.value == pytest.approx(math.sqrt(oracle_sq), rel=2e-3)

    # k = 2 in d = 2: no transverse directions, a plain double integral
    theta2 = 1.5
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    W = (1.0 + np.hypot(X, Y)) ** (-2 * theta2)
    oracle2_sq = 4.0 * float(
        np.sum(np.outer(ws, ws) * phi(X) * phi(Y) * W)
    )
    got2 = G.delta_Q_sobolev(Cube(np.zeros(2), np.eye(2), r), theta2)
    assert got2.value == pytest.approx(math.sqrt(oracle2_sq), rel=2e-3)


def test_integral_cube_matches_quadrature():
    spec = G.SpectralFieldSpec(d=2, theta=1.0, N=8, seed=9)
    f = G.sample_field(spec)
    frame = np.array([[3.0, 4.0]]) / 5.0
    corner = np.array([0.21, 0.55])
    side = 0.3
    xg, wg = np.polynomial.legendre.leggauss(40)
    ts = 0.5 * side * (xg + 1.0)
    pts = corner + ts[:, None] * frame[0]
    oracle = float(np.sum(0.5 * side * wg * f.eval(pts)))
    assert f.integral_cube(corner, frame, side) == pytest.approx(
        oracle, abs=1e-10
    )


def test_integral_cube_matches_axis_box():
    spec = G.SpectralFieldSpec(d=2, theta=1.0, N=8, seed=2)
    f = G.sample_field(spec)
    u = np.array([0.41, 0.3])
    via_box = f.integral_axis_box(u[None, :], (1,))[0]
    via_cube = f.integral_cube(
        np.array([0.0, 0.3]), np.array([[1.0, 0.0]]), 0.41
    )
    assert via_cube == pytest.approx(via_box, abs=1e-12)


def test_export_round_trip(tmp_path):
    spec = G.SpectralFieldSpec(d=2, theta=1.0, N=8, seed=6)
    f = G.sample_field(spec)
    header = f.export(str(tmp_path / "field"))
    raw = np.fromfile(tmp_path / "field.bin", dtype="<f8").reshape(8, 8)
    assert np.array_equal(raw, f.grid.astype("<f8"))
    meta = json.loads((tmp_path / "field.json").read_text())
    assert meta == header
    assert meta["shape"] == [8, 8]
    assert meta["dtype"] == "<f8"


def test_spec_validation():
    with pytest.raises(ValueError):
        G.SpectralFieldSpec(d=4, theta=1.0, N=8)
    with pytest.raises(ValueError):
        G.SpectralFieldSpec(d=2, theta=1.0, N=12)
    with pytest.raises(ValueError):
        G.SpectralFieldSpec(d=2, theta=1.0, N=2)
    with pytest.raises(ValueError):
        G.SpectralFieldSpec(d=2, theta=1.0, N=8, L=0.0)
    with pytest.raises(ValueError):
        G.SpectralFieldSpec(d=2, theta=-0.5, N=8)


# ---------------------------------------------------------------------------
# cube distribution norms


def test_delta_q_top_dimension_large_theta_limit():
    # for k = d the squared norm tends to Vol^2 times the integral of the
    # isotropic symbol, here 2 pi (1/(2 theta - 2) - 1/(2 theta - 1))
    theta = 8.0
    r = 1.0 / 32.0
    Q = Cube(np.zeros(2), np.eye(2), r)
    norm = G.delta_Q_sobolev(Q, theta)
    limit = r * r * math.sqrt(
        2.0 * math.pi * (1.0 / (2 * theta - 2) - 1.0 / (2 * theta - 1))
    )
    assert norm.value == pytest.approx(limit, rel=0.02)


def slope_of_norms(d, k, theta, exponents):
    sides = [2.0**-e for e in exponents]
    vals = [
        G.delta_Q_sobolev(Cube(np.zeros(d), np.eye(d)[:k], r), theta).value
        for r in sides
    ]
    return float(np.polyfit(np.log(sides), np.log(vals), 1)[0])


def test_delta_q_scaling_slopes_reach_predicted_exponents():
    # predicted exponent (k + min(2 theta - d + k, k)) / 2, approached as
    # the side shrinks; all three parameter sets fit over 2^-10..2^-16
    assert abs(slope_of_norms(2, 1, 1.5, range(10, 17)) - 1.0) <= 0.02
    assert abs(slope_of_norms(2, 1, 1.0, range(10, 17)) - 1.0) <= 0.1
    assert abs(slope_of_norms(3, 2, 1.0, range(10, 17)) - 1.5) <= 0.05


def test_delta_q_critical_case_carries_log_factor():
    # at 2 theta = d the exponent formula sits at its crossover and the
    # squared norm picks up a log(1/r) factor, so a shallow-range fit sits
    # measurably below 1; the pinned value documents that approach
    slope = slope_of_norms(2, 1, 1.0, range(1, 7))
    assert slope == pytest.approx(0.7395, abs=0.02)
    # the deficit shrinks like 1/(2 log(1/r)): deeper scales move the fit
    # toward the predicted exponent
    deeper = slope_of_norms(2, 1, 1.0, range(8, 14))
    assert deeper > slope + 0.1


def test_delta_q_rotation_invariance_against_lattice_sum():
    # the norm only sees (k, d, side); validate that against explicit
    # pairing variances of rotated cubes computed from the mode lattice
    theta = 1.5
    spec = G.SpectralFieldSpec(d=2, theta=theta, N=64, seed=0)
    h = spec.modes()
    s2 = spec.symbol() ** 2
    r = 0.125
    norm = G.delta_Q_sobolev(Cube(np.zeros(2), np.eye(2), r), theta)

    def lattice_variance(rot):
        total = np.ones((63, 63), dtype=complex)
        for row in rot:
            omega = row[0] * h[:, None] + row[1] * h[None, :]
            den = 2j * np.pi * omega
            safe = np.where(np.abs(omega) < 1e-12, 1.0, den)
            fac = (np.exp(den * r) - 1.0) / safe
            total = total * np.where(np.abs(omega) < 1e-12, r, fac)
        return float(np.sum(s2 * np.abs(total) ** 2))

    base = lattice_variance(np.eye(2))
    for ang in (0.3, 1.1):
        c, s = math.cos(ang), math.sin(ang)
        rotated = lattice_variance(np.array([[c, s], [-s, c]]))
        assert rotated == pytest.approx(base, rel=0.05)
    # the integer-lattice spectral measure overweights the low-mode cone,
    # so it sits a stable O(1) factor above the continuum norm
    assert 0.7 * norm.value**2 <= base <= 1.5 * norm.value**2


def test_delta_q_monotone_in_theta():
    Q = Cube(np.zeros(2), np.array([[1.0, 0.0]]), 0.25)
    v1 = G.delta_Q_sobolev(Q, 0.8).value
    v2 = G.delta_Q_sobolev(Q, 1.2).value
    v3 = G.delta_Q_sobolev(Q, 2.0).value
    assert v1 > v2 > v3 > 0


def test_delta_q_guards_and_report():
    Q = Cube(np.zeros(3), np.array([[1.0, 0.0, 0.0]]), 0.25)
    with pytest.raises(ExponentViolationError):
        G.delta_Q_sobolev(Q, 1.0)  # needs theta > (d - k)/2 = 1
    with pytest.raises(TruncationTailError) as err:
        G.delta_Q_sobolev(Cube(np.zeros(2), np.eye(2), 0.25), 0.55, reach=2.0)
    assert err.value.tail_fraction > 0.05
    norm = G.delta_Q_sobolev(Cube(np.zeros(2), np.eye(2), 0.25), 1.5)
    assert float(norm) == norm.value
    blob = norm.to_json()
    assert blob["side"] == 0.25 and blob["tail_bound"] < 0.05 * norm.value


# ---------------------------------------------------------------------------
# the sampled k-form cochain


def test_gaussian_form_constant_field_pairs_with_displacement():
    spec = G.SpectralFieldSpec(d=2, theta=1.5, N=8, seed=0)
    consts = {}
    for I, c in (((1,), 0.7), ((2,), -0.4)):
        coeffs = np.zeros((7, 7), dtype=complex)
        coeffs[3, 3] = c  # origin mode: a spatially constant field
        consts[I] = G.FieldSample(spec, coeffs, component=I)
    a = G.gaussian_form(consts, 1)
    seg = Simplex(np.array([[0.2, 0.3], [0.5, 0.1]]))
    value = a.eval(seg, tol=1e-9)
    assert value == pytest.approx(0.7 * 0.3 + (-0.4) * (-0.2), abs=1e-12)


def test_gaussian_form_additive_over_subdivision():
    spec = G.SpectralFieldSpec(d=2, theta=2.0, N=8, seed=21)
    a = G.sample_form(spec, 1)
    seg = Simplex(np.array([[0.15, 0.6], [0.35, 0.22]]))
    mid = 0.5 * (seg.vertices[0] + seg.vertices[1])
    left = Simplex(np.stack([seg.vertices[0], mid]))
    right = Simplex(np.stack([mid, seg.vertices[1]]))
    whole, t0 = a.eval_with_tail(seg, tol=1e-8, best_effort=True)
    v1, t1 = a.eval_with_tail(left, tol=1e-8, best_effort=True)
    v2, t2 = a.eval_with_tail(right, tol=1e-8, best_effort=True)
    assert abs(whole - (v1 + v2)) <= t0 + t1 + t2 + 1e-9


def test_gaussian_form_flips_with_orientation():
    spec = G.SpectralFieldSpec(d=2, theta=2.0, N=8, seed=22)
    a = G.sample_form(spec, 1)
    seg = Simplex(np.array([[0.15, 0.6], [0.35, 0.22]]))
    rev = Simplex(seg.vertices[::-1])
    v1, t1 = a.eval_with_tail(seg, tol=1e-8, best_effort=True)
    v2, t2 = a.eval_with_tail(rev, tol=1e-8, best_effort=True)
    assert abs(v1 + v2) <= t1 + t2 + 1e-9


def test_gaussian_form_axis_box_matches_segment_quadrature():
    spec = G.SpectralFieldSpec(d=2, theta=1.5, N=8, seed=13)
    a = G.sample_form(spec, 1)
    u = np.array([[0.52, 0.33]])
    value = a.eval_axis_box(u, (1,))[0]
    xg, wg = np.polynomial.legendre.leggauss(40)
    ts = 0.5 * 0.52 * (xg + 1.0)
    pts = np.column_stack([ts, np.full_like(ts, 0.33)])
    oracle = float(np.sum(0.5 * 0.52 * wg * a.samples[(1,)].eval(pts)))
    assert value == pytest.approx(oracle, abs=1e-10)


def test_gaussian_form_component_extraction_matches_density_pairing():
    spec = G.SpectralFieldSpec(d=2, theta=1.5, N=8, seed=30)
    a = G.sample_form(spec, 1)
    psi = TestFunction(2, center=[0.5, 0.5], radius=0.45, m=6)
    for J in ((1,), (2,)):
        extracted = pi_J(a, psi, J, nodes=24)
        xg, wg = np.polynomial.legendre.leggauss(48)
        lo, hi = 0.05, 0.95
        ts = 0.5 * (hi - lo) * xg + 0.5 * (hi + lo)
        ws = 0.5 * (hi - lo) * wg
        X, Y = np.meshgrid(ts, ts, indexing="ij")
        pts = np.column_stack([X.ravel(), Y.ravel()])
        dens = a.samples[J].eval(pts)
        oracle = float(
            np.sum((ws[:, None] * ws[None, :]).ravel() * dens * psi(pts))
        )
        assert extracted == pytest.approx(oracle, abs=1e-7)


def test_gaussian_form_metadata_and_validation():
    spec = G.SpectralFieldSpec(d=2, theta=1.5, N=8, seed=0)
    a = G.sample_form(spec, 1)
    assert (a.k, a.d) == (1, 2)
    assert a.alpha == pytest.approx(1.0)
    assert a.beta == pytest.approx(0.5)
    assert a.provenance == "gaussian"
    blob = a.to_json()
    assert blob["spec"]["N"] == 8 and blob["provenance"] == "gaussian"
    with pytest.raises(ValueError):
        G.gaussian_form({(1,): a.samples[(1,)]}, 1)
    other = G.sample_field(G.SpectralFieldSpec(d=2, theta=1.5, N=16, seed=0))
    with pytest.raises(ValueError):
        G.gaussian_form({(1,): a.samples[(1,)], (2,): other}, 1)
    rough = G.SpectralFieldSpec(d=3, theta=0.9, N=8, seed=0)
    with pytest.raises(ExponentViolationError):
        G.sample_form(rough, 1)  # needs theta > (d - k)/2 = 1


def _gaussian_rows(k, diameters, seed, d=2):
    rng = np.random.default_rng(seed)
    return np.array(
        [rng.uniform(0.1, 0.9, d) + r * rng.normal(size=(k + 1, d)) for r in diameters]
    )


def _per_row(build, pts, tol):
    """Values and tails of a fresh cochain, one memoized row at a time."""
    a = build()
    rows = [a.eval_with_tail(Simplex(p), tol, best_effort=True) for p in pts]
    return (np.array(col) for col in zip(*rows))


@pytest.mark.parametrize("k", [1, 2])
def test_gaussian_batch_matches_per_row_evaluation_across_orders(k):
    spec = G.SpectralFieldSpec(d=2, theta=1.5, N=8, seed=40 + k)
    pts = _gaussian_rows(k, np.geomspace(0.01, 0.6, 12), seed=k)
    orders = G.sample_form(spec, k)._coarse_orders(pts)
    assert len(np.unique(orders)) >= 4
    tols = np.full(len(pts), 1e-8)
    values, tails = G.sample_form(spec, k).eval_batch(pts, tols)
    want, want_tails = _per_row(lambda: G.sample_form(spec, k), pts, 1e-8)
    assert_rounding_close(values, want)
    assert_rounding_close(tails, want_tails)


def _wave_area():
    """A smooth 2-form whose Duffy sums depend on the vertex order."""
    return forms.smooth_form(
        {(1, 2): lambda p: np.sin(25 * p[..., 0] + 13 * p[..., 1])}, 2
    )


def _gaussian_2d(k, seed):
    spec = G.SpectralFieldSpec(d=2, theta=1.5, N=8, seed=seed)
    return G.sample_form(spec, k)


# case: (fresh cochain, k, tolerance); the wave is not refined at tol 1
ODD_CASES = {
    "1": (lambda: _gaussian_2d(1, 51), 1, 1e-8),
    "2": (lambda: _gaussian_2d(2, 52), 2, 1e-8),
    "smooth": (_wave_area, 2, 1.0),
}


@pytest.mark.parametrize("case", sorted(ODD_CASES))
def test_gaussian_batch_is_odd_under_vertex_permutations(case):
    build, k, tol = ODD_CASES[case]
    a = build()
    pts = _gaussian_rows(k, np.geomspace(0.02, 0.4, 10), seed=10 + k)
    tols = np.full(len(pts), tol)
    values, tails = a.eval_batch(pts, tols)
    want, want_tails = _per_row(build, pts, tol)
    assert_rounding_close(values, want)
    assert_rounding_close(tails, want_tails)
    reversed_values, reversed_tails = a.eval_batch(pts[:, ::-1], tols)
    # reversing k+1 vertices is an odd permutation for k = 1 and k = 2
    assert_rounding_close(reversed_values, -values)
    assert_rounding_close(reversed_tails, tails)
    rng = np.random.default_rng(k)
    perms = np.array([rng.permutation(k + 1) for _ in pts])
    signs = np.array([_permutation_sign(p) for p in perms])
    permuted = np.take_along_axis(pts, perms[:, :, None], axis=1)
    perm_values, perm_tails = a.eval_batch(permuted, tols)
    assert_rounding_close(perm_values, signs * values)
    assert_rounding_close(perm_tails, tails)


@pytest.mark.parametrize("k, d", [(1, 2), (2, 2), (1, 3)])
def test_gaussian_batch_across_chunks_equals_single_rows(k, d):
    spec = G.SpectralFieldSpec(d=d, theta=1.5, N=8, seed=60 + k)
    a = G.sample_form(spec, k)
    # small rows share the lowest orders, 4 and 8; chunks are smaller in d = 3
    per_row = sum(len(_duffy_rule(k, n)[1]) for n in (4, 8))
    n_rows = 2 * G.QUAD_CHUNK_POINTS // per_row + 5
    pts = _gaussian_rows(k, np.full(n_rows, 0.01), seed=20 + k, d=d)
    assert np.all(a._coarse_orders(pts) == 4)
    tols = np.full(n_rows, 1e-8)
    values, tails = a.eval_batch(pts, tols)
    rows = [a.eval_batch(p[None], t[None]) for p, t in zip(pts, tols)]
    want, want_tails = (np.concatenate(col) for col in zip(*rows))
    assert_rounding_close(values, want)
    assert_rounding_close(tails, want_tails)


def test_a_row_above_the_chunk_size_is_taken_in_node_slices():
    # coarse order 24: one row holds 24^3 + 48^3 = 124416 Duffy nodes, about
    # 100 times the chunk of a d = 3, N = 8 form
    spec = G.SpectralFieldSpec(d=3, theta=2.0, N=8, seed=1)
    a = G.sample_form(spec, 3)
    pts = np.array(
        [[[0.1, 0.1, 0.1], [0.9, 0.2, 0.1], [0.2, 0.8, 0.3], [0.3, 0.2, 0.9]]]
    )
    assert a._coarse_orders(pts)[0] == 24
    tols = np.ones(1)
    a.eval_batch(pts, tols)  # warm the rule and field caches
    tracemalloc.start()
    try:
        sliced = a.eval_batch(pts, tols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    a.chunk_points = 2 * sum(len(_duffy_rule(3, n)[1]) for n in (24, 48))
    whole = a.eval_batch(pts, tols)
    assert_rounding_close(sliced, whole)


@pytest.mark.parametrize("d, k", [(2, 2), (3, 2), (3, 3)])
def test_gaussian_k_forms_integrate_boxes_and_cubes_exactly(d, k):
    # a triangulated box or cube against the exact spectral integrals
    spec = G.SpectralFieldSpec(d=d, theta=2.0, N=8, seed=70 + d + k)
    a = G.sample_form(spec, k)
    tol = 1e-9
    u = np.array([0.3, 0.45, 0.25])[:d]
    for J in G.component_indices(d, k):
        axes = [j - 1 for j in J]
        base = u.copy()
        base[axes] = 0.0
        value, tail = a.eval_with_tail(axis_box_chain(base, J, u[axes]), tol)
        want = a.eval_axis_box(u[None], J)[0]
        assert abs(value - want) <= tail + 1e-12 * abs(want) + 1e-15
    rng = np.random.default_rng(d + k)
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    frame = (q * np.sign(np.diag(r))).T[:k]
    corner, side = rng.uniform(0.1, 0.5, d), 0.35
    want = sum(
        np.linalg.det(frame[:, [i - 1 for i in I]])
        * a.samples[I].integral_cube(corner, frame, side)
        for I in G.component_indices(d, k)
    )
    value, tail = a.eval_with_tail(Cube(corner, frame, side), tol)
    assert abs(value - want) <= tail + 1e-12 * abs(want) + 1e-15


def test_gaussian_forms_keep_the_tolerance_contract():
    spec = G.SpectralFieldSpec(d=2, theta=1.5, N=32, seed=7)
    seg = np.array([[0.05, 0.1], [0.95, 0.8]])
    a = G.sample_form(spec, 1)
    value, tail = a.eval_with_tail(Simplex(seg), 1e-10)
    assert tail <= 1e-10
    # composite Gauss-Legendre along the segment, 64 panels of 16 nodes
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, 1.0, 65)
    half = 0.5 * np.diff(edges)[:, None]
    ts = (edges[:-1, None] + half * (x + 1.0)).ravel()
    ws = (half * w).ravel()
    pts = seg[0] + ts[:, None] * (seg[1] - seg[0])
    oracle = sum(
        (seg[1, i] - seg[0, i]) * (ws @ a.samples[(i + 1,)].eval(pts))
        for i in range(2)
    )
    assert abs(value - oracle) <= tail + 1e-12 * abs(oracle)
    tri = Simplex([[0.1, 0.1], [0.9, 0.2], [0.3, 0.9]])
    _, tail = G.sample_form(spec, 2).eval_with_tail(tri, 1e-9)
    assert tail <= 1e-9


# ---------------------------------------------------------------------------
# the moment-scaling harness


def _pairing_reference(spec, k, r, coeffs, rot, x0, xc):
    """Cube and face-sum boundary pairings, one integral_cube per frame."""
    comps = G.component_indices(spec.d, k)
    shape = (spec.N - 1,) * spec.d
    cubes, bdrys = [], []
    for c, R, a0, ac in zip(coeffs, rot, x0, xc):
        fields = {
            I: G.FieldSample(spec, f.reshape(shape)) for I, f in zip(comps, c)
        }

        def form_on_cube(corner, frame):
            return sum(
                np.linalg.det(frame[:, [a - 1 for a in I]])
                * f.integral_cube(corner, frame, r)
                for I, f in fields.items()
            )

        big = R[:, : k + 1].T
        cubes.append(form_on_cube(ac, R[:, :k].T))
        bdrys.append(
            sum(
                (-1.0) ** a
                * (
                    form_on_cube(a0 + r * big[a], np.delete(big, a, axis=0))
                    - form_on_cube(a0, np.delete(big, a, axis=0))
                )
                for a in range(k + 1)
            )
        )
    return np.array(cubes), np.array(bdrys)


@pytest.mark.parametrize("d, k", [(2, 1), (3, 1), (3, 2)])
def test_moment_kernel_matches_integral_cube(d, k):
    spec = G.SpectralFieldSpec(d=d, theta=1.7, N=8, seed=4)
    rng = np.random.default_rng(3)
    n = 5
    symbol = spec.symbol()
    n_comps = len(G.component_indices(d, k))
    coeffs = np.array(
        [
            [G._draw_coeffs(symbol, rng).ravel() for _ in range(n_comps)]
            for _ in range(n)
        ]
    )
    rot = np.array([G._random_rotation(rng, d) for _ in range(n)])
    x0 = rng.uniform(0.0, 1.0, (n, d))
    xc = rng.uniform(0.0, 1.0, (n, d))
    for r in (0.125, 2.0**-8):
        got = G._moment_pairings(spec, k, r, coeffs, rot, x0, xc)
        want = _pairing_reference(spec, k, r, coeffs, rot, x0, xc)
        assert_rounding_close(got[0], want[0])
        assert_rounding_close(got[1], want[1])


def test_fast_sampler_matches_exact_pairing_law():
    # frozen geometry: Monte Carlo second moments through the moment kernel
    # must match the exact lattice sums for both observables
    spec = G.SpectralFieldSpec(d=2, theta=1.5, N=16, seed=0)
    symbol = spec.symbol()
    r = 0.125
    ang = 0.7
    rot = np.array(
        [[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]]
    )
    x0 = np.array([0.31, 0.62])
    xc = np.array([0.55, 0.18])
    h = spec.modes()
    s2 = symbol**2
    u, v = rot[:, 0], rot[:, 1]

    def dfac(om):
        den = 2j * np.pi * om
        safe = np.where(np.abs(om) < 1e-12, 1.0, den)
        return np.where(np.abs(om) < 1e-12, r, (np.exp(den * r) - 1.0) / safe)

    pu = u[0] * h[:, None] + u[1] * h[None, :]
    pv = v[0] * h[:, None] + v[1] * h[None, :]
    Du, Dv = dfac(pu), dfac(pv)
    E0 = np.exp(2j * np.pi * (x0[0] * h[:, None] + x0[1] * h[None, :]))
    Ec = np.exp(2j * np.pi * (xc[0] * h[:, None] + xc[1] * h[None, :]))
    var_cube = float(
        np.sum(s2 * (np.abs(u[0] * Ec * Du) ** 2 + np.abs(u[1] * Ec * Du) ** 2))
    )
    curl = 2j * np.pi * E0 * Du * Dv
    var_bdry = float(
        np.sum(
            s2
            * (
                np.abs(curl * (pu * v[0] - pv * u[0])) ** 2
                + np.abs(curl * (pu * v[1] - pv * u[1])) ** 2
            )
        )
    )
    n = 3000
    vc = np.empty(n)
    vb = np.empty(n)
    for j in range(n):
        rng = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence((99, j)))
        )
        coeffs = [G._draw_coeffs(symbol, rng).ravel() for _ in range(2)]
        (vc[j],), (vb[j],) = G._moment_pairings(
            spec, 1, r, np.array([coeffs]), rot[None], x0[None], xc[None]
        )
    assert np.mean(vc**2) == pytest.approx(var_cube, rel=0.08)
    assert np.mean(vb**2) == pytest.approx(var_bdry, rel=0.08)


def test_boundary_kernel_annihilates_gradients():
    # a gradient field integrates to zero around any closed square; feed
    # amplitudes of the form i omega_j times a common potential
    spec = G.SpectralFieldSpec(d=2, theta=1.5, N=16, seed=0)
    rng = np.random.default_rng(8)
    h = spec.modes()
    pot = rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15))
    pot = (pot + np.conj(pot[::-1, ::-1])) * 0.5
    coeffs = np.array(
        [[2j * np.pi * h[:, None] * pot, 2j * np.pi * h[None, :] * pot]]
    ).reshape(1, 2, -1)
    rot = G._random_rotation(np.random.default_rng(5), 2)
    _, (a_bdry,) = G._moment_pairings(
        spec,
        1,
        0.2,
        coeffs,
        rot[None],
        np.array([[0.3, 0.4]]),
        np.array([[0.1, 0.9]]),
    )
    assert abs(a_bdry) < 1e-10


def test_kolmogorov_smooth_field_scalings():
    # theta well above d/2 caps both exponents: slopes 2k and 2(k + 1)
    spec = G.SpectralFieldSpec(d=2, theta=4.0, N=16, seed=2)
    scales = [2.0**-e for e in range(4, 8)]
    fc, fb = G.kolmogorov_fit(
        spec, 1, q=2, scales=scales, n_samples=60, tolerance=0.3
    )
    assert fc.predicted == pytest.approx(2.0)
    assert fb.predicted == pytest.approx(4.0)
    assert abs(fc.slope - 2.0) <= 0.3
    assert abs(fb.slope - 4.0) <= 0.3
    assert fc.passed and fb.passed


@pytest.mark.parametrize("k", [1, 2])
def test_kolmogorov_d3_scalings(k):
    # theta = 3 caps both exponents in d = 3: slopes 2k and 2(k + 1)
    spec = G.SpectralFieldSpec(d=3, theta=3.0, N=8, seed=0)
    scales = [2.0**-e for e in range(4, 8)]
    fc, fb = G.kolmogorov_fit(
        spec, k, scales=scales, n_samples=120, tolerance=0.3
    )
    assert fc.predicted == pytest.approx(2.0 * k)
    assert fb.predicted == pytest.approx(2.0 * (k + 1))
    assert abs(fc.slope - fc.predicted) <= 0.3
    assert abs(fb.slope - fb.predicted) <= 0.3


def test_kolmogorov_draws_in_chunks_of_samples():
    # one scale of 200 draws at d = 3, N = 16 holds 200 x 7 x 3375 complex
    # kernel entries, about 76 MB, when batched at once
    spec = G.SpectralFieldSpec(d=3, theta=3.0, N=16, seed=0)
    scales = [2.0**-e for e in range(4, 7)]
    tracemalloc.start()
    try:
        G.kolmogorov_fit(spec, 2, scales=scales, n_samples=200, tolerance=0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_kolmogorov_is_deterministic():
    spec = G.SpectralFieldSpec(d=2, theta=1.5, N=8, seed=7)
    scales = [2.0**-e for e in range(4, 7)]
    fits1 = G.kolmogorov_fit(spec, 1, scales=scales, n_samples=120)
    fits2 = G.kolmogorov_fit(spec, 1, scales=scales, n_samples=120)
    assert fits1[0].moments == fits2[0].moments
    assert fits1[1].moments == fits2[1].moments


def test_kolmogorov_fixed_mode_reuses_fields():
    spec = G.SpectralFieldSpec(d=2, theta=1.5, N=8, seed=7)
    scales = [2.0**-e for e in range(4, 7)]
    fc, fb = G.kolmogorov_fit(
        spec, 1, scales=scales, n_samples=120, mode="fixed"
    )
    assert fc.mode == "fixed" and fb.mode == "fixed"
    fresh = G.kolmogorov_fit(spec, 1, scales=scales, n_samples=120)
    assert fc.moments != fresh[0].moments


def test_kolmogorov_ci_shrinks_with_samples():
    spec = G.SpectralFieldSpec(d=2, theta=1.5, N=8, seed=3)
    scales = [2.0**-e for e in range(4, 8)]
    lo = G.kolmogorov_fit(spec, 1, scales=scales, n_samples=120)
    hi = G.kolmogorov_fit(spec, 1, scales=scales, n_samples=240)
    ratio = hi[0].ci_halfwidth / lo[0].ci_halfwidth
    # doubling the samples should shrink the interval like 1/sqrt(2)
    assert 0.495 <= ratio <= 0.919


def test_kolmogorov_gaussianity_kurtosis():
    spec = G.SpectralFieldSpec(d=2, theta=1.5, N=16, seed=0)
    symbol = spec.symbol()
    rot = np.eye(2)[None]
    vals = np.empty(500)
    for j in range(500):
        rng = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence((57, j)))
        )
        x0 = rng.uniform(0, 1, 2)
        xc = rng.uniform(0, 1, 2)
        coeffs = [G._draw_coeffs(symbol, rng).ravel() for _ in range(2)]
        (vals[j],), _ = G._moment_pairings(
            spec, 1, 0.125, np.array([coeffs]), rot, x0[None], xc[None]
        )
    kurt = float(np.mean(vals**4) / np.mean(vals**2) ** 2)
    assert abs(kurt - 3.0) <= 0.3


def test_kolmogorov_refuses_predictions_below_threshold():
    # theta = d/2 makes the boundary exponent degenerate: slopes are still
    # reported but predictions and pass flags stay empty
    spec = G.SpectralFieldSpec(d=2, theta=1.0, N=8, seed=0)
    scales = [2.0**-e for e in range(4, 7)]
    fc, fb = G.kolmogorov_fit(spec, 1, scales=scales, n_samples=150)
    assert fc.predicted is None and fb.predicted is None
    assert fc.passed is None and fb.passed is None
    assert np.isfinite(fc.slope) and np.isfinite(fb.slope)


def test_kolmogorov_insufficient_samples():
    spec = G.SpectralFieldSpec(d=2, theta=1.5, N=8, seed=1)
    scales = [2.0**-e for e in range(4, 7)]
    with pytest.raises(InsufficientSamplesError) as err:
        G.kolmogorov_fit(spec, 1, scales=scales, n_samples=3)
    assert err.value.fit.ci_halfwidth > 0.3


def test_kolmogorov_validation():
    spec = G.SpectralFieldSpec(d=2, theta=1.5, N=8, seed=0)
    good = [2.0**-e for e in range(4, 7)]
    with pytest.raises(ValueError):
        G.kolmogorov_fit(spec, 1, q=3, scales=good)
    with pytest.raises(ValueError):
        G.kolmogorov_fit(spec, 1, scales=[0.3, 0.15, 0.075])
    with pytest.raises(ValueError):
        G.kolmogorov_fit(spec, 1, scales=[0.25, 0.125, 0.0625])
    with pytest.raises(ValueError):
        G.kolmogorov_fit(spec, 1, scales=good, mode="other")
    with pytest.raises(ValueError):
        G.kolmogorov_fit(spec, 1, scales=good[:2])
    with pytest.raises(ValueError):
        G.kolmogorov_fit(spec, 2, scales=good)  # boundary needs k + 1 <= d
    rough = G.SpectralFieldSpec(d=3, theta=0.8, N=8, seed=0)
    with pytest.raises(ExponentViolationError):
        G.kolmogorov_fit(rough, 1, scales=good)


def test_moment_fit_serialization():
    spec = G.SpectralFieldSpec(d=2, theta=1.5, N=8, seed=5)
    scales = [2.0**-e for e in range(4, 7)]
    fc, _ = G.kolmogorov_fit(spec, 1, scales=scales, n_samples=150)
    blob = fc.to_json()
    assert set(blob) >= {"slope", "predicted", "pass", "scales", "moments"}
    json.dumps(blob)
    rows = fc.to_csv_rows()
    assert rows[0] == ("scale", "moment", "n", "ci")
    assert len(rows) == 1 + len(scales)
    assert rows[1][2] == 150
