"""Tests for component extraction (pi_J) and Whitney evaluation (iota)."""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from roughforms import embedding, forms
from roughforms.embedding import TestFunction, iota, iota_cochain, pi_J
from roughforms.errors import QuadratureBudgetError, UnsupportedDimensionError
from roughforms.geometry import Simplex


def gl_box(lo, hi, nodes):
    """Plain tensor Gauss-Legendre rule over an axis box."""
    x, w = leggauss(nodes)
    axes_x = [0.5 * (b - a) * x + 0.5 * (a + b) for a, b in zip(lo, hi)]
    axes_w = [0.5 * (b - a) * w for a, b in zip(lo, hi)]
    grids = np.meshgrid(*axes_x, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*axes_w, indexing="ij")
    weights = np.ones(pts.shape[0])
    for g in wgrids:
        weights = weights * g.ravel()
    return pts, weights


def pair_density(dens, psi, nodes=60):
    """Independent quadrature of integral dens(u) psi(u) du."""
    lo, hi = psi.support_box()
    pts, weights = gl_box(lo, hi, nodes)
    return float(np.sum(weights * dens(pts) * psi(pts)))


# ---------------------------------------------------------------------------
# test functions


def test_bump_supported_on_declared_ball():
    psi = TestFunction(2, center=[0.3, -0.2], radius=0.4, m=6)
    rng = np.random.default_rng(11)
    dirs = rng.normal(size=(40, 2))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    inside = psi.center + 0.4 * 0.9 * dirs * rng.uniform(0.1, 1.0, (40, 1))
    outside = psi.center + 0.4 * 1.000001 * dirs
    assert np.all(psi(inside) > 0.0)
    assert np.all(psi(outside) == 0.0)
    # single-point call broadcasts over the leading axes
    assert psi(psi.center) == pytest.approx(1.0)


def test_bump_derivative_matches_finite_differences():
    psi = TestFunction(2, center=[0.2, -0.1], radius=0.7, m=6)
    rng = np.random.default_rng(5)
    pts = psi.center + rng.uniform(-0.4, 0.4, (30, 2))
    h = 1e-6
    for axis in (1, 2):
        e = np.zeros(2)
        e[axis - 1] = h
        fd = (psi(pts + e) - psi(pts - e)) / (2 * h)
        got = psi.derivative((axis,))(pts)
        assert np.max(np.abs(got - fd)) < 1e-6
    d1 = psi.derivative((1,))
    e2 = np.array([0.0, h])
    fd12 = (d1(pts + e2) - d1(pts - e2)) / (2 * h)
    got12 = psi.derivative((1, 2))(pts)
    assert np.max(np.abs(got12 - fd12)) < 1e-5
    # d = 3, J = (1, 2, 3), on the bump and on its rescaling; m = 3 leaves
    # no envelope power, |J| = m
    lam, x = 0.6, np.array([0.2, 0.1, -0.1])
    offsets = rng.uniform(-0.4, 0.4, (30, 3))  # inside either support
    e3 = np.array([0.0, 0.0, h])
    for m in (6, 3):
        psi = TestFunction(3, center=[0.1, -0.2, 0.3], radius=0.8, m=m)
        scaled = psi.rescaled(lam, x)
        for bump, pts in (
            (psi, psi.center + offsets),
            (scaled, scaled.center + lam * offsets),
        ):
            d12 = bump.derivative((1, 2))
            fd = (d12(pts + e3) - d12(pts - e3)) / (2 * h)
            got = bump.derivative((1, 2, 3))(pts)
            assert np.max(np.abs(got - fd)) < 1e-6 * np.max(np.abs(got))
        # each derivative of the rescaled bump picks up one 1/lambda
        want = lam ** (-3 - 3) * psi.derivative((3, 1, 2))((pts - x) / lam)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_bump_rescale_law_is_exact():
    psi = TestFunction(2, center=[0.1, 0.2], radius=0.6, m=5)
    lam, x = 0.37, np.array([0.4, 0.1])
    scaled = psi.rescaled(lam, x)
    rng = np.random.default_rng(3)
    pts = x + rng.uniform(-0.5, 0.5, (200, 2))
    want = lam**-2 * psi((pts - x) / lam)
    assert np.max(np.abs(scaled(pts) - want)) < 1e-12
    # derivative of the rescaled bump picks up one extra 1/lambda per axis
    dg = scaled.derivative((1,))(pts)
    dw = lam ** (-2 - 1) * psi.derivative((1,))((pts - x) / lam)
    assert np.max(np.abs(dg - dw)) < 1e-12


def test_bump_validation_errors():
    with pytest.raises(ValueError, match="center"):
        TestFunction(2, center=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="radius"):
        TestFunction(2, radius=0.0)
    with pytest.raises(ValueError, match="m"):
        TestFunction(2, m=0)
    psi = TestFunction(2, m=3)
    with pytest.raises(ValueError, match="distinct"):
        psi.derivative((1, 1))
    with pytest.raises(ValueError, match="1..d"):
        psi.derivative((3,))
    with pytest.raises(ValueError, match="order too low"):
        TestFunction(2, m=1).derivative((1, 2))
    with pytest.raises(ValueError, match="lambda"):
        psi.rescaled(0.0, [0.0, 0.0])


# ---------------------------------------------------------------------------
# component extraction


def test_extraction_matches_density_pairing_k1():
    psi = TestFunction(2, center=[0.4, 0.5], radius=0.35, m=6)
    cases = [
        ("x_dy", (2,), lambda u: u[:, 0]),
        ("sin_y_dx", (1,), lambda u: np.sin(u[:, 1])),
    ]
    for name, J, dens in cases:
        got = pi_J(forms.catalog_form(name), psi, J)
        assert got == pytest.approx(pair_density(dens, psi), abs=1e-8)


def test_extraction_matches_density_pairing_k2():
    psi = TestFunction(2, center=[0.4, 0.5], radius=0.35, m=6)
    cases = [
        ("x_area", (1, 2), lambda u: u[:, 0]),
        ("area", (1, 2), lambda u: np.ones(len(u))),
    ]
    for name, J, dens in cases:
        got = pi_J(forms.catalog_form(name), psi, J)
        assert got == pytest.approx(pair_density(dens, psi), abs=1e-5)


def test_extraction_matches_density_pairing_d3():
    psi = TestFunction(3, center=[0.3, 0.4, 0.5], radius=0.3, m=6)
    cases = [
        ("dz3", (3,), lambda u: np.ones(len(u))),
        ("xz_dy", (2,), lambda u: u[:, 0] * u[:, 2]),
    ]
    for name, J, dens in cases:
        got = pi_J(forms.catalog_form(name), psi, J, nodes=20)
        want = pair_density(dens, psi, nodes=40)
        assert got == pytest.approx(want, abs=1e-7)


def test_extraction_off_component_vanishes():
    psi = TestFunction(2, center=[0.4, 0.5], radius=0.35, m=6)
    assert pi_J(forms.catalog_form("dy"), psi, (1,)) == 0.0
    psi3 = TestFunction(3, center=[0.3, 0.4, 0.5], radius=0.3, m=6)
    assert pi_J(forms.catalog_form("dz3"), psi3, (2,), nodes=16) == 0.0


def test_extraction_is_linear():
    psi = TestFunction(2, center=[0.4, 0.5], radius=0.35, m=6)
    a = forms.catalog_form("x_dy")
    b = forms.catalog_form("sin_y_dx")
    combo = pi_J(2.0 * a - b, psi, (2,))
    parts = 2.0 * pi_J(a, psi, (2,)) - pi_J(b, psi, (2,))
    assert combo == pytest.approx(parts, abs=1e-12)


def test_extraction_validation_and_budget():
    psi = TestFunction(2, m=6)
    a = forms.catalog_form("x_dy")
    with pytest.raises(ValueError, match="distinct axes"):
        pi_J(a, psi, (1, 2))
    with pytest.raises(ValueError, match="1..d"):
        pi_J(a, psi, (3,))
    area = forms.catalog_form("area")
    with pytest.raises(ValueError, match="distinct axes"):
        pi_J(area, psi, (2, 2))
    with pytest.raises(ValueError, match="dimension"):
        pi_J(a, TestFunction(3, m=6), (2,))
    with pytest.raises(ValueError, match="bump order"):
        pi_J(a, TestFunction(2, m=2), (2,))
    with pytest.raises(QuadratureBudgetError):
        pi_J(forms.catalog_form("dz3"), TestFunction(3, m=6), (3,), nodes=200)


def test_zero_combination_pairs_to_zero_against_dictionary():
    """A cochain whose pairings all vanish over a bump dictionary is zero.

    The exactly-zero combination pairs below 1e-12 against 50 randomly
    placed and sized bumps; the nonzero control is well separated.
    """
    a = forms.catalog_form("x_dy")
    zero = a - a
    rng = np.random.default_rng(7)
    worst_zero = 0.0
    worst_ctrl = 0.0
    for _ in range(50):
        center = rng.uniform(0.15, 0.85, 2)
        radius = rng.uniform(0.08, 0.3)
        psi = TestFunction(2, center=center, radius=radius, m=6)
        worst_zero = max(worst_zero, abs(pi_J(zero, psi, (2,), nodes=12)))
        worst_ctrl = max(worst_ctrl, abs(pi_J(a, psi, (2,), nodes=12)))
    assert worst_zero < 1e-12
    assert worst_ctrl > 1e-4


def test_scaling_probe_smooth_form_slope_near_zero():
    a = forms.catalog_form("x_dy")
    probe = embedding.scaling_probe(a, TestFunction(2, m=6), (2,), [0.4, 0.5])
    assert probe.slope > -0.15
    assert abs(probe.slope) < 0.05
    assert len(probe.records) == 5
    lams = [r.lam for r in probe.records]
    assert lams == [2.0**-i for i in range(1, 6)]
    blob = probe.to_json()
    assert set(blob) == {"slope", "records"}
    assert set(blob["records"][0]) == {"J", "lambda", "value"}
    # drifting down at rate lambda: pairings converge to the density at x
    psi_mass = pair_density(lambda u: np.ones(len(u)), TestFunction(2, m=6))
    assert probe.records[-1].value == pytest.approx(0.4 * psi_mass, rel=1e-3)


# ---------------------------------------------------------------------------
# Whitney evaluation


def test_whitney_evaluation_of_constant_matches_volume():
    tri = Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    one = lambda p: np.ones(len(p))
    res = iota(one, tri, n_max=8, nodes=8)
    assert abs(res.value - 0.5) <= res.tail_bound + 1e-12
    assert res.covered_volume <= 0.5
    assert res.n_cubes > 0
    assert float(res) == res.value
    blob = res.to_json()
    assert set(blob) == {"value", "tail_bound", "covered_volume", "n_cubes"}
    fine = iota(one, tri, n_max=10, nodes=8)
    assert fine.covered_volume / 0.5 > 0.99
    assert abs(fine.value - 0.5) <= fine.tail_bound + 1e-12
    assert fine.tail_bound < res.tail_bound


def test_whitney_evaluation_flips_with_orientation():
    one = lambda p: np.ones(len(p))
    tri = Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tri_r = Simplex([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    a = iota(one, tri, n_max=6, nodes=8)
    b = iota(one, tri_r, n_max=6, nodes=8)
    assert b.value == -a.value


def test_whitney_evaluation_dimension_guards():
    one = lambda p: np.ones(len(p))
    seg_in_plane = Simplex([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(UnsupportedDimensionError):
        iota(one, seg_in_plane, n_max=4)
    tet = Simplex(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    with pytest.raises(UnsupportedDimensionError):
        iota(one, tet, n_max=4)
    with pytest.raises(UnsupportedDimensionError):
        iota_cochain(one, d=3)


def test_whitney_evaluation_segment_within_tail():
    F = lambda p: 1.0 + 0.5 * np.sin(2.0 * p[:, 0])
    seg = Simplex([[0.1], [0.8]])
    res = iota(F, seg, n_max=8, nodes=8)
    x, w = leggauss(200)
    xs = 0.1 + 0.35 * (x + 1.0)
    want = float(np.sum(0.35 * w * F(xs[:, None])))
    assert abs(res.value - want) <= res.tail_bound


def test_whitney_cochain_round_trip_d1():
    F = lambda p: 1.0 + 0.5 * np.sin(2.0 * p[:, 0])
    a = iota_cochain(F, d=1, n_max=8, nodes=8)
    psi = TestFunction(1, center=[0.45], radius=0.4, m=6)
    got = pi_J(a, psi, (1,))
    want = pair_density(lambda u: F(u), psi, nodes=200)
    assert abs(got - want) < 1e-2
    # the cochain agrees with the direct evaluation on a plain simplex
    seg = Simplex([[0.1], [0.8]])
    direct = iota(F, seg, n_max=8, nodes=8)
    assert a.eval(seg, tol=1.0, best_effort=True) == direct.value


def test_whitney_cochain_round_trip_d2():
    F = lambda p: 1.0 + 0.3 * np.cos(2.0 * p[:, 0]) * p[:, 1]
    a = iota_cochain(F, d=2, n_max=5, nodes=6)
    psi = TestFunction(2, center=[0.45, 0.4], radius=0.3, m=6)
    got = pi_J(a, psi, (1, 2), nodes=10)
    want = pair_density(lambda u: F(u), psi, nodes=80)
    assert abs(got - want) < 1e-2
