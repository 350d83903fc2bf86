"""Tests for cochains: smooth forms, products, wedges, pullbacks, norms.

Expected integrals come from an independent quadrature oracle written
against a different simplex parametrization than the library uses, or
from closed-form values derived by hand in the comments.
"""

import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from roughforms import fitting, forms, gaussian, sewing
from roughforms.embedding import iota_cochain
from roughforms.errors import (
    BudgetExceededError,
    ExponentViolationError,
    NoConvergenceError,
)
from roughforms.geometry import (
    Chain,
    Cube,
    Simplex,
    boundary,
    coordinate_projection_array,
    diameter,
)
from roughforms.sampling import Box, SamplerSpec
from roughforms.sewing import FunctionGerm
from roughforms.subdivision import EDGEWISE, SubdivisionScheme, iterate

from conftest import assert_rounding_close, boundary_chain, snap_to_grid
from test_geometry import canon


# ---------------------------------------------------------------------------
# independent quadrature oracle: iterated map t1=u1, t2=u2(1-t1), ... onto
# the unit simplex, then affine transport; deliberately a different
# construction from the package's collapsed rule


def _oracle_nodes(k, order):
    x, w = leggauss(order)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    if k == 1:
        return x[:, None], w
    if k == 2:
        u, v = np.meshgrid(x, x, indexing="ij")
        wu, wv = np.meshgrid(w, w, indexing="ij")
        t = np.stack([u.ravel(), (v * (1 - u)).ravel()], axis=1)
        return t, (wu * wv * (1 - u)).ravel()
    if k == 3:
        u, v, s = np.meshgrid(x, x, x, indexing="ij")
        wu, wv, ws = np.meshgrid(w, w, w, indexing="ij")
        t = np.stack(
            [
                u.ravel(),
                (v * (1 - u)).ravel(),
                (s * (1 - u) * (1 - v)).ravel(),
            ],
            axis=1,
        )
        return t, (wu * wv * ws * (1 - u) ** 2 * (1 - v)).ravel()
    raise ValueError(k)


def oracle_integral(components, simplex, order=32):
    """High-order quadrature for the integral of sum_I f_I dx^I."""
    v = simplex.vertices
    k = simplex.k
    nodes, weights = _oracle_nodes(k, order)
    edges = v[1:] - v[0]
    pts = v[0] + nodes @ edges
    total = 0.0
    for idx, fn in components.items():
        cols = [i - 1 for i in idx]
        det = float(np.linalg.det(edges[:, cols]))
        vals = np.asarray(fn(pts), dtype=float)
        total += det * float(np.sum(weights * vals))
    return total


def rand_simplex(rng, k, d, scale=1.0):
    return Simplex(rng.random((k + 1, d)) * scale)


def _collapsed_rule(k, order):
    """The library's collapsed Duffy rule written out for each k."""
    x, w = leggauss(order)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    if k == 1:
        return x[:, None], w
    if k == 2:
        u, v = np.meshgrid(x, x, indexing="ij")
        wu, wv = np.meshgrid(w, w, indexing="ij")
        t = np.stack([(u * (1 - v)).ravel(), (u * v).ravel()], axis=1)
        return t, (wu * wv * u).ravel()
    u, v, s = np.meshgrid(x, x, x, indexing="ij")
    wu, wv, ws = np.meshgrid(w, w, w, indexing="ij")
    t = np.stack(
        [(u * (1 - v)).ravel(), (u * v * (1 - s)).ravel(), (u * v * s).ravel()],
        axis=1,
    )
    return t, (wu * wv * ws * u**2 * v).ravel()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_duffy_rule_is_the_per_k_collapsed_rule_bit_for_bit(k):
    for order in range(2, 49):
        # the uncached function, so the test leaves no rules in the cache
        nodes, weights = forms._duffy_rule.__wrapped__(k, order)
        want_nodes, want_weights = _collapsed_rule(k, order)
        np.testing.assert_array_equal(nodes, want_nodes)
        np.testing.assert_array_equal(weights, want_weights)


# named coefficient sets mirroring the catalog, for oracle comparison
CATALOG_COMPONENTS = {
    "dx": ({(1,): lambda p: np.ones(p.shape[:-1])}, 2),
    "dy": ({(2,): lambda p: np.ones(p.shape[:-1])}, 2),
    "x_dy": ({(2,): lambda p: p[..., 0]}, 2),
    "y_dx": ({(1,): lambda p: p[..., 1]}, 2),
    "sin_y_dx": ({(1,): lambda p: np.sin(p[..., 1])}, 2),
    "half_rot": (
        {(1,): lambda p: -0.5 * p[..., 1], (2,): lambda p: 0.5 * p[..., 0]},
        2,
    ),
    "area": ({(1, 2): lambda p: np.ones(p.shape[:-1])}, 2),
    "x_area": ({(1, 2): lambda p: p[..., 0]}, 2),
    "dz3": ({(3,): lambda p: np.ones(p.shape[:-1])}, 3),
    "xz_dy": ({(2,): lambda p: p[..., 0] * p[..., 2]}, 3),
    "twist_area": (
        {
            (1, 2): lambda p: p[..., 2],
            (1, 3): lambda p: np.cos(p[..., 1]),
            (2, 3): lambda p: p[..., 0],
        },
        3,
    ),
}


# ---------------------------------------------------------------------------
# smooth forms


def test_constant_dx_on_unit_segment_is_one():
    a = forms.smooth_form({(1,): 1.0}, 1)
    assert a.eval(Simplex([[0.0], [1.0]]), 1e-10) == pytest.approx(1.0)


def test_x_dy_over_triangle_boundary_is_half():
    # edge-by-edge line integral: 0 on the base, 1/2 on the hypotenuse
    # (x dy with x = 1 - t, y = t), 0 on the vertical leg at x = 0
    a = forms.catalog_form("x_dy")
    tri = Simplex([[0, 0], [1, 0], [0, 1]])
    v, tail = a.eval_with_tail(boundary(tri), 1e-8)
    assert v == pytest.approx(0.5, abs=1e-8 + tail)


def test_x_area_on_unit_triangle():
    # int_0^1 int_0^{1-x} x dy dx = int_0^1 x(1-x) dx = 1/6
    a = forms.catalog_form("x_area")
    tri = Simplex([[0, 0], [1, 0], [0, 1]])
    v, tail = a.eval_with_tail(tri, 1e-9)
    assert abs(v - 1 / 6) <= 1e-9 + tail


def test_smooth_form_matches_oracle_on_random_simplices():
    rng = np.random.default_rng(7)
    comps = {(1,): lambda p: np.sin(p[..., 1]), (2,): lambda p: p[..., 0]}
    a = forms.smooth_form(dict(comps), 2)
    for _ in range(5):
        s = rand_simplex(rng, 1, 2)
        want = oracle_integral(comps, s)
        got, tail = a.eval_with_tail(s, 1e-8)
        assert abs(got - want) <= 1e-8 + tail


def test_volume_form_on_3_simplex():
    a = forms.smooth_form({(1, 2, 3): 1.0}, 3)
    rng = np.random.default_rng(3)
    s = rand_simplex(rng, 3, 3)
    det = np.linalg.det(s.vertices[1:] - s.vertices[0])
    assert a.eval(s, 1e-10) == pytest.approx(det / 6.0)


def test_smooth_form_rejects_bad_indices():
    with pytest.raises(ValueError):
        forms.smooth_form({(2, 1): 1.0}, 2)
    with pytest.raises(ValueError):
        forms.smooth_form({(1,): 1.0, (1, 2): 1.0}, 2)
    with pytest.raises(ValueError):
        forms.smooth_form({(3,): 1.0}, 2)


@pytest.mark.parametrize("freq", [10, 40, 100, 300])
def test_oscillatory_smooth_form_refines_to_its_tolerance(freq):
    # sin(f x1) dx1 along (0,0) -> (1,1) is (1 - cos f) / f; fixed-order
    # quadrature misses it by up to 0.57 at these frequencies
    a = forms.smooth_form({(1,): lambda p: np.sin(freq * p[..., 0])}, 2)
    v, tail = a.eval_with_tail(Simplex([[0, 0], [1, 1]]), 1e-9)
    assert tail <= 1e-9
    assert abs(v - (1 - math.cos(freq)) / freq) <= 1e-9


def test_smooth_form_refinement_stops_at_the_depth_cap():
    # the kink of |x1 - 1/3| is not resolved at 1e-12: the pieces around it
    # halve down to the depth cap, and the evaluation raises with the
    # partial result; the integral is 1/18 + 4/18
    a = forms.smooth_form({(1,): lambda p: np.abs(p[..., 0] - 1 / 3)}, 1)
    seg = Simplex([[0.0], [1.0]])
    with pytest.raises(BudgetExceededError) as exc:
        a.eval_with_tail(seg, 1e-12)
    v, tail = exc.value.partial
    assert 1e-12 < tail < 1e-10
    assert abs(v - 5 / 18) <= tail


def test_rounding_level_tails_are_not_split(monkeypatch):
    # splitting cannot shrink rounding noise, so a tolerance below it is
    # answered from the first quadrature
    def no_children(self, pts):
        raise AssertionError("split a simplex at the rounding level")

    monkeypatch.setattr(SubdivisionScheme, "children_array", no_children)
    a = forms.catalog_form("twist_area")
    s = Simplex([[0.1, 0.2, 0.3], [0.9, 0.1, 0.4], [0.3, 0.8, 0.7]])
    v, tail = a.eval_with_tail(s, 0.0, best_effort=True)
    assert 0.0 < tail <= forms.QUAD_ROUNDING * abs(v)


def _barycenter_germ(a):
    """sigma -> sum_I f_I(barycenter) dx^I(sigma), the germ of a smooth form.

    Its sewing is the form's integral, an oracle for the quadrature path.
    """

    def batch(pts):
        centers = pts.mean(axis=1)
        return sum(
            fn(centers) * coordinate_projection_array(pts, idx)
            for idx, fn in a.components.items()
        )

    return FunctionGerm(batch, gamma=a.k + 1.0)


@pytest.mark.parametrize("name", forms.catalog_names())
def test_smooth_form_matches_the_sewn_barycenter_germ(name):
    a = forms.catalog_form(name)
    s = rand_simplex(np.random.default_rng(23), a.k, a.d)
    tol = 1e-7 if a.k == 1 else 1e-5
    res = sewing.sew(_barycenter_germ(a), s, tol)
    v, tail = a.eval_with_tail(s, tol)
    assert abs(v - res.value) <= tail + res.tail_bound + 1e-15


def test_cochain_is_odd_under_orientation_flip():
    a = forms.catalog_form("x_area")
    rng = np.random.default_rng(11)
    s = rand_simplex(rng, 2, 2)
    assert a.eval(s, 1e-9) == pytest.approx(-a.eval(s.flipped(), 1e-9))


def test_chain_and_cube_evaluation():
    a = forms.catalog_form("dx")
    s = Simplex([[0.0, 0.0], [0.5, 0.25]])
    chain = Chain([(2.0, s), (-1.0, s)])
    assert a.eval(chain, 1e-9) == pytest.approx(a.eval(s, 1e-9))
    cube = Cube([0.2, 0.3], [[1.0, 0.0]], 0.5)
    assert a.eval(cube, 1e-9) == pytest.approx(0.5)


def test_chain_tails_add_up_to_the_tolerance():
    # the term 2 * sigma gets tol / 2 and its tail counts twice: the Whitney
    # sum's tail on sigma is 0.0436 > tol / 2, so 2 * sigma must raise
    # rather than return the tail 0.0871 > tol
    a = iota_cochain(lambda x: x[..., 0] + x[..., 1], 2, n_max=6, nodes=6)
    sigma = Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tol = 0.0653
    with pytest.raises(BudgetExceededError) as exc:
        a.eval_with_tail(Chain([(2, sigma)]), tol)
    value, tail = exc.value.partial
    assert tail > tol
    assert (value, tail) == a.eval_with_tail(
        Chain([(2, sigma)]), tol, best_effort=True
    )
    assert a.eval_with_tail(Chain([(2, sigma)]), 2 * tail)[1] == tail


def test_zero_combination_is_zero_without_warnings():
    a = forms.catalog_form("x_dy")
    pts = np.array([[[0.0, 0.0], [1.0, 0.5]], [[0.2, 0.3], [0.4, 0.9]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, tails = (0 * a).eval_batch(pts, np.full(2, 1e-9))
    assert values.tolist() == [0.0, 0.0] and tails.tolist() == [0.0, 0.0]


def test_chains_and_cubes_cost_one_batch(monkeypatch):
    calls = []
    batch = forms.SmoothFormCochain.eval_batch

    def counting_batch(self, pts, tols):
        calls.append(len(pts))
        return batch(self, pts, tols)

    monkeypatch.setattr(forms.SmoothFormCochain, "eval_batch", counting_batch)
    x_dy = forms.catalog_form("x_dy")
    tri = Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert x_dy.eval(boundary(tri), 1e-9) == pytest.approx(0.5)
    assert calls == [3]
    calls.clear()
    # three copies of the boundary, with coefficients 1, 2 and -1
    chain = boundary(tri) + 2 * boundary(tri) - boundary(tri)
    assert x_dy.eval(chain, 1e-9) == pytest.approx(1.0) and calls == [9]
    calls.clear()
    # the staircase triangulation of a 3-cube: 6 simplices, one batch
    vol = forms.smooth_form({(1, 2, 3): 1.0}, 3)
    cube = Cube([0.1, 0.2, 0.3], np.eye(3), 0.5)
    assert vol.eval(cube, 1e-9) == pytest.approx(0.125) and calls == [6]


def test_eval_rejects_wrong_dimensions():
    a = forms.catalog_form("dx")
    with pytest.raises(ValueError):
        a.eval(Simplex([[0.0], [1.0]]))


def test_repeated_evaluation_is_bitwise_deterministic():
    a = forms.catalog_form("sin_y_dx")
    s = Simplex([[0.1, 0.4], [0.9, 0.8]])
    v1 = a.eval(s, 1e-8)
    v2 = a.eval(s, 1e-8)
    fresh = forms.catalog_form("sin_y_dx").eval(s, 1e-8)
    assert v1 == v2 == fresh


def test_memo_never_serves_a_tail_above_the_request():
    def build():
        f = forms.WeierstrassFunction(0.6, 2, seed=13)
        g = forms.WeierstrassFunction(0.7, 2, seed=14)
        return forms.product(f, forms.increment_form(g))

    seg = Simplex([[0.1, 0.2], [0.3, 0.25]])
    p = build()
    value, tail = p.eval_with_tail(seg, 2.4e-5)
    assert 1e-5 < tail <= 2.4e-5
    with pytest.raises(BudgetExceededError):
        build().eval_with_tail(seg, 1e-5)
    # the cached entry does not meet the tighter request either
    with pytest.raises(BudgetExceededError):
        p.eval_with_tail(seg, 1e-5)
    # a looser request gets what a fresh cochain returns at that
    # tolerance, orientation included
    fresh_value, fresh_tail = build().eval_with_tail(seg, 1e-3)
    assert p.eval_with_tail(seg.flipped(), 1e-3) == (-fresh_value, fresh_tail)


def _resonant_product(rule="vertex_average"):
    f = forms.WeierstrassFunction(0.6, 2, seed=13)
    g = forms.WeierstrassFunction(0.7, 2, seed=14)
    return forms.product(f, forms.increment_form(g), rule=rule)


def test_looser_tolerance_passes_where_a_tighter_one_does():
    # the empirical stop used to fire at 1e-3 with an extrapolated tail of
    # 1.23e-3, although sewing on reached a tail of 3.1e-6
    seg = Simplex([[0.1, 0.2], [0.3, 0.25]])
    tight = _resonant_product("barycenter").eval_with_tail(seg, 1e-4)
    loose = _resonant_product("barycenter").eval_with_tail(seg, 1e-3)
    assert loose == tight
    assert loose[1] == pytest.approx(3.145e-6, rel=1e-3)


def test_memo_sews_a_tighter_request_again_after_a_depth_capped_sew(
    monkeypatch,
):
    # an entry answers only its own tolerance: a tighter request sews
    # again, although with an exact base the capped sew repeats bit for
    # bit, and still raises above tol
    sews = []

    def counting_sew(*args, **kw):
        sews.append(args[1])
        return sewing.sew(*args, **kw)

    monkeypatch.setattr(forms, "sew", counting_sew)
    seg = Simplex([[0.1, 0.2], [0.3, 0.25]])
    p = _resonant_product()
    value, tail = p.eval_with_tail(seg, 1e-4)
    with pytest.raises(BudgetExceededError) as exc:
        p.eval_with_tail(seg, 1e-5)
    assert exc.value.partial == (value, tail)
    assert tail == pytest.approx(1.245e-5, rel=1e-3)
    assert len(sews) == 2
    # the same request again is answered by its entry
    with pytest.raises(BudgetExceededError) as again:
        p.eval_with_tail(seg, 1e-5)
    assert again.value.partial == (value, tail)
    assert len(sews) == 2
    # a fresh cochain raises at 1e-5 with the same partial result
    with pytest.raises(BudgetExceededError) as fresh:
        _resonant_product().eval_with_tail(seg, 1e-5)
    assert fresh.value.partial == (value, tail)
    assert len(sews) == 3


@pytest.mark.parametrize(
    "build, step",
    [
        (_resonant_product, (1.0, 0.0)),
        (lambda: forms.catalog_form("x_dy"), (0.0, 1.0)),
    ],
    ids=["product", "x_dy"],
)
def test_tiny_simplices_get_their_own_values(build, step):
    # segments 2e-13 and 4e-13 long from one point: a memo keyed on
    # coordinates rounded to 1e-12 answered the second with the first's
    # value, half the right one
    start, step = np.array([0.1, 0.2]), np.array(step)
    a = build()
    short = a.eval_with_tail(Simplex([start, start + 2e-13 * step]), 1e-6)
    seg = Simplex([start, start + 4e-13 * step])
    value, tail = a.eval_with_tail(seg, 1e-6)
    assert (value, tail) == build().eval_with_tail(seg, 1e-6)
    assert value != short[0]


# ---------------------------------------------------------------------------
# 0-forms and increment forms


def test_zero_form_and_its_coboundary():
    g = forms.HolderFunction(
        lambda p: np.sin(p[..., 0]) + p[..., 1] ** 2, 1.0, 3.0, d=2
    )
    a0 = forms.ZeroFormCochain(g)
    assert a0.eval(Simplex([[0.5, 2.0]]), 1e-12) == pytest.approx(
        math.sin(0.5) + 4.0
    )
    da = forms.coboundary(a0)
    seg = Simplex([[0.0, 0.0], [1.0, 2.0]])
    assert da.eval(seg, 1e-12) == pytest.approx(math.sin(1.0) + 4.0)


def test_increment_form_is_exact_and_closed():
    g = forms.HolderFunction(lambda p: np.cos(p[..., 0] * p[..., 1]), 1.0, 2.0, d=2)
    dg = forms.increment_form(g)
    seg = Simplex([[0.2, 0.1], [1.3, 0.7]])
    want = math.cos(1.3 * 0.7) - math.cos(0.2 * 0.1)
    v, tail = dg.eval_with_tail(seg, 1e-15)
    assert v == pytest.approx(want) and tail == 0.0
    # increments over a closed boundary telescope to zero
    tri = Simplex([[0, 0], [1, 0], [0.3, 0.8]])
    assert abs(forms.coboundary(dg).eval(tri, 1e-12)) < 1e-12


def test_increment_form_declares_exponents_bound_and_provenance():
    g = forms.WeierstrassFunction(0.7, 3, seed=4)
    dg = forms.increment_form(g)
    assert (dg.k, dg.d, dg.alpha, dg.beta) == (1, 3, 0.7, math.inf)
    assert dg.alpha_norm_bound == g.constant
    assert dg.provenance == "coboundary"
    with pytest.raises(ValueError, match="ambient d"):
        forms.increment_form(forms.HolderFunction(np.cos, 1.0, 1.0))


@pytest.mark.parametrize(
    "increment",
    [forms.increment_form, lambda g: forms.coboundary(forms.ZeroFormCochain(g))],
    ids=["increment_form", "coboundary_of_zero_form"],
)
def test_products_with_an_increment_read_f_and_g_once_per_point(
    monkeypatch, increment
):
    points, results = [], []
    call = forms.HolderFunction.__call__

    def counting_call(self, x):
        points.append(int(np.prod(np.shape(x)[:-1])))
        return call(self, x)

    def recording_sew(*args, **kw):
        results.append(sewing.sew(*args, **kw))
        return results[-1]

    f = forms.WeierstrassFunction(0.6, 2, seed=13)
    p = forms.product(f, increment(forms.WeierstrassFunction(0.7, 2, seed=14)))
    monkeypatch.setattr(forms.HolderFunction, "__call__", counting_call)
    monkeypatch.setattr(forms, "sew", recording_sew)
    _, tail = p.eval_with_tail(Simplex([[0.1, 0.2], [0.3, 0.25]]), 1e-3)
    assert tail <= 1e-3 and len(results) == 1
    # f and g once per lattice point, 2^depth + 1 points on a segment
    assert sum(points) == 2 * (2 ** results[0].depth_used + 1)


@pytest.mark.parametrize("vanishing", ["f", "base"])
def test_product_with_a_vanishing_factor_is_zero_with_bound_zero(vanishing):
    f = forms.WeierstrassFunction(0.6, 2, seed=13)
    a = forms.catalog_form("x_dy")  # no declared alpha-norm bound
    if vanishing == "f":
        p = forms.product(forms.constant_function(0.0, d=2), a)
    else:
        p = forms.product(f, 0 * a)
    assert p.alpha_norm_bound == 0.0 and isinstance(p.alpha_norm_bound, float)
    assert (p.k, p.d, p.alpha, p.provenance) == (1, 2, 1.0, "product")
    seg = Simplex([[0.1, 0.2], [0.7, 0.4]])
    assert p.eval_with_tail(seg, 1e-12) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# the batch protocol: eval_batch(pts, tols) against one row at a time


def _poly_fn():
    return forms.HolderFunction(
        lambda p: p[..., 0] ** 2 - p[..., 1], 1.0, 3.0, d=2
    )


def _product():
    f = forms.HolderFunction(
        lambda p: np.cos(p[..., 0]) + p[..., 1], 1.0, 2.0, d=2
    )
    return forms.product(f, forms.increment_form(_poly_fn()))


def _gaussian(k=1):
    spec = gaussian.SpectralFieldSpec(d=2, theta=1.5, N=8, seed=2)
    return gaussian.sample_form(spec, k)


def _whitney():
    return iota_cochain(lambda x: 1.0 + x[..., 0] * x[..., 1], 2, n_max=3, nodes=4)


def _rowwise(a, s, tol):
    return a.eval_with_tail(s, tol, best_effort=True)


def _on_boundary(a, s, tol):
    # the coboundary is the base cochain on the boundary chain
    return a.base.eval_with_tail(boundary(s), tol, best_effort=True)


# name: (fresh cochain, k, reference per row, how the batch must agree)
BATCH_CASES = {
    "zero_form": (lambda: forms.ZeroFormCochain(_poly_fn()), 0, _rowwise, "exact"),
    "increment": (lambda: forms.increment_form(_poly_fn()), 1, _rowwise, "exact"),
    "zero": (lambda: 0 * forms.catalog_form("area"), 2, _rowwise, "exact"),
    "smooth": (
        lambda: forms.catalog_form("sin_y_dx"), 1, _rowwise, "rounding"
    ),
    "combination": (
        lambda: forms.combination(
            [(2.0, forms.increment_form(_poly_fn())), (-0.5, _product())]
        ),
        1,
        _rowwise,
        "exact",
    ),
    "coboundary": (
        lambda: forms.coboundary(forms.increment_form(_poly_fn())),
        2,
        _on_boundary,
        "exact",
    ),
    "product": (_product, 1, _rowwise, "exact"),
    "pullback": (
        lambda: forms.pullback(
            forms.identity_map(2), forms.catalog_form("x_dy")
        ),
        1,
        _rowwise,
        "rounding",
    ),
    "pullback_sewn": (
        lambda: forms.pullback(
            forms.SmoothMap(lambda x: x, 2, 2), forms.catalog_form("x_dy")
        ),
        1,
        _rowwise,
        "exact",
    ),
    "gaussian": (_gaussian, 1, _rowwise, "rounding"),
    "gaussian_2form": (lambda: _gaussian(2), 2, _rowwise, "rounding"),
    "whitney": (_whitney, 2, _rowwise, "exact"),
}


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_eval_batch_matches_per_row_evaluation(name):
    build, k, reference, agree = BATCH_CASES[name]
    rng = np.random.default_rng(5)
    pts = np.array([rand_simplex(rng, k, 2).vertices for _ in range(3)])
    tols = np.array([1e-6, 1e-5, 1e-4])
    values, tails = build().eval_batch(pts, tols)
    assert values.shape == tails.shape == (3,)
    # a fresh cochain, so no memo entry of the batch can answer for a row
    fresh = build()
    rows = [reference(fresh, Simplex(p), t) for p, t in zip(pts, tols)]
    want, want_tails = (np.array(col) for col in zip(*rows))
    if agree == "exact":
        np.testing.assert_array_equal(values, want)
        np.testing.assert_array_equal(tails, want_tails)
    else:  # one vectorized sum against one per row
        assert agree == "rounding"
        assert_rounding_close(values, want)
        assert_rounding_close(tails, want_tails)


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_a_simplex_is_a_one_row_batch(name):
    build, k, _, _ = BATCH_CASES[name]
    s = rand_simplex(np.random.default_rng(6), k, 2)
    values, tails = build().eval_batch(s.vertices[None], np.array([1e-6]))
    got = build().eval_with_tail(s, 1e-6, best_effort=True)
    assert got == (values[0], tails[0])


def test_a_sewn_row_and_its_reversal_share_one_sew(monkeypatch):
    calls = []
    eval_simplex = forms.SewnCochain._eval_simplex

    def counting(self, simplex, tol):
        calls.append(simplex)
        return eval_simplex(self, simplex, tol)

    monkeypatch.setattr(forms.SewnCochain, "_eval_simplex", counting)
    row = np.array([[0.7, 0.1], [0.2, 0.5]])
    values, tails = _product().eval_batch(
        np.stack([row, row[::-1]]), np.full(2, 1e-6)
    )
    assert len(calls) == 1
    assert values[1] == -values[0] != 0.0
    assert tails[1] == tails[0]


# ---------------------------------------------------------------------------
# products


def test_product_of_y_with_dx_along_horizontal_segment():
    # integral of y dx along y = 1 from x=0 to x=1 is 1
    f = forms.HolderFunction(lambda p: p[..., 1], 1.0, 1.0, d=2)
    a = forms.catalog_form("dx")
    p = forms.product(f, a)
    v, tail = p.eval_with_tail(Simplex([[0.0, 1.0], [1.0, 1.0]]), 1e-8)
    assert abs(v - 1.0) <= 1e-8 + tail


def test_product_matches_young_integral_oracle():
    # x against d(sin x + y^2) along the segment (t, 2t):
    # integrand t (cos t + 8 t) dt on [0, 1]
    g = forms.HolderFunction(
        lambda p: np.sin(p[..., 0]) + p[..., 1] ** 2, 1.0, 5.0, d=2
    )
    f = forms.HolderFunction(lambda p: p[..., 0], 1.0, 1.0, d=2)
    p = forms.product(f, forms.increment_form(g))
    xs, ws = leggauss(40)
    xs = 0.5 * (xs + 1)
    ws = 0.5 * ws
    want = float(np.sum(ws * xs * (np.cos(xs) + 8 * xs)))
    v, tail = p.eval_with_tail(Simplex([[0.0, 0.0], [1.0, 2.0]]), 1e-7)
    assert abs(v - want) <= 1e-7 + tail


def test_product_with_constant_function_is_scalar_multiple():
    a = forms.increment_form(
        forms.HolderFunction(lambda p: p[..., 0] * p[..., 1], 1.0, 2.0, d=2)
    )
    p = forms.product(forms.constant_function(2.5, d=2), a)
    rng = np.random.default_rng(19)
    for _ in range(10):
        s = rand_simplex(rng, 1, 2)
        assert p.eval(s, 1e-9) == pytest.approx(2.5 * a.eval(s, 1e-9), abs=1e-9)


def test_product_with_declared_constant_still_converges():
    # same constant f but declared with a nonzero Hoelder constant, so the
    # sewn path is exercised instead of the closed form
    a = forms.increment_form(
        forms.HolderFunction(lambda p: p[..., 1], 1.0, 1.0, d=2)
    )
    f = forms.HolderFunction(lambda p: np.full(p.shape[:-1], 2.5), 1.0, 0.1, d=2)
    p = forms.product(f, a)
    s = Simplex([[0.1, 0.2], [0.7, 0.9]])
    v, tail = p.eval_with_tail(s, 1e-10)
    assert abs(v - 2.5 * 0.7) <= 1e-9 + tail


def test_product_rules_agree_on_rough_data():
    f = forms.WeierstrassFunction(0.6, 2, seed=11)
    a = forms.increment_form(forms.WeierstrassFunction(0.7, 2, seed=12))
    p_va = forms.product(f, a, rule="vertex_average")
    p_bc = forms.product(f, a, rule="barycenter")
    rng = np.random.default_rng(23)
    for _ in range(5):
        s = rand_simplex(rng, 1, 2)
        v1, t1 = p_va.eval_with_tail(s, 1e-4, best_effort=True)
        v2, t2 = p_bc.eval_with_tail(s, 1e-4, best_effort=True)
        assert abs(v1 - v2) <= t1 + t2 + 1e-12


def test_product_requires_young_exponents():
    f = forms.HolderFunction(lambda p: p[..., 0], 0.3, 1.0, d=2)
    a = forms.increment_form(
        forms.HolderFunction(lambda p: p[..., 1], 0.5, 1.0, d=2)
    )
    with pytest.raises(ExponentViolationError, match="0.5 \\+ 0.3"):
        forms.product(f, a)


def test_product_rejects_unknown_rule():
    f = forms.HolderFunction(lambda p: p[..., 0], 1.0, 1.0, d=2)
    with pytest.raises(ValueError):
        forms.product(f, forms.catalog_form("dx"), rule="midpoint")


def test_product_with_zero_form_is_pointwise():
    f = forms.HolderFunction(lambda p: p[..., 0], 1.0, 1.0, d=2)
    a0 = forms.ZeroFormCochain(
        forms.HolderFunction(lambda p: p[..., 1] + 1.0, 1.0, 1.0, d=2)
    )
    p = forms.product(f, a0)
    assert p.k == 0
    assert p.eval(Simplex([[2.0, 3.0]]), 1e-12) == pytest.approx(8.0)


def test_product_with_combined_zero_form_raises_type_error():
    f = forms.HolderFunction(lambda p: p[..., 0], 1.0, 1.0, d=2)
    a0 = 2 * forms.ZeroFormCochain(
        forms.HolderFunction(lambda p: p[..., 1], 1.0, 1.0, d=2)
    )
    with pytest.raises(TypeError, match="ZeroFormCochain"):
        forms.product(f, a0)
    with pytest.raises(TypeError, match="ZeroFormCochain"):
        forms.wedge_d(f, a0)


def test_young_threshold_sewing_behavior():
    # above the threshold (gamma + alpha > 1) level sums are Cauchy with a
    # negative fitted rate; below it the increments stop decreasing. The
    # pair must be resonant (cosine against sine at the same frequencies)
    # so the piece defects share a sign; independent functions cancel.
    def young_germ(f, g):
        def batch(pts):
            mu = 0.5 * (f(pts[:, 0, :]) + f(pts[:, 1, :]))
            return mu * (g(pts[:, 1, :]) - g(pts[:, 0, :]))

        return sewing.FunctionGerm(batch)

    xi = np.array([0.8, 0.6])

    def resonant_pair(gamma, alpha):
        def f(p):
            t = p @ xi
            return sum(
                2.0 ** (-j * gamma) * np.cos(2 * np.pi * 2**j * t)
                for j in range(13)
            )

        def g(p):
            t = p @ xi
            return sum(
                2.0 ** (-j * alpha) * np.sin(2 * np.pi * 2**j * t)
                for j in range(13)
            )

        return f, g

    seg = Simplex([[0.05, 0.15], [0.85, 0.75]])
    with pytest.raises(BudgetExceededError) as exc:
        sewing.sew(young_germ(*resonant_pair(0.6, 0.7)), seg, 0.0, depth_max=12)
    res = exc.value.partial
    assert res.increment_rate < -0.1
    # the first increment, 4.8e-14, is rounding noise; fitted with the
    # others it turned the rate to +1.05
    sums = np.array(res.level_values)
    assert abs(sums[1] - sums[0]) <= 1e-13 * max(1.0, np.abs(sums).max())
    with pytest.raises(NoConvergenceError) as exc:
        sewing.sew(young_germ(*resonant_pair(0.3, 0.6)), seg, 0.0, depth_max=12)
    assert exc.value.partial.increment_rate > -0.05


def test_rough_product_budget_is_honest():
    f = forms.WeierstrassFunction(0.6, 2, seed=11)
    a = forms.increment_form(forms.WeierstrassFunction(0.7, 2, seed=12))
    p = forms.product(f, a)
    s = Simplex([[0.1, 0.2], [0.8, 0.9]])
    with pytest.raises(BudgetExceededError):
        p.eval(s, 1e-9)
    v, tail = p.eval_with_tail(s, 1e-9, best_effort=True)
    assert np.isfinite(v) and tail > 1e-9


# ---------------------------------------------------------------------------
# coboundary and wedges


def test_coboundary_of_x_dy_is_the_area_form():
    da = forms.coboundary(forms.catalog_form("x_dy"))
    tri = Simplex([[0, 0], [1, 0], [0, 1]])
    v, tail = da.eval_with_tail(tri, 1e-8)
    assert abs(v - 0.5) <= 1e-8 + tail
    assert da.k == 2 and da.provenance == "coboundary"
    assert math.isinf(da.beta)


def test_coboundary_requires_room_for_degree():
    with pytest.raises(ValueError):
        forms.coboundary(forms.catalog_form("area"))


def test_double_coboundary_vanishes():
    a = forms.catalog_form("xz_dy")
    dda = forms.coboundary(forms.coboundary(a))
    rng = np.random.default_rng(31)
    for _ in range(3):
        s = rand_simplex(rng, 3, 3)
        assert abs(dda.eval(s, 1e-7, best_effort=True)) < 1e-7


def test_coboundary_of_constant_form_vanishes():
    da = forms.coboundary(forms.catalog_form("dx"))
    rng = np.random.default_rng(37)
    for _ in range(10):
        s = rand_simplex(rng, 2, 2)
        assert abs(da.eval(s, 1e-10)) < 1e-10


def test_wedge_of_dx_with_dy_is_the_area_form():
    f = forms.HolderFunction(lambda p: p[..., 0], 1.0, 1.0, d=2)
    a = forms.increment_form(
        forms.HolderFunction(lambda p: p[..., 1], 1.0, 1.0, d=2)
    )
    w = forms.wedge_d(f, a)
    tri = Simplex([[0, 0], [1, 0], [0, 1]])
    v, tail = w.eval_with_tail(tri, 1e-6, best_effort=True)
    assert abs(v - 0.5) <= 1e-6 + tail
    assert w.provenance == "wedge"
    assert v == pytest.approx(-w.eval(tri.flipped(), 1e-6, best_effort=True))


def test_wedge_with_constant_function_vanishes():
    a = forms.increment_form(
        forms.HolderFunction(lambda p: p[..., 1], 1.0, 1.0, d=2)
    )
    w = forms.wedge_d(forms.constant_function(3.0, d=2), a)
    tri = Simplex([[0.1, 0.1], [0.9, 0.2], [0.4, 0.8]])
    assert abs(w.eval(tri, 1e-8, best_effort=True)) < 1e-8


def test_wedge_exponent_guards():
    rough = forms.increment_form(forms.WeierstrassFunction(0.4, 2, seed=3))
    f = forms.HolderFunction(lambda p: p[..., 0], 0.5, 1.0, d=2)
    with pytest.raises(ExponentViolationError, match="alpha"):
        forms.wedge_d(f, rough)
    # alpha passes but the beta exponent of a product base fails
    base = forms.product(
        forms.WeierstrassFunction(0.65, 2, seed=4),
        forms.increment_form(forms.WeierstrassFunction(0.7, 2, seed=5)),
    )
    assert base.beta == pytest.approx(0.35)
    f2 = forms.HolderFunction(lambda p: p[..., 0], 0.6, 1.0, d=2)
    with pytest.raises(ExponentViolationError, match="beta"):
        forms.wedge_d(f2, base)


# ---------------------------------------------------------------------------
# Zust forms


def test_zust_recovers_the_area_integral():
    one = forms.constant_function(1.0, d=2)
    gx = forms.HolderFunction(lambda p: p[..., 0], 1.0, 1.0, d=2)
    gy = forms.HolderFunction(lambda p: p[..., 1], 1.0, 1.0, d=2)
    a0 = forms.ZeroFormCochain(forms.constant_function(1.0, d=2))
    z = forms.zust_form(one, [gx, gy], a0)
    tri = Simplex([[0, 0], [1, 0], [0, 1]])
    v, tail = z.eval_with_tail(tri, 1e-3, best_effort=True)
    assert abs(v - 0.5) <= 1e-3 + tail


def test_zust_with_no_wedge_factors_is_a_product():
    g0 = forms.HolderFunction(lambda p: p[..., 1], 1.0, 1.0, d=2)
    a = forms.increment_form(
        forms.HolderFunction(lambda p: p[..., 0], 1.0, 1.0, d=2)
    )
    z = forms.zust_form(g0, [], a)
    p = forms.product(g0, a)
    s = Simplex([[0.0, 1.0], [1.0, 1.0]])
    assert z.eval(s, 1e-8) == pytest.approx(p.eval(s, 1e-8))


def test_zust_names_the_failing_inequality():
    one = forms.constant_function(1.0, d=2)
    rough = [
        forms.WeierstrassFunction(0.4, 2, seed=6),
        forms.WeierstrassFunction(0.4, 2, seed=7),
    ]
    a0 = forms.ZeroFormCochain(forms.WeierstrassFunction(0.1, 2, seed=8))
    # the innermost wedge, dW(0.4) ^ W(0.1), is the first check that fails
    with pytest.raises(
        ExponentViolationError, match=r"wedge needs alpha \+ gamma > 1"
    ):
        forms.zust_form(one, rough, a0)


# ---------------------------------------------------------------------------
# pullbacks


def test_pullback_by_identity_matches_the_form():
    a = forms.catalog_form("x_dy")
    pb = forms.pullback(forms.identity_map(2), a)
    rng = np.random.default_rng(41)
    for _ in range(5):
        s = rand_simplex(rng, 1, 2)
        v1, t1 = pb.eval_with_tail(s, 1e-7, best_effort=True)
        v2, t2 = a.eval_with_tail(s, 1e-7)
        assert abs(v1 - v2) <= t1 + t2 + 1e-9


def test_circle_pullback_of_x_dy_gives_pi():
    # int_0^1 cos(2 pi t) d(sin 2 pi t) = int_0^1 2 pi cos^2(2 pi t) dt = pi
    circle = forms.SmoothMap(
        lambda t: np.stack(
            [np.cos(2 * np.pi * t[..., 0]), np.sin(2 * np.pi * t[..., 0])],
            axis=-1,
        ),
        1,
        2,
        eta=1.0,
    )
    pb = forms.pullback(circle, forms.catalog_form("x_dy"))
    v, tail = pb.eval_with_tail(Simplex([[0.0], [1.0]]), 1e-4, best_effort=True)
    assert abs(v - math.pi) <= 1e-4 + tail


def test_affine_pullback_of_constant_form_is_exact():
    mat = np.array([[1.0, 0.5], [-0.25, 2.0]])
    f = forms.SmoothMap(lambda p: p @ mat.T, 2, 2, eta=1.0)
    pb = forms.pullback(f, forms.catalog_form("dx"))
    s = Simplex([[0.2, 0.7], [1.1, 0.4]])
    image_increment = (mat @ np.array([0.9, -0.3]))[0]
    assert pb.eval(s, 1e-12) == pytest.approx(image_increment, abs=1e-14)


# name: (F, DF as rows of entries, m, d), each a function of the point u
PULLBACK_MAPS = {
    "arc": (
        lambda u: [np.cos(u[..., 0]), np.sin(2 * u[..., 0])],
        lambda u: [[-np.sin(u[..., 0])], [2 * np.cos(2 * u[..., 0])]],
        1,
        2,
    ),
    "helix": (
        lambda u: [np.cos(u[..., 0]), np.sin(u[..., 0]), u[..., 0] ** 2],
        lambda u: [[-np.sin(u[..., 0])], [np.cos(u[..., 0])], [2 * u[..., 0]]],
        1,
        3,
    ),
    "bend": (
        lambda u: [u[..., 0], u[..., 1] + 0.3 * u[..., 0] ** 2],
        lambda u: [[1.0, 0.0], [0.6 * u[..., 0], 1.0]],
        2,
        2,
    ),
    "paraboloid": (
        lambda u: [u[..., 0], u[..., 1], u[..., 0] ** 2 + u[..., 1] ** 2],
        lambda u: [[1.0, 0.0], [0.0, 1.0], [2 * u[..., 0], 2 * u[..., 1]]],
        2,
        3,
    ),
}


def _stack(parts, u):
    return np.stack([np.broadcast_to(p, u.shape[:-1]) for p in parts], axis=-1)


def _pullback_map(name, analytic, eta=1.0):
    fn, jac, m, d = PULLBACK_MAPS[name]

    def jacobian(u):
        return np.stack([_stack(row, u) for row in jac(u)], axis=-2)

    return forms.SmoothMap(
        lambda u: _stack(fn(u), u),
        m,
        d,
        jacobian=jacobian if analytic else None,
        eta=eta,
    )


PULLBACK_CASES = [
    ("arc", "x_dy"),
    ("helix", "xz_dy"),
    ("bend", "sin_y_dx"),
    ("bend", "x_area"),
    ("paraboloid", "xz_dy"),
    ("paraboloid", "twist_area"),
    ("paraboloid", "dx1_dx3"),
    ("bend", "gaussian"),
    ("bend", "gaussian_2form"),
]


def _pullback_form(name):
    if name == "dx1_dx3":
        return forms.smooth_form({(1, 3): 1.0}, 3)
    if name.startswith("gaussian"):
        return _gaussian(2 if name == "gaussian_2form" else 1)
    return forms.catalog_form(name)


@pytest.mark.parametrize("map_name, form_name", PULLBACK_CASES)
def test_closed_form_pullback_matches_the_sewn_one(map_name, form_name):
    a = _pullback_form(form_name)
    closed = forms.pullback(_pullback_map(map_name, True), a)
    sewn = forms.pullback(_pullback_map(map_name, False), a)
    assert isinstance(closed, forms.SmoothFormCochain)
    assert isinstance(sewn, forms.PullbackCochain)
    rng = np.random.default_rng(47)
    # sewn 2-form pullbacks converge slowly, so they get small simplices
    tol, scale = (1e-7, 1.0) if a.k == 1 else (3e-4, 0.5)
    for _ in range(3):
        s = rand_simplex(rng, a.k, closed.d, scale)
        v1, t1 = closed.eval_with_tail(s, tol)
        v2, t2 = sewn.eval_with_tail(s, tol, best_effort=True)
        assert abs(v1 - v2) <= t1 + t2 + 1e-15


def test_closed_form_pullback_keeps_the_sewn_exponents():
    a = forms.catalog_form("twist_area")
    for eta in (1.0, 0.5):
        closed = forms.pullback(_pullback_map("paraboloid", True, eta), a)
        sewn = forms.pullback(_pullback_map("paraboloid", False, eta), a)
        assert isinstance(closed, forms.SmoothFormCochain)
        assert type(sewn) is forms.PullbackCochain
        assert (closed.k, closed.d) == (sewn.k, sewn.d) == (2, 2)
        assert (closed.alpha, closed.beta, closed.provenance) == (
            sewn.alpha,
            sewn.beta,
            "pullback",
        )
    assert closed.beta == 0.5
    # a rough base is sewn whatever the Jacobian
    rough = forms.increment_form(forms.WeierstrassFunction(0.8, 3, seed=2))
    pb = forms.pullback(_pullback_map("paraboloid", True), rough)
    assert type(pb) is forms.PullbackCochain


def test_pullback_requires_enough_regularity():
    rough = forms.increment_form(forms.WeierstrassFunction(0.45, 2, seed=9))
    f = forms.SmoothMap(lambda p: p, 2, 2, eta=1.0)
    with pytest.raises(ExponentViolationError, match="1/\\(1\\+eta\\)"):
        forms.pullback(f, rough)


def test_pullback_composition_law():
    shift = forms.SmoothMap(lambda s: 0.5 * s + 0.1, 1, 1, eta=1.0)
    circle = forms.SmoothMap(
        lambda t: np.stack(
            [np.cos(2 * np.pi * t[..., 0]), np.sin(2 * np.pi * t[..., 0])],
            axis=-1,
        ),
        1,
        2,
        eta=1.0,
    )
    composed = forms.SmoothMap(
        lambda s: np.stack(
            [
                np.cos(2 * np.pi * (0.5 * s[..., 0] + 0.1)),
                np.sin(2 * np.pi * (0.5 * s[..., 0] + 0.1)),
            ],
            axis=-1,
        ),
        1,
        2,
        eta=1.0,
    )
    a = forms.catalog_form("x_dy")
    lhs = forms.pullback(shift, forms.pullback(circle, a))
    rhs = forms.pullback(composed, a)
    seg = Simplex([[0.1], [0.8]])
    v1, t1 = lhs.eval_with_tail(seg, 1e-4, best_effort=True)
    v2, t2 = rhs.eval_with_tail(seg, 1e-4, best_effort=True)
    assert abs(v1 - v2) <= t1 + t2 + 2e-4


def test_pullback_commutes_with_products():
    f_map = forms.SmoothMap(
        lambda p: np.stack(
            [p[..., 0], np.sin(p[..., 0]) + 0.5 * p[..., 0] ** 2], axis=-1
        ),
        1,
        2,
        eta=1.0,
    )
    phi = forms.HolderFunction(
        lambda p: np.cos(p[..., 0] + p[..., 1]), 1.0, 2.0, d=2
    )
    a = forms.increment_form(
        forms.HolderFunction(lambda p: p[..., 1], 1.0, 1.0, d=2)
    )
    lhs = forms.pullback(f_map, forms.product(phi, a))
    phi_pulled = forms.HolderFunction(
        lambda t: np.cos(
            t[..., 0] + np.sin(t[..., 0]) + 0.5 * t[..., 0] ** 2
        ),
        1.0,
        5.0,
        d=1,
    )
    rhs = forms.product(phi_pulled, forms.pullback(f_map, a))
    seg = Simplex([[0.2], [1.1]])
    v1, t1 = lhs.eval_with_tail(seg, 1e-5, best_effort=True)
    v2, t2 = rhs.eval_with_tail(seg, 1e-5, best_effort=True)
    assert abs(v1 - v2) <= t1 + t2 + 2e-5


# ---------------------------------------------------------------------------
# Stokes


def test_stokes_residual_small_for_smooth_form():
    a = forms.catalog_form("x_dy")
    rng = np.random.default_rng(43)
    for _ in range(5):
        s = rand_simplex(rng, 2, 2)
        assert forms.stokes_residual(a, s, tol=1e-7) < 1e-6


def test_stokes_right_side_is_the_boundary_evaluation():
    # stokes_residual's right side dA(omega) is A(boundary omega), summed
    # in another face order, on the smooth and closed cases of this section
    rng = np.random.default_rng(43)
    cases = [(forms.catalog_form("x_dy"), rand_simplex(rng, 2, 2), 1e-7)]
    dg = forms.increment_form(
        forms.HolderFunction(lambda p: np.sin(3 * p[..., 0]) * p[..., 1], 1.0, 4.0, d=2)
    )
    cases.append((dg, Simplex([[0, 0], [0.8, 0.1], [0.3, 0.9]]), 1e-9))
    for a, omega, tol in cases:
        right = forms.coboundary(a).eval_with_tail(omega, tol)
        want = a.eval_with_tail(boundary(omega), tol)
        assert_rounding_close(right, want)


def test_stokes_residual_zero_for_closed_form():
    dg = forms.increment_form(
        forms.HolderFunction(lambda p: np.sin(3 * p[..., 0]) * p[..., 1], 1.0, 4.0, d=2)
    )
    tri = Simplex([[0, 0], [0.8, 0.1], [0.3, 0.9]])
    assert forms.stokes_residual(dg, tri, tol=1e-9) < 1e-9


@pytest.mark.parametrize(
    "vertices",
    [
        [[0.0, 0.0], [1.0, 0.25], [0.5, 0.75]],
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.25], [0.25, 1.0, 0.0], [0.5, 0.5, 1.0]],
    ],
    ids=["triangle", "tetrahedron"],
)
def test_subdivided_boundary_is_the_boundary_of_the_mesh(vertices):
    # stokes_residual's left chain at level n is the boundary of omega's
    # level-n edgewise mesh once interior faces cancel; dyadic vertices
    # keep every midpoint exact, so the two chains match key for key
    omega = Simplex(vertices)
    k = omega.k - 1
    for n in range(4):
        chain = forms.subdivided_boundary(omega, n)
        mesh = Chain([(1, s) for s in iterate(EDGEWISE, omega, n)])
        assert len(chain) == (k + 2) * 2 ** (k * n)
        assert canon(chain) == canon(boundary_chain(mesh))


def test_stokes_residual_for_zero_form_on_segment():
    g = forms.ZeroFormCochain(
        forms.HolderFunction(lambda p: np.sin(3 * p[..., 0]), 1.0, 3.0, d=1)
    )
    seg = Simplex([[0.1], [0.9]])
    assert forms.stokes_residual(g, seg, tol=1e-9) < 1e-14


def test_stokes_residual_for_smooth_two_form_on_tetrahedron():
    a = forms.smooth_form(
        {
            (1, 2): lambda p: np.sin(p[..., 2]) + p[..., 0],
            (2, 3): lambda p: p[..., 0] * p[..., 1],
        },
        3,
    )
    tet = Simplex([[0, 0, 0], [0.9, 0.1, 0], [0.2, 0.8, 0.1], [0.3, 0.2, 0.7]])
    assert forms.stokes_residual(a, tet, tol=1e-6) < 1e-6


def test_stokes_residual_for_rough_product():
    f = forms.WeierstrassFunction(0.6, 2, seed=13)
    a = forms.increment_form(forms.WeierstrassFunction(0.7, 2, seed=14))
    p = forms.product(f, a)
    tri = Simplex([[0.0, 0.0], [0.6, 0.1], [0.2, 0.5]])
    assert forms.stokes_residual(p, tri, tol=1e-4) < 1e-3


def test_curved_patch_stokes_matches_surface_oracle():
    # F(u, v) = (u, v, u^2 + v^2); the coboundary of the pulled-back
    # primitive x dz is the pullback of dx^dz, classically
    # du ^ (2u du + 2v dv) = 2v du dv, whose integral over the unit
    # triangle is 1/3
    f_map = forms.SmoothMap(
        lambda p: np.stack(
            [p[..., 0], p[..., 1], p[..., 0] ** 2 + p[..., 1] ** 2], axis=-1
        ),
        2,
        3,
        eta=1.0,
    )
    pb = forms.pullback(f_map, forms.smooth_form({(3,): lambda p: p[..., 0]}, 3))
    tri = Simplex([[0, 0], [1, 0], [0, 1]])
    assert forms.stokes_residual(pb, tri, tol=1e-4) < 1e-4
    v = forms.coboundary(pb).eval(tri, 1e-4, best_effort=True)
    assert abs(v - 1 / 3) < 1e-4


# ---------------------------------------------------------------------------
# norms and flat distances


def test_norm_estimate_of_dx_is_bounded_by_one():
    # |dx(sigma)| is the first-coordinate increment, at most diam = mass_1
    a = forms.catalog_form("dx")
    spec = SamplerSpec(samples_per_band=15, n_bands=3, seed=2)
    rep = forms.norm_estimate(a, 1.0, 1.0, Box.unit(2), spec)
    assert 0.5 <= rep.alpha_norm <= 1.0 + 1e-9
    assert rep.beta_norm < 1e-7
    assert rep.ratio <= 10.0
    assert rep.n_samples == 90


def test_norm_estimate_sups_grow_with_more_samples():
    a = forms.catalog_form("x_dy")
    small = forms.norm_estimate(
        a, 1.0, 1.0, Box.unit(2), SamplerSpec(samples_per_band=8, n_bands=3, seed=6)
    )
    big = forms.norm_estimate(
        a, 1.0, 1.0, Box.unit(2), SamplerSpec(samples_per_band=16, n_bands=3, seed=6)
    )
    for rec_s, rec_b in zip(small.per_band, big.per_band):
        assert rec_b["sup_mass"] >= rec_s["sup_mass"] - 1e-15
        assert rec_b["sup_diam"] >= rec_s["sup_diam"] - 1e-15
        assert rec_b["sup_boundary"] >= rec_s["sup_boundary"] - 1e-15


def test_norm_report_json_has_every_field():
    a = forms.catalog_form("dy")
    rep = forms.norm_estimate(
        a, 1.0, 1.0, Box.unit(2), SamplerSpec(samples_per_band=4, n_bands=2, seed=1)
    )
    blob = rep.to_json()
    assert set(blob) >= {
        "alpha",
        "beta",
        "alpha_norm",
        "alpha_norm_diam",
        "beta_norm",
        "ratio",
        "per_band",
    }


def test_flat_norm_upper_examples():
    s = Simplex([[-1.0, 0.0], [1.0, 0.0]])
    assert forms.flat_norm_upper(s, s, 0.7, 1.0) == 0.0
    # one endpoint moved along the unit circle keeps the enclosing radius
    # at exactly 1, so the lemma bound is mu^alpha + mu^beta
    theta = 0.4
    moved = Simplex([[-1.0, 0.0], [math.cos(theta), math.sin(theta)]])
    mu = float(np.linalg.norm(s.vertices[1] - moved.vertices[1]))
    got = forms.flat_norm_upper(s, moved, 0.6, 1.0)
    assert got == pytest.approx(mu**0.6 + mu, rel=1e-9)


def test_flat_norm_requires_matching_shape():
    with pytest.raises(ValueError):
        forms.flat_norm_upper(
            Simplex([[0.0, 0.0], [1.0, 0.0]]),
            Simplex([[0, 0], [1, 0], [0, 1]]),
            0.5,
            1.0,
        )


def test_snap_distance_regression_slope():
    alpha = 0.5
    s = Simplex([[0.137, 0.291], [0.823, 0.617]])
    levels = np.arange(3, 10)
    bounds = [
        forms.flat_norm_upper(s, snap_to_grid(s, int(n)), alpha, 1.0)
        for n in levels
    ]
    slope, _ = fitting.line_fit(levels, np.log(bounds))
    assert slope == pytest.approx(-alpha * math.log(2), abs=0.1)


# ---------------------------------------------------------------------------
# scalar ingredients


def test_weierstrass_is_reproducible_and_holder():
    w1 = forms.WeierstrassFunction(0.6, 2, seed=5)
    w2 = forms.WeierstrassFunction(0.6, 2, seed=5)
    rng = np.random.default_rng(8)
    pts = rng.random((40, 2))
    assert np.array_equal(w1(pts), w2(pts))
    x, y = rng.random((2, 200, 2))
    lhs = np.abs(w1(x) - w1(y))
    rhs = w1.constant * np.linalg.norm(x - y, axis=1) ** 0.6
    assert np.all(lhs <= rhs)


def test_weierstrass_values_equal_the_per_term_sum():
    # term j is 2^(-j g) cos(2^j (2 pi <xi_j, x>)), rounded in that order
    w = forms.WeierstrassFunction(0.6, 3, seed=4)
    x = np.random.default_rng(9).uniform(-2.0, 2.0, (257, 3))
    phases = np.tensordot(x, w.xi, axes=([-1], [1]))
    terms = [
        2.0 ** (-0.6 * j) * np.cos(2.0**j * (2.0 * math.pi * phases[:, j]))
        for j in range(w.LEVELS)
    ]
    assert np.array_equal(w(x), np.sum(np.stack(terms, axis=-1), axis=-1))


def test_weierstrass_seeds_differ():
    w1 = forms.WeierstrassFunction(0.6, 2, seed=5)
    w2 = forms.WeierstrassFunction(0.6, 2, seed=6)
    pts = np.random.default_rng(0).random((10, 2))
    assert not np.array_equal(w1(pts), w2(pts))


def test_holder_function_validates_gamma():
    with pytest.raises(ValueError):
        forms.HolderFunction(lambda p: p[..., 0], 1.5, 1.0)
    with pytest.raises(ValueError):
        forms.HolderFunction(lambda p: p[..., 0], 0.0, 1.0)


def test_smooth_map_jacobians_agree():
    def fn(p):
        return np.stack(
            [p[..., 0] * p[..., 1], p[..., 0] ** 2 + np.sin(p[..., 1])],
            axis=-1,
        )

    def jac(p):
        x, y = p[..., 0], p[..., 1]
        row1 = np.stack([y, x], axis=-1)
        row2 = np.stack([2 * x, np.cos(y)], axis=-1)
        return np.stack([row1, row2], axis=-2)

    analytic = forms.SmoothMap(fn, 2, 2, jacobian=jac)
    rng = np.random.default_rng(12)
    pts = rng.random((20, 2))
    ja = analytic.jacobian(pts)
    # central differences, column j from the step h e_j
    h = 1e-6
    jn = np.stack(
        [(fn(pts + h * e) - fn(pts - h * e)) / (2 * h) for e in np.eye(2)],
        axis=-1,
    )
    assert np.max(np.abs(ja - jn)) <= 1e-5 * max(1.0, np.max(np.abs(ja)))
    with pytest.raises(ValueError, match="no analytic Jacobian"):
        forms.SmoothMap(fn, 2, 2).jacobian(pts)


def test_smooth_map_validates_output_shape():
    bad = forms.SmoothMap(lambda p: p[..., 0], 2, 2)
    with pytest.raises(ValueError):
        bad(np.zeros(2))


# ---------------------------------------------------------------------------
# catalog and arithmetic


def test_catalog_forms_match_the_oracle():
    rng = np.random.default_rng(17)
    for name in forms.catalog_names():
        comps, d = CATALOG_COMPONENTS[name]
        a = forms.catalog_form(name)
        s = rand_simplex(rng, a.k, d)
        want = oracle_integral(comps, s)
        got, tail = a.eval_with_tail(s, 1e-8)
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want)) + tail, name


def test_catalog_rejects_unknown_names():
    with pytest.raises(KeyError):
        forms.catalog_form("no_such_form")


def test_catalog_returns_fresh_instances():
    a = forms.catalog_form("dx")
    b = forms.catalog_form("dx")
    assert a is not b and a._memo is not b._memo


def test_cochain_linear_arithmetic():
    a = forms.catalog_form("x_dy")
    b = forms.catalog_form("y_dx")
    s = Simplex([[0.1, 0.2], [0.9, 0.7]])
    va = a.eval(s, 1e-9)
    vb = b.eval(s, 1e-9)
    combo = 2 * a - b
    v, tail = combo.eval_with_tail(s, 1e-8, best_effort=True)
    assert abs(v - (2 * va - vb)) <= 1e-8 + tail


def test_product_declares_provenance_and_exponents():
    p = forms.product(
        forms.WeierstrassFunction(0.6, 2, seed=1),
        forms.increment_form(forms.WeierstrassFunction(0.7, 2, seed=2)),
    )
    assert p.provenance == "product"
    assert p.alpha == pytest.approx(0.7)
    assert p.beta == pytest.approx(0.3)


@pytest.mark.parametrize(
    "build_a, build_b",
    [
        (
            lambda: forms.catalog_form("sin_y_dx"),
            lambda: forms.catalog_form("x_dy"),
        ),
        (_product, lambda: forms.increment_form(_poly_fn())),
    ],
    ids=["smooth", "sewn"],
)
def test_negation_and_sum_evaluate_term_by_term(build_a, build_b):
    s = Simplex([[0.1, 0.2], [0.7, 0.5]])
    a, ta = build_a().eval_with_tail(s, 1e-6)
    b, tb = build_b().eval_with_tail(s, 1e-6)
    neg, t_neg = (-build_a()).eval_with_tail(s, 1e-6)
    total, t_total = (build_a() + build_b()).eval_with_tail(s, 1e-6)
    rounding = 4 * np.finfo(float).eps * (abs(a) + abs(b))
    assert abs(neg + a) <= t_neg + ta + rounding
    assert abs(total - (a + b)) <= t_total + ta + tb + rounding
    assert neg != 0.0 and total != a
