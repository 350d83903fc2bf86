import math

import numpy as np
import pytest

from roughforms import forms, sampling, sewing, subdivision
from roughforms.errors import BudgetExceededError, NoConvergenceError
from roughforms.geometry import Chain, Simplex, diameter
from roughforms.sewing import FunctionGerm, sew
from roughforms.subdivision import EDGEWISE

from conftest import (
    BarycenterProduct,
    assert_rounding_close,
    axis_box_chain,
    estimate_germ_norms,
    two_piece_split,
)


def seg(a, b):
    return Simplex(np.array([[a], [b]], dtype=float))


UNIT = seg(0.0, 1.0)


def dx_germ():
    # integral of dx over an oriented segment; exactly additive
    return FunctionGerm(lambda p: p[:, 1, 0] - p[:, 0, 0])


def square_diameter_germ(**kw):
    # signed diam^2: odd under orientation flip, defect-exponent 2
    def batch(p):
        e = p[:, 1, 0] - p[:, 0, 0]
        return e * np.abs(e)

    return FunctionGerm(batch, **kw)


def midpoint_germ(f, **kw):
    # f at the midpoint times the signed extent; a one-point quadrature germ
    def batch(p):
        mid = 0.5 * (p[:, 0, 0] + p[:, 1, 0])
        return f(mid) * (p[:, 1, 0] - p[:, 0, 0])

    return FunctionGerm(batch, **kw)


def left_anchor_germ(f):
    # f at the first vertex times the signed extent (left Riemann rule)
    def batch(p):
        return f(p[:, 0, 0]) * (p[:, 1, 0] - p[:, 0, 0])

    return FunctionGerm(batch)


def centroid_area_germ(f):
    # f at the centroid times the signed area of a plane triangle
    def batch(p):
        cen = p.mean(axis=1)
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        return f(cen[:, 0], cen[:, 1]) * area

    return FunctionGerm(batch)


def tri_diameter_cubed_germ():
    def batch(p):
        d01 = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
        d02 = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
        d12 = np.linalg.norm(p[:, 2] - p[:, 1], axis=1)
        return np.maximum(d01, np.maximum(d02, d12)) ** 3

    return FunctionGerm(batch, gamma=3.0, delta_norm=0.125)


# ---------------------------------------------------------------------------
# sew


def test_sew_additive_germ_returns_exact_value():
    res = sew(dx_germ(), UNIT, tol=1e-8)
    assert res.value == pytest.approx(1.0, abs=1e-14)
    assert res.tail_bound == 0.0
    assert res.depth_used == 3


def test_sew_midpoint_rule_linear_integrand():
    # midpoint quadrature is exact on linear integrands, so the level sums
    # are constant at the true integral of x on [0,1]
    res = sew(midpoint_germ(lambda x: x), UNIT, tol=1e-8)
    assert res.value == pytest.approx(0.5, abs=1e-8)


def test_sew_midpoint_rule_quadratic_integrand():
    # level-n sum is the 2^n-interval midpoint rule for x^2, converging to
    # 1/3 with error 4^-n / 12
    res = sew(midpoint_germ(lambda x: x * x), UNIT, tol=1e-6)
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert abs(res.value - 1.0 / 3.0) <= res.tail_bound
    # increments shrink by 1/4 per level
    assert res.increment_rate == pytest.approx(math.log(0.25), abs=0.05)


def test_sew_negligible_germ_analytic_tail_is_tight():
    # level-n sum of signed diam^2 on [0,1] is exactly 2^-n and the
    # geometric tail bound 2 q^n/(1-q) * 1/4 with q = 2 (1/2)^2 equals it
    germ = square_diameter_germ(gamma=2.0, delta_norm=0.25)
    res = sew(germ, UNIT, tol=1e-3)
    assert res.depth_used == 10
    assert res.value == pytest.approx(2.0**-10, abs=1e-18)
    assert res.tail_bound == pytest.approx(2.0**-10, rel=1e-12)
    assert abs(res.value - 0.0) <= res.tail_bound


def test_sew_negligible_triangle_germ_vanishes():
    # all four children of a plane triangle are similar at ratio 1/2, so
    # the diam^3 level sums are 4^n (2^-n)^3 = 2^-n, with one-step defect
    # diam^3 / 2 over families of 4, i.e. delta-norm 1/8
    tri = Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]))
    res = sew(tri_diameter_cubed_germ(), tri, tol=5e-3)
    assert res.depth_used == 8
    assert res.value == pytest.approx(2.0**-8, rel=1e-9)
    assert res.tail_bound <= 5e-3


def test_sew_no_convergence_for_subcritical_exponent():
    # signed diam^0.5 grows: level sums are 2^(n/2)
    def batch(p):
        e = p[:, 1, 0] - p[:, 0, 0]
        return np.sign(e) * np.sqrt(np.abs(e))

    germ = FunctionGerm(batch)
    with pytest.raises(NoConvergenceError) as exc:
        sew(germ, UNIT, tol=1e-6)
    partial = exc.value.partial
    assert partial.depth_used >= 4
    assert partial.level_values[0] == pytest.approx(1.0)


@pytest.mark.parametrize("delta_norm", [-0.125, math.inf, math.nan])
def test_function_germ_rejects_a_delta_norm_that_bounds_nothing(delta_norm):
    # a negative delta-norm makes the analytic tail negative, so the first
    # level would stop as certified
    with pytest.raises(ValueError, match="delta_norm"):
        FunctionGerm(
            lambda p: p[:, 1, 0] - p[:, 0, 0], gamma=3.0, delta_norm=delta_norm
        )


def test_sew_budget_exceeded_carries_partial():
    germ = midpoint_germ(lambda x: x * x)
    with pytest.raises(BudgetExceededError) as exc:
        sew(germ, UNIT, tol=1e-14, depth_max=5)
    partial = exc.value.partial
    assert partial.depth_used == 5
    assert len(partial.level_values) == 6
    assert partial.value == pytest.approx(1.0 / 3.0, abs=1e-3)


# ---------------------------------------------------------------------------
# sewing over a chain: Cochain.eval_with_tail sums the terms and splits
# tol among them by |coefficient| / sum |coefficient|


def test_sew_chain_empty_is_zero():
    dx = forms.smooth_form({(1,): 1.0}, 1)
    assert dx.eval_with_tail(Chain([]), 1e-8) == (0.0, 0.0)


def test_sew_chain_cancelling_pair_is_zero():
    dx = forms.smooth_form({(1,): 1.0}, 1)
    chain = Chain([(1, UNIT), (-1, UNIT)])
    assert dx.eval(chain, 1e-8) == pytest.approx(0.0, abs=1e-15)


def test_sew_chain_unit_square_linear_integrand():
    # the integral of x + y over the unit square is 1
    chain = axis_box_chain(np.zeros(2), (1, 2), (1.0, 1.0))
    xy = forms.smooth_form({(1, 2): lambda p: p[..., 0] + p[..., 1]}, 2)
    assert xy.eval(chain, 1e-8) == pytest.approx(1.0, abs=1e-8)


def test_sew_chain_splits_tolerance_by_weight():
    chain = Chain([(2, UNIT), (1, seg(1.0, 3.0))])
    cos = forms.smooth_form({(1,): lambda p: np.cos(p[..., 0])}, 1)
    value, tail = cos.eval_with_tail(chain, 1e-7)
    expected = 2 * math.sin(1.0) + (math.sin(3.0) - math.sin(1.0))
    assert value == pytest.approx(expected, abs=1e-7)
    assert tail <= 1e-7


# ---------------------------------------------------------------------------
# germ norm estimation


def test_norms_of_additive_germ_are_zero_defect():
    spec = sampling.SamplerSpec(samples_per_band=10, n_bands=3, seed=5)
    est = estimate_germ_norms(
        dx_germ(), sampling.Box.unit(1), 1, eta=1.0, gamma=2.0, spec=spec
    )
    assert est.eta_norm == pytest.approx(1.0, rel=1e-12)
    assert est.delta_gamma_norm < 1e-9


def test_norms_of_square_diameter_germ_hit_quarter():
    # |germ| / diam^2 is identically 1; the worst normalized defect over
    # halving families and two-piece splits is exactly 1/4, attained by the
    # even split: diam^2 - 2 (diam/2)^2 = diam^2/2 over a family of two
    spec = sampling.SamplerSpec(
        samples_per_band=20, n_bands=3, diam_max=0.5, seed=2
    )
    est = estimate_germ_norms(
        square_diameter_germ(),
        sampling.Box.unit(1),
        1,
        eta=2.0,
        gamma=2.0,
        spec=spec,
    )
    assert est.eta_norm == pytest.approx(1.0, rel=1e-12)
    assert est.delta_gamma_norm == pytest.approx(0.25, abs=1e-12)
    assert 0.2 <= est.delta_gamma_norm <= 0.26
    assert est.n_samples == 60


def test_norm_estimates_monotone_in_sample_count():
    germ = midpoint_germ(lambda x: np.cos(3 * x))
    region = sampling.Box.unit(1)
    small = sampling.SamplerSpec(samples_per_band=12, n_bands=3, seed=9)
    large = sampling.SamplerSpec(samples_per_band=24, n_bands=3, seed=9)
    est_s = estimate_germ_norms(germ, region, 1, 1.0, 3.0, small)
    est_l = estimate_germ_norms(germ, region, 1, 1.0, 3.0, large)
    assert est_l.eta_norm >= est_s.eta_norm - 1e-15
    assert est_l.delta_gamma_norm >= est_s.delta_gamma_norm - 1e-15


# ---------------------------------------------------------------------------
# increment rate


def _capped_sew(germ, depth_max):
    """sew at tol 0 to depth_max: the partial result at the cap."""
    with pytest.raises(BudgetExceededError) as exc:
        sew(germ, UNIT, tol=0.0, depth_max=depth_max)
    return exc.value.partial


def test_increment_rate_left_riemann_is_log_half():
    # left endpoint quadrature for f(x) = x has first order error, so the
    # level increments shrink by 1/2: rate log(1/2) = -0.693
    res = _capped_sew(left_anchor_germ(lambda x: x), 8)
    assert res.increment_rate == pytest.approx(-math.log(2.0), abs=0.2)


def test_increment_rate_perturbed_additive():
    # dx plus signed diam^1.5 has level sums 1 + 2^(-n/2): increments form
    # an exact geometric sequence with ratio 2^(-1/2)
    def batch(p):
        e = p[:, 1, 0] - p[:, 0, 0]
        return e + e * np.sqrt(np.abs(e))

    res = _capped_sew(FunctionGerm(batch, gamma=1.5), 8)
    assert res.increment_rate == pytest.approx(-0.5 * math.log(2.0), abs=1e-4)


# ---------------------------------------------------------------------------
# invariants


def test_sewing_is_additive_over_splits():
    germ = midpoint_germ(lambda x: np.cos(2 * x))
    rng = np.random.default_rng(23)
    for _ in range(5):
        a, b = sorted(rng.uniform(0.0, 2.0, size=2))
        if b - a < 0.1:
            continue
        parent = seg(a, b)
        left, right = two_piece_split(parent, rng)
        r_all = sew(germ, parent, tol=1e-9)
        r_l = sew(germ, left, tol=1e-9)
        r_r = sew(germ, right, tol=1e-9)
        slack = r_all.tail_bound + r_l.tail_bound + r_r.tail_bound + 1e-12
        assert abs(r_all.value - (r_l.value + r_r.value)) <= slack


def test_sewing_stays_local_to_the_germ():
    # the repaired value differs from the germ by at most a small multiple
    # of the defect norm at the simplex scale; the halving defect of the
    # midpoint rule is |f''| h^3 / 32 over two pieces, under 0.02 h^3
    germ = midpoint_germ(lambda x: np.sin(x), gamma=3.0, delta_norm=0.02)
    region = sampling.Box.unit(1)
    spec = sampling.SamplerSpec(samples_per_band=25, n_bands=4, seed=17)
    est = estimate_germ_norms(germ, region, 1, 1.0, 3.0, spec)
    checked = 0
    for _, samples in sampling.sample_band_simplices(region, 1, spec):
        for s in samples:
            res = sew(germ, s, tol=1e-9)
            bound = 10.0 * est.delta_gamma_norm * diameter(s) ** 3
            assert abs(res.value - germ.eval(s)) <= bound
            checked += 1
    assert checked == 100


def test_sewing_method_independence():
    # sew the whole triangle vs sew each child of one subdivision step;
    # integral of x^2 over the triangle (0,0),(1,0),(0,1) is 1/12
    tri = Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    germ = centroid_area_germ(lambda x, y: x * x)
    whole = sew(germ, tri, tol=1e-4)
    parts = [sew(germ, c, tol=1e-4) for c in EDGEWISE.children(tri)]
    split_sum = sum(p.value for p in parts)
    slack = whole.tail_bound + sum(p.tail_bound for p in parts)
    assert abs(whole.value - split_sum) <= slack + 1e-12
    assert whole.value == pytest.approx(1.0 / 12.0, abs=1e-5)
    assert split_sum == pytest.approx(1.0 / 12.0, abs=1e-5)


def test_sewing_is_linear_in_the_germ():
    # midpoint-rule germs: halving defects are f'' h^3/32 over two pieces,
    # so 1/64 and 1/32 bound the normalized defects of sin and x^2
    g1 = midpoint_germ(lambda x: np.sin(x), gamma=3.0, delta_norm=0.02)
    g2 = midpoint_germ(lambda x: x * x, gamma=3.0, delta_norm=0.04)

    def combo_batch(p):
        mid = 0.5 * (p[:, 0, 0] + p[:, 1, 0])
        e = p[:, 1, 0] - p[:, 0, 0]
        return (2.0 * np.sin(mid) - 3.0 * mid * mid) * e

    combo = FunctionGerm(combo_batch, gamma=3.0, delta_norm=0.16)
    r1 = sew(g1, UNIT, tol=1e-7)
    r2 = sew(g2, UNIT, tol=1e-7)
    rc = sew(combo, UNIT, tol=1e-7)
    slack = rc.tail_bound + 2 * r1.tail_bound + 3 * r2.tail_bound + 1e-12
    assert abs(rc.value - (2 * r1.value - 3 * r2.value)) <= slack
    assert rc.value == pytest.approx(2 * (1 - math.cos(1.0)) - 1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# lattice levels against a children_array loop


def _reference_sew(germ, simplex, tol, depth_max=None):
    """sew's stopping rules over levels built by children_array.

    Each level calls eval_batch on the full vertex array, so a germ with a
    vertex function evaluates it at every vertex of every simplex. The
    rules are checked where the loop reaches them, with a streak counter
    for divergence, and each result names the rule that ended it.
    """
    k = simplex.k
    depth_max = depth_max or sewing.DEPTH_MAX_BY_K[k]
    card = EDGEWISE.card(k)
    analytic = None
    if germ.gamma is not None and germ.delta_norm is not None:
        q = card * subdivision.stats(EDGEWISE, simplex, 2).c_m ** germ.gamma
        if q < 1.0:
            scale = card / (1.0 - q) * germ.delta_norm
            scale *= diameter(simplex) ** germ.gamma

            def analytic(n):
                return scale * q**n

    pts = simplex.vertices[None]
    sums = [float(np.sum(germ.eval_batch(pts)))]
    incs = []
    streak = 0

    def tail(n):
        est = sewing._empirical_tail(incs)
        return est if analytic is None else min(est, analytic(n))

    def partial(n, t, rule):
        return sewing.SewingResult(sums[-1], t, n, sums, rule)

    for n in range(1, depth_max + 2):
        if n > depth_max:
            res = partial(depth_max, tail(depth_max), "depth_cap")
            if res.tail_bound > tol:
                raise BudgetExceededError("depth cap", partial=res)
            return res
        if card**n > sewing.LEVEL_EVAL_CAP:
            raise BudgetExceededError(
                "eval cap", partial=partial(n - 1, math.inf, "eval_cap")
            )
        pts = EDGEWISE.children_array(pts)
        sums.append(float(np.sum(germ.eval_batch(pts))))
        incs.append(sums[-1] - sums[-2])
        if analytic is not None and analytic(n) <= tol:
            return partial(n, analytic(n), "analytic")
        if len(incs) >= 3 and all(abs(x) < tol / 10 for x in incs[-3:]):
            if tail(n) <= tol:
                return partial(n, tail(n), "empirical")
        if len(incs) >= 2:
            prev, cur = abs(incs[-2]), abs(incs[-1])
            floor = 1e-14 * max(1.0, max(abs(v) for v in sums[:-1]))
            grows = cur >= prev * (1 - 1e-12) and cur > max(tol, floor)
            streak = streak + 1 if grows else 0
        young = germ.gamma is not None and germ.gamma > k
        if analytic is None and not young and n >= 4 and streak >= 3:
            raise NoConvergenceError(
                "growing", partial=partial(n, math.inf, "no_convergence")
            )


def _outcome(run):
    try:
        return run(), None
    except (BudgetExceededError, NoConvergenceError) as exc:
        return exc.partial, type(exc)


def _assert_same_sew(germ, simplex, tol, depth_max=None):
    got, got_exc = _outcome(
        lambda: sew(germ, simplex, tol, depth_max=depth_max)
    )
    want, want_exc = _outcome(
        lambda: _reference_sew(germ, simplex, tol, depth_max)
    )
    assert got_exc is want_exc
    assert got.rule == want.rule
    assert got.depth_used == want.depth_used
    assert_rounding_close(got.level_values, want.level_values)
    if math.isinf(want.tail_bound):
        assert got.tail_bound == want.tail_bound
    else:
        assert_rounding_close(got.tail_bound, want.tail_bound)
    return got.rule


def _subcritical_germ(**kw):
    def batch(p):
        e = p[:, 1, 0] - p[:, 0, 0]
        return np.sign(e) * np.sqrt(np.abs(e))

    return FunctionGerm(batch, **kw)


TRIANGLE = Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 0.9]]))

# name -> (germ builder, simplex, tol, depth_max, the rule that stops it)
LATTICE_CASES = {
    "dx": (dx_germ, UNIT, 1e-8, None, "empirical"),
    "square_diameter": (
        lambda: square_diameter_germ(gamma=2.0, delta_norm=0.25),
        UNIT,
        1e-3,
        None,
        "analytic",
    ),
    "midpoint_cos": (
        lambda: midpoint_germ(np.cos, gamma=3.0, delta_norm=0.02),
        seg(0.3, 2.1),
        1e-9,
        None,
        "depth_cap",
    ),
    "left_anchor": (
        lambda: left_anchor_germ(np.sin), UNIT, 1e-3, None, "depth_cap"
    ),
    "subcritical": (_subcritical_germ, UNIT, 1e-6, None, "no_convergence"),
    # the same growing sums: a declared gamma > k is trusted like a
    # certificate, so they run to the cap; gamma = k is no such promise
    "declared_young": (
        lambda: _subcritical_germ(gamma=1.5), UNIT, 1e-6, None, "depth_cap"
    ),
    "declared_gamma_k": (
        lambda: _subcritical_germ(gamma=1.0),
        UNIT,
        1e-6,
        None,
        "no_convergence",
    ),
    "depth_capped": (
        lambda: midpoint_germ(lambda x: x * x), UNIT, 1e-14, 5, "depth_cap"
    ),
    # fewer than three increments to extrapolate from
    "shallow_depth_cap": (
        lambda: midpoint_germ(lambda x: x * x), UNIT, 1e-14, 2, "depth_cap"
    ),
    # run with LEVEL_EVAL_CAP = 16, so level 5 (32 rows) is over the cap
    "eval_capped": (
        lambda: midpoint_germ(lambda x: x * x), UNIT, 1e-14, None, "eval_cap"
    ),
    "centroid_area": (
        lambda: centroid_area_germ(lambda x, y: x * x),
        TRIANGLE,
        1e-4,
        None,
        "empirical",
    ),
    "diameter_cubed": (
        tri_diameter_cubed_germ, TRIANGLE, 5e-3, None, "analytic"
    ),
}


@pytest.mark.parametrize("name", sorted(LATTICE_CASES))
def test_lattice_sew_matches_children_loop(name, monkeypatch):
    build, simplex, tol, depth_max, rule = LATTICE_CASES[name]
    if rule == "eval_cap":
        # a real 2^22-row level is too large for a test
        monkeypatch.setattr(sewing, "LEVEL_EVAL_CAP", 16)
    assert _assert_same_sew(build(), simplex, tol, depth_max) == rule


def test_lattice_cases_reach_every_rule():
    rules = {case[-1] for case in LATTICE_CASES.values()}
    assert rules == {
        "analytic", "empirical", "no_convergence", "depth_cap", "eval_cap"
    }


def _bend():
    # F(x, y) = (x, y + 0.3 x^2) with finite-difference derivatives, so the
    # pullback of a smooth form is sewn, not taken in closed form
    return forms.SmoothMap(
        lambda x: np.stack([x[..., 0], x[..., 1] + 0.3 * x[..., 0] ** 2], -1),
        2,
        2,
    )


def _resonant(build):
    f = forms.WeierstrassFunction(0.6, 2, seed=13)
    dg = forms.increment_form(forms.WeierstrassFunction(0.7, 2, seed=14))
    return build(f, dg)


# vertex functions: f and g; g alone; F; none (f at barycenters against
# a quadrature base)
SEWN_CASES = {
    "product_vertex_average": lambda: _resonant(forms.product),
    "product_barycenter": lambda: _resonant(BarycenterProduct),
    "pullback": lambda: forms.pullback(_bend(), forms.catalog_form("sin_y_dx")),
    "product_smooth_base": lambda: BarycenterProduct(
        forms.WeierstrassFunction(0.6, 2, seed=13),
        forms.catalog_form("x_dy"),
    ),
}


@pytest.mark.parametrize("name", sorted(SEWN_CASES))
def test_sewn_cochain_levels_match_children_loop(name, monkeypatch):
    cochain = SEWN_CASES[name]()
    calls = []

    def recording_sew(germ, simplex, tol, **kw):
        calls.append((germ, simplex, tol, kw.get("depth_max")))
        return sew(germ, simplex, tol, **kw)

    monkeypatch.setattr(forms, "sew", recording_sew)
    segment = Simplex(np.array([[0.1, 0.2], [0.3, 0.25]]))
    cochain.eval_with_tail(segment, 1e-4, best_effort=True)
    assert len(calls) == 1
    germ = calls[0][0]
    assert (germ.vertex_fn is None) == (name == "product_smooth_base")
    _assert_same_sew(*calls[0])
