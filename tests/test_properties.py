"""Property tests of smooth forms, Gaussian forms, closed-form pullbacks
and the declared germs of Young products.

Hypothesis draws well-shaped simplices in R^2 and R^3. The properties are
the paper's invariants for additive cochains: additivity under
subdivision, oddness under a vertex transposition (in either evaluation
order, on one cochain), and boundary of boundary = 0 for the coboundary
of a pulled-back form and of a sewn rough product. On integer chains of
these forms and of Whitney cochains, a result's tail meets the tolerance
or the evaluation raises.
For Young products, the sampled germ norms of `estimate_germ_norms`
(conftest) check the defect exponent and constant that the product
declares and that sewing's analytic tail trusts; on segments a product
answers from its memo exactly what a fresh cochain returns at that
tolerance, whatever was evaluated before, and a rough product adds over
two-piece splits within the sum of its three tails. The sewn pullback of
a rough product keeps the alpha it declares: its sampled values scale no
worse than diam^alpha.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from roughforms import forms, gaussian, sampling, sewing
from roughforms.embedding import iota_cochain
from roughforms.errors import BudgetExceededError
from roughforms.geometry import Chain, Simplex, diameter, volume

from conftest import estimate_germ_norms, two_piece_split

TOL = 1e-9
# rounding of one quadrature sum, relative to the value
SLACK = 1e-13

# (k, d): smooth forms with curved coefficients on every index set
FORMS = {
    (1, 2): {
        (1,): lambda p: np.sin(p[..., 1]) * p[..., 0],
        (2,): lambda p: np.exp(p[..., 0]) * np.cos(p[..., 1]),
    },
    (1, 3): {
        (1,): lambda p: p[..., 1] * p[..., 2],
        (2,): lambda p: np.sin(p[..., 0]),
        (3,): lambda p: np.cos(p[..., 0] + p[..., 1]),
    },
    (2, 2): {(1, 2): lambda p: np.exp(p[..., 0] * p[..., 1])},
    (2, 3): {
        (1, 2): lambda p: p[..., 2],
        (1, 3): lambda p: np.cos(p[..., 1]),
        (2, 3): lambda p: np.sin(p[..., 0] * p[..., 2]),
    },
}



def _smooth(k, d):
    return forms.smooth_form(FORMS[k, d], d)


def _gaussian(k, d):
    spec = gaussian.SpectralFieldSpec(d=d, theta=2.0, N=8, seed=10 * k + d)
    return gaussian.sample_form(spec, k)


# (k, d, fresh cochain): the smooth forms above and sampled Gaussian forms
CASES = [pytest.param(k, d, _smooth, id=f"{k}-{d}") for k, d in sorted(FORMS)]
CASES += [
    pytest.param(k, d, _gaussian, id=f"gaussian-{k}-{d}")
    for k, d in [(1, 2), (2, 2), (1, 3)]
]


def _stack(parts, u):
    return np.stack([np.broadcast_to(p, u.shape[:-1]) for p in parts], axis=-1)


# maps R^3 -> R^d with analytic Jacobians, for pullbacks of 1-forms
MAPS = {
    2: (
        lambda u: [u[..., 0] + 0.2 * np.sin(u[..., 1]), u[..., 1] * u[..., 2]],
        lambda u: [
            [1.0, 0.2 * np.cos(u[..., 1]), 0.0],
            [0.0, u[..., 2], u[..., 1]],
        ],
    ),
    3: (
        lambda u: [
            u[..., 0] + u[..., 1] ** 2,
            np.sin(u[..., 2]),
            u[..., 0] * u[..., 1] + u[..., 2],
        ],
        lambda u: [
            [1.0, 2 * u[..., 1], 0.0],
            [0.0, 0.0, np.cos(u[..., 2])],
            [u[..., 1], u[..., 0], 1.0],
        ],
    ),
}


def _map_to(d):
    fn, jac = MAPS[d]

    def jacobian(u):
        return np.stack([_stack(row, u) for row in jac(u)], axis=-2)

    return forms.SmoothMap(lambda u: _stack(fn(u), u), 3, d, jacobian=jacobian)


@st.composite
def simplices(draw, k, d):
    """k-simplices in [-1, 1]^d whose volume is not far below diam^k."""
    coords = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    s = Simplex(draw(arrays(np.float64, (k + 1, d), elements=coords)))
    diam = diameter(s)
    assume(diam > 0.05 and math.factorial(k) * volume(s) > 0.05 * diam**k)
    return s


@pytest.mark.parametrize("k, d, build", CASES)
@settings(max_examples=25)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_smooth_forms_add_over_two_piece_splits(k, d, build, data, seed):
    s = data.draw(simplices(k, d))
    a = build(k, d)
    whole, tail = a.eval_with_tail(s, TOL)
    parts = [
        a.eval_with_tail(p, TOL)
        for p in two_piece_split(s, np.random.default_rng(seed))
    ]
    gap = abs(whole - sum(v for v, _ in parts))
    assert gap <= tail + sum(t for _, t in parts) + SLACK * (1 + abs(whole))


@pytest.mark.parametrize("k, d, build", CASES)
@settings(max_examples=25)
@given(data=st.data())
def test_smooth_forms_are_odd_through_the_memo(k, d, build, data):
    s = data.draw(simplices(k, d))
    i, j = data.draw(
        st.lists(st.integers(0, k), min_size=2, max_size=2, unique=True)
    )
    verts = s.vertices.copy()
    verts[[i, j]] = verts[[j, i]]
    swapped = Simplex(verts)
    a = build(k, d)
    v, tail = a.eval_with_tail(s, TOL)
    assert a.eval_with_tail(swapped, TOL) == (-v, tail)
    # a fresh cochain that meets the transposition first agrees
    fresh = build(k, d)
    assert fresh.eval_with_tail(swapped, TOL) == (-v, tail)
    assert fresh.eval_with_tail(s, TOL) == (v, tail)


TOLS = st.sampled_from([1e-3, 1e-5, 1e-7])


@st.composite
def segments(draw, side=1.0):
    """Segments in [0, side]^2 longer than side / 10."""
    coords = st.floats(0.0, side, allow_nan=False, allow_infinity=False)
    s = Simplex(draw(arrays(np.float64, (2, 2), elements=coords)))
    assume(diameter(s) > 0.1 * side)
    return s


def _sin_dy():
    f = forms.HolderFunction(lambda x: np.sin(3 * x[..., 0]), 1.0, 3.0, d=2)
    return forms.product(f, forms.catalog_form("dy"))


def _resonant():
    f = forms.WeierstrassFunction(0.6, 2, seed=13)
    g = forms.WeierstrassFunction(0.7, 2, seed=14)
    return forms.product(f, forms.increment_form(g))


@settings(max_examples=6)
@given(s=segments(), t1=TOLS, t2=TOLS, flip=st.booleans())
def test_a_cached_answer_is_the_fresh_one(s, t1, t2, flip):
    # the memo answers a row only at the tolerance it was computed at, so
    # what came before changes nothing, orientation included
    p = _sin_dy()
    p.eval_with_tail(s, t1, best_effort=True)
    second = p.eval_with_tail(s.flipped() if flip else s, t2, best_effort=True)
    v, tail = _sin_dy().eval_with_tail(s, t2, best_effort=True)
    assert second == ((-v if flip else v), tail)
    # a rough product, flipped: cold, then warm from t1, then warm from t2
    v, tail = _resonant().eval_with_tail(s, t2, best_effort=True)
    q = _resonant()
    assert q.eval_with_tail(s.flipped(), t2, best_effort=True) == (-v, tail)
    q = _resonant()
    q.eval_with_tail(s, t1, best_effort=True)
    assert q.eval_with_tail(s.flipped(), t2, best_effort=True) == (-v, tail)
    assert q.eval_with_tail(s.flipped(), t2, best_effort=True) == (-v, tail)


@settings(max_examples=5)
@given(s=simplices(3, 3))
def test_coboundary_of_coboundary_of_a_rough_product_vanishes(s):
    # a sewn 1-form in R^3, on tetrahedra in [0, 0.5]^3: d(dA) sums the
    # values of A over the boundary of the boundary, whose edges cancel
    f = forms.WeierstrassFunction(0.6, 3, seed=13)
    g = forms.WeierstrassFunction(0.7, 3, seed=14)
    p = forms.product(f, forms.increment_form(g))
    dd = forms.coboundary(forms.coboundary(p))
    tetrahedron = Simplex(0.25 * (s.vertices + 1.0))
    value, _ = dd.eval_with_tail(tetrahedron, 1e-3, best_effort=True)
    assert abs(value) <= 1e-12


@settings(max_examples=12)
@given(s=segments(0.6), seed=st.integers(0, 2**32 - 1))
def test_rough_products_add_over_two_piece_splits(s, seed):
    # best effort: these sews stop by extrapolation or at the depth cap
    a = _resonant()
    whole, tail = a.eval_with_tail(s, 1e-4, best_effort=True)
    parts = [
        a.eval_with_tail(p, 1e-4, best_effort=True)
        for p in two_piece_split(s, np.random.default_rng(seed))
    ]
    gap = abs(whole - sum(v for v, _ in parts))
    assert gap <= tail + sum(t for _, t in parts) + 1e-12


def _iota(k, d):
    return iota_cochain(
        lambda x: x[..., 0] * x[..., 1] + 1.0, d, n_max=5, nodes=4
    )


@pytest.mark.parametrize(
    "k, d, build", CASES + [pytest.param(2, 2, _iota, id="iota-2-2")]
)
@settings(max_examples=25)
@given(data=st.data(), tol=st.floats(1e-3, 0.3))
def test_chain_tails_meet_the_tolerance_or_raise(k, d, build, data, tol):
    coeffs = st.integers(-3, 3).filter(bool)
    terms = data.draw(
        st.lists(st.tuples(coeffs, simplices(k, d)), min_size=1, max_size=3)
    )
    try:
        _, tail = build(k, d).eval_with_tail(Chain(terms), tol)
    except BudgetExceededError as exc:
        assert exc.partial[1] > tol
    else:
        assert tail <= tol


@pytest.mark.parametrize("d", sorted(MAPS))
@settings(max_examples=25)
@given(data=st.data())
def test_boundary_of_boundary_of_a_pullback_vanishes(d, data):
    s = data.draw(simplices(3, 3))
    pb = forms.pullback(_map_to(d), forms.smooth_form(FORMS[1, d], d))
    assert isinstance(pb, forms.SmoothFormCochain) and (pb.k, pb.d) == (1, 3)
    dd = forms.coboundary(forms.coboundary(pb))
    v, tail = dd.eval_with_tail(s, TOL)
    assert abs(v) <= tail + SLACK


def _product(gamma, alpha, d, seeds):
    f = forms.WeierstrassFunction(gamma, d, seed=seeds[0])
    g = forms.WeierstrassFunction(alpha, d, seed=seeds[1])
    p = forms.product(f, forms.increment_form(g))
    assert isinstance(p, forms.SewnCochain)
    return p


def _sewn_germ(p):
    """The germ SewnCochain._eval_simplex sews for the product p."""
    return sewing.FunctionGerm(
        p._germ,
        gamma=p.germ_gamma,
        delta_norm=p.delta_norm,
        vertex_fn=p.vertex_fn,
    )


def _germ_norms(p, spec):
    return estimate_germ_norms(
        _sewn_germ(p), sampling.Box.unit(p.d), 1, p.alpha, p.germ_gamma, spec
    )


@settings(max_examples=20)
@given(
    d=st.sampled_from([1, 2]),
    gamma=st.floats(0.3, 1.0),
    excess=st.floats(0.05, 0.7),
    seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
    spec_seed=st.integers(0, 2**16),
)
def test_product_germ_defects_stay_under_the_declared_norm(
    d, gamma, excess, seeds, spec_seed
):
    # gamma + alpha = 1 + excess > 1: the Young regime
    alpha = 1.0 + excess - gamma
    assume(alpha <= 1.0)
    p = _product(gamma, alpha, d, seeds)
    spec = sampling.SamplerSpec(samples_per_band=5, n_bands=3, seed=spec_seed)
    assert _germ_norms(p, spec).delta_gamma_norm <= p.delta_norm


def test_product_germ_norms_do_not_grow_at_the_declared_exponent():
    # at the defect exponent germ_gamma, band sups of |defect| / diam^gamma
    # stay bounded as the bands shrink; an exponent too large by 1/2 would
    # grow them by 2^(1/2) per band, 4x from the coarsest band to the finest
    p = _product(0.6, 0.7, 2, (11, 12))
    spec = sampling.SamplerSpec(samples_per_band=15, n_bands=5, seed=3)
    bands = [b["delta_gamma_norm"] for b in _germ_norms(p, spec).per_band]
    assert bands[-1] < 4.0 * bands[0]


def test_sewn_pullback_of_a_rough_product_scales_at_its_declared_alpha():
    # band sups of |A(sigma)| / diam^alpha, from diameter 0.5 down over 6
    # bands: bounded at the declared alpha, while an alpha 1/2 too large
    # grows them by 2^(1/2) per band, 5.7x from the coarsest to the finest
    def bent(x):
        return np.stack(
            [
                x[..., 0] + 0.1 * np.sin(3 * x[..., 1]),
                x[..., 1] + 0.1 * x[..., 0] ** 2,
            ],
            axis=-1,
        )

    f = forms.WeierstrassFunction(0.6, 2, seed=13)
    g = forms.WeierstrassFunction(0.7, 2, seed=14)
    pb = forms.pullback(
        forms.SmoothMap(bent, 2, 2), forms.product(f, forms.increment_form(g))
    )
    assert pb.alpha == 0.7
    region = sampling.Box(np.full(2, 0.1), np.full(2, 0.7))
    spec = sampling.SamplerSpec(12, 6, diam_max=0.5, seed=3)

    def growth(alpha):
        report = forms.norm_estimate(pb, alpha, pb.beta, region, spec, 1e-3)
        bands = [band["sup_diam"] for band in report.per_band]
        return bands[-1] / bands[0]

    assert growth(pb.alpha) < 4.0
    assert growth(pb.alpha + 0.5) > 4.0
