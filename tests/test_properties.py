"""Property tests of smooth forms, Gaussian forms and closed-form pullbacks.

Hypothesis draws well-shaped simplices in R^2 and R^3. The properties are
the paper's invariants for additive cochains: additivity under
subdivision, oddness under a vertex transposition (through the memo, in
either evaluation order), and boundary of boundary = 0 for the coboundary
of a pulled-back form.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from roughforms import forms, gaussian, sampling
from roughforms.geometry import Simplex, diameter, gram_determinant

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
    assume(diam > 0.05 and gram_determinant(s) > (0.05 * diam**k) ** 2)
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
        for p in sampling.two_piece_split(s, np.random.default_rng(seed))
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
