import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from roughforms import geometry as G
from roughforms.errors import DegenerateSimplexError

from conftest import axis_box_chain, boundary_chain, heights, snap_to_grid


def canon(chain):
    """Reduce a chain to {sorted-vertex-key: signed coefficient}.

    Each simplex is brought to lexicographically sorted vertex order; the
    sign of the sorting permutation multiplies the coefficient. Cancelling
    terms drop out, so two chains are equal as signed sums iff their canon
    dicts match.
    """
    out = {}
    for coeff, s in chain:
        v = s.vertices
        order = sorted(range(len(v)), key=lambda i: tuple(v[i]))
        sign = G._permutation_sign(tuple(order))
        key = (v.shape, np.array(v[order]).tobytes())
        out[key] = out.get(key, 0) + coeff * sign
    return {k: c for k, c in out.items() if c != 0}


def key_of(vertices):
    v = np.asarray(vertices, dtype=float)
    order = sorted(range(len(v)), key=lambda i: tuple(v[i]))
    sign = G._permutation_sign(tuple(order))
    return (v.shape, np.array(v[order]).tobytes()), sign


def heron_area(a, b, c):
    """Triangle area from side lengths only (independent of Gram code)."""
    la = np.linalg.norm(b - c)
    lb = np.linalg.norm(a - c)
    lc = np.linalg.norm(a - b)
    s = 0.5 * (la + lb + lc)
    return math.sqrt(max(s * (s - la) * (s - lb) * (s - lc), 0.0))


def rejection_area(a, b, c, n_samples=200_000, seed=7):
    """Monte Carlo area of a 3d triangle by rejection in its own plane.

    Builds a plane basis by explicit Gram-Schmidt, maps the vertices to 2d,
    and rejection-samples the bounding rectangle with a half-plane inside
    test. Shares no code path with the library volume.
    """
    u = b - a
    u = u / np.linalg.norm(u)
    w = (c - a) - np.dot(c - a, u) * u
    w = w / np.linalg.norm(w)
    p = np.array(
        [[0.0, 0.0], [np.dot(b - a, u), np.dot(b - a, w)], [np.dot(c - a, u), np.dot(c - a, w)]]
    )
    lo = p.min(axis=0)
    hi = p.max(axis=0)
    rng = np.random.default_rng(seed)
    pts = lo + rng.random((n_samples, 2)) * (hi - lo)

    def cross_sign(q0, q1):
        return (q1[0] - q0[0]) * (pts[:, 1] - q0[1]) - (q1[1] - q0[1]) * (pts[:, 0] - q0[0])

    s0 = cross_sign(p[0], p[1])
    s1 = cross_sign(p[1], p[2])
    s2 = cross_sign(p[2], p[0])
    inside = ((s0 >= 0) & (s1 >= 0) & (s2 >= 0)) | ((s0 <= 0) & (s1 <= 0) & (s2 <= 0))
    box_area = np.prod(hi - lo)
    return box_area * inside.mean()


def unit_right_triangle():
    return G.Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# volumes


def test_volume_unit_right_triangle():
    assert G.volume(unit_right_triangle()) == pytest.approx(0.5, abs=1e-15)


def test_volume_matches_monte_carlo_area_in_3d():
    rng = np.random.default_rng(11)
    a, b, c = rng.normal(size=(3, 3))
    s = G.Simplex([a, b, c])
    mc = rejection_area(a, b, c)
    assert G.volume(s) == pytest.approx(mc, rel=0.01)
    assert G.volume(s) == pytest.approx(heron_area(a, b, c), rel=1e-10)


def test_volume_of_point_and_segment():
    assert G.volume(G.Simplex([[0.3, 0.4]])) == 1.0
    seg = G.Simplex([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    assert G.volume(seg) == pytest.approx(5.0, rel=1e-14)


def test_volume_orientation_invariant():
    rng = np.random.default_rng(2)
    s = G.Simplex(rng.normal(size=(4, 5)))
    assert G.volume(s.flipped()) == pytest.approx(G.volume(s), rel=1e-14)


def test_batched_volume_and_diameter_match_scalar():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(20, 4, 6))
    vols = G.volume_array(pts)
    diams = G.diameter_array(pts)
    eccs = G.eccentricity_array(pts)
    pair_dists = [
        np.linalg.norm(pts[:, i] - pts[:, j], axis=1)
        for i in range(4)
        for j in range(i + 1, 4)
    ]
    assert np.array_equal(diams, np.max(pair_dists, axis=0))
    for i in range(20):
        # the scalar formulas: sqrt(det(E^T E)) / k! and diam^k / Vol
        e = (pts[i, 1:] - pts[i, 0]).T
        vol = math.sqrt(np.linalg.det(e.T @ e)) / math.factorial(3)
        assert vols[i] == pytest.approx(vol, rel=1e-12)
        assert eccs[i] == pytest.approx(diams[i] ** 3 / vol, rel=1e-12)


@st.composite
def flattened_simplices(draw):
    """k-simplices in R^d, k <= d <= 3, whose last vertex lies at a drawn
    height over the affine hull of the others: regular at height 1, around
    the degeneracy threshold near 1e-6, flat at 0."""
    k = draw(st.integers(1, 3))
    d = draw(st.integers(k, 3))
    coords = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    base = draw(arrays(np.float64, (k, d), elements=coords))
    offset = draw(arrays(np.float64, d, elements=coords))
    weights = draw(arrays(np.float64, k - 1, elements=st.floats(0.0, 1.0)))
    height = draw(st.sampled_from([1.0, 1e-3, 1e-5, 1e-6, 3e-7, 1e-7, 1e-9, 0.0]))
    hull = base[0] + weights @ (base[1:] - base[0])
    return G.Simplex(np.vstack([base, hull + height * offset]))


@settings(max_examples=300, deadline=None)
@given(s=flattened_simplices(), scale=st.sampled_from([1e-6, 1.0, 1e4]))
def test_scalar_helpers_are_row_zero_of_the_batched_kernels(s, scale):
    # row 0 of a two-row batch, so the other row cannot change it
    pts = np.stack([s.vertices, scale * s.vertices[::-1]])
    vol = G.volume_array(pts)[0]
    assert G.volume(s) == vol
    assert G.is_degenerate(s) == (vol == 0.0)
    assert G.diameter(s) == G.diameter_array(pts)[0]
    ecc = G.eccentricity_array(pts)[0]
    if vol == 0.0:
        assert ecc == np.inf
        with pytest.raises(DegenerateSimplexError):
            G.eccentricity(s)
    else:
        assert G.eccentricity(s) == ecc


# ---------------------------------------------------------------------------
# degeneracy


def test_degenerate_detection_and_zero_volume():
    collinear = G.Simplex([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert G.is_degenerate(collinear)
    assert G.volume(collinear) == 0.0
    repeated = G.Simplex([[1.0, 2.0], [1.0, 2.0]])
    assert G.is_degenerate(repeated)
    # Gram determinant 1e-14, at most DEGENERACY_RTOL * diam^4 = 1e-12: the
    # batched kernels apply the same rule as the scalar helpers
    flat = [[0.0, 0.0], [1.0, 0.0], [0.5, 1e-7]]
    assert G.is_degenerate(G.Simplex(flat))
    assert G.volume(G.Simplex(flat)) == G.volume_array([flat])[0] == 0.0
    assert G.eccentricity_array([flat])[0] == np.inf
    with pytest.raises(DegenerateSimplexError):
        G.eccentricity(G.Simplex(flat))


def test_degeneracy_threshold_is_scale_invariant():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for scale in (1.0, 1e-8, 1e6):
        assert not G.is_degenerate(G.Simplex(tri * scale))
    flatish = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-10]])
    for scale in (1.0, 1e-8, 1e6):
        assert G.is_degenerate(G.Simplex(flatish * scale)) == G.is_degenerate(
            G.Simplex(flatish)
        )


def test_simplex_must_fit_ambient_dimension():
    with pytest.raises(ValueError):
        G.Simplex([[0.0], [1.0], [0.5]])


# ---------------------------------------------------------------------------
# heights and alpha-mass


def grid_sup_distance_to_face_hull(s, face_index, m=14):
    """Sup of dist(x, aff(face)) over a dense barycentric grid of the simplex."""
    v = s.vertices
    face = np.delete(v, face_index, axis=0)
    base = face[0]
    span = (face[1:] - base).T
    best = 0.0
    k = s.k
    for weights in _lattice_weights(k + 1, m):
        x = np.array(weights) @ v / m
        r = x - base
        if span.shape[1]:
            coef, *_ = np.linalg.lstsq(span, r, rcond=None)
            r = r - span @ coef
        best = max(best, float(np.linalg.norm(r)))
    return best


def _lattice_weights(n_parts, total):
    if n_parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _lattice_weights(n_parts - 1, total - first):
            yield (first,) + rest


def test_heights_match_dense_grid_sup():
    rng = np.random.default_rng(5)
    s = G.Simplex(rng.normal(size=(3, 3)))
    hs = heights(s)
    for i in range(3):
        assert grid_sup_distance_to_face_hull(s, i) == pytest.approx(hs[i], rel=1e-9)


def test_mass_quantities_of_unit_right_triangle():
    s = unit_right_triangle()
    assert min(heights(s)) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert max(G.volume(f) for f in G.faces(s)) == pytest.approx(
        math.sqrt(2.0), rel=1e-12
    )
    assert G.mass_value(s, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert G.volume(s) == pytest.approx(0.5, rel=1e-12)
    assert G.diameter(s) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert G.eccentricity(s) == pytest.approx(4.0, rel=1e-12)


def test_mass_conventions_at_alpha_limits():
    s = unit_right_triangle()
    assert G.mass_value(s, 0.0) == 1.0
    assert G.mass_value(s, math.inf) == 0.0


def test_mass_of_segment_is_length_to_alpha():
    # for a segment the faces are points (0-volume 1) and h is the length
    seg = G.Simplex([[0.0, 0.0], [0.6, 0.8]])
    for alpha in (0.3, 0.7, 1.0):
        assert G.mass_value(seg, alpha) == pytest.approx(1.0, rel=1e-12)
    seg2 = G.Simplex([[0.0, 0.0], [0.25, 0.0]])
    assert G.mass_value(seg2, 0.7) == pytest.approx(0.25**0.7, rel=1e-12)


def test_segment_mass_subadditive_under_midpoint_split():
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=(2, 3)) * 0.3
    mid = 0.5 * (a + b)
    for alpha in (0.2, 0.5, 0.9, 1.0):
        whole = G.mass_value(G.Simplex([a, b]), alpha)
        parts = G.mass_value(G.Simplex([a, mid]), alpha) + G.mass_value(
            G.Simplex([mid, b]), alpha
        )
        assert whole <= parts + 1e-9


def test_mass_bounded_by_diameter_power():
    rng = np.random.default_rng(13)
    for k in (1, 2, 3):
        for _ in range(25):
            v = rng.normal(size=(k + 1, 4))
            s = G.Simplex(v)
            s = G.Simplex(v / (G.diameter(s) * (1 + rng.random())))
            if G.is_degenerate(s):
                continue
            assert G.diameter(s) <= 1.0
            for alpha in (0.25, 0.5, 1.0):
                m = G.mass_value(s, alpha)
                assert m <= G.diameter(s) ** (s.k - 1 + alpha) + 1e-12


def test_base_height_identity_for_every_face():
    rng = np.random.default_rng(17)
    for k in (1, 2, 3):
        v = rng.normal(size=(k + 1, 5))
        s = G.Simplex(v)
        vol = G.volume(s)
        hs = heights(s)
        fs = G.faces(s)
        for i in range(k + 1):
            assert vol == pytest.approx(G.volume(fs[i]) * hs[i] / k, rel=1e-10)


def test_largest_face_times_min_height_is_k_vol():
    # every face satisfies Vol(F) h_F = k Vol, so the largest face is the one
    # with the smallest height and the alpha = 1 mass equals k Vol exactly
    rng = np.random.default_rng(19)
    for k in (1, 2, 3):
        v = rng.normal(size=(k + 1, 4))
        s = G.Simplex(v)
        assert G.mass_value(s, 1.0) == pytest.approx(k * G.volume(s), rel=1e-10)


def test_mass_rejects_degenerate_input():
    with pytest.raises(DegenerateSimplexError):
        G.mass_value(G.Simplex([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), 0.5)
    with pytest.raises(DegenerateSimplexError):
        G.eccentricity(G.Simplex([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))


# ---------------------------------------------------------------------------
# eccentricity


def test_eccentricity_values():
    assert G.eccentricity(unit_right_triangle()) == pytest.approx(4.0, rel=1e-12)
    thin = G.Simplex([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-3]])
    assert G.eccentricity(thin) > 100.0


# ---------------------------------------------------------------------------
# boundary and chains


def test_canonical_rows_sort_each_row_and_give_its_sign():
    # integer coordinates, so rows hold equal coordinates and equal vertices
    rng = np.random.default_rng(3)
    for m, d in [(1, 2), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3)]:
        pts = rng.integers(0, 3, (100, m, d)).astype(float)
        rows, signs = G.canonical_rows(pts)
        for p, row, sign in zip(pts, rows, signs):
            order = sorted(range(m), key=lambda i: tuple(p[i]))
            inversions = sum(
                order[a] > order[b] for a in range(m) for b in range(a + 1, m)
            )
            assert np.array_equal(row, p[order])
            assert sign == (-1) ** inversions


def test_boundary_of_unit_right_triangle():
    chain = G.boundary(unit_right_triangle())
    got = canon(chain)
    expected = {}
    for coeff, verts in (
        (1, [[1.0, 0.0], [0.0, 1.0]]),
        (-1, [[0.0, 0.0], [0.0, 1.0]]),
        (1, [[0.0, 0.0], [1.0, 0.0]]),
    ):
        key, sign = key_of(verts)
        expected[key] = coeff * sign
    assert got == expected


def test_boundary_signs_realized_by_vertex_order():
    # coefficients stay +1 for k >= 2 faces; only point faces carry -1
    s = G.Simplex(np.random.default_rng(0).normal(size=(4, 4)))
    assert all(c == 1 for c, _ in G.boundary(s))
    seg = G.Simplex([[0.0], [1.0]])
    assert sorted(c for c, _ in G.boundary(seg)) == [-1, 1]


def test_boundary_of_boundary_vanishes():
    rng = np.random.default_rng(23)
    for k in (2, 3):
        s = G.Simplex(rng.normal(size=(k + 1, 4)))
        assert canon(boundary_chain(G.boundary(s))) == {}


def test_boundary_anticommutes_with_flip():
    rng = np.random.default_rng(29)
    s = G.Simplex(rng.normal(size=(3, 3)))
    plus = canon(G.boundary(s))
    minus = canon(G.boundary(s.flipped()))
    assert minus == {k: -c for k, c in plus.items()}


def test_chain_algebra():
    s = unit_right_triangle()
    t = G.Simplex(np.array(s.vertices) + 1.0)
    ch = G.Chain([(2, s), (-1, t)])
    assert len(ch) == 2
    assert canon(ch + (-ch)) == {}
    assert canon(2 * ch) == {k: 2 * c for k, c in canon(ch).items()}
    with pytest.raises(ValueError):
        G.Chain([(1, s), (1, G.Simplex([[0.0, 0.0], [1.0, 1.0]]))])


def test_chain_coefficients_must_be_integral():
    s = unit_right_triangle()
    assert G.Chain([(2.0, s)]).terms == ((2, s),)
    with pytest.raises(ValueError):
        G.Chain([(0.5, s)])
    with pytest.raises(ValueError):
        2.5 * G.Chain([(1, s)])


# ---------------------------------------------------------------------------
# coordinate projections


def projection(simplex, index_set):
    """dx^I of one simplex: a one-row batch of coordinate_projection_array."""
    return G.coordinate_projection_array(simplex.vertices[None], index_set)[0]


def chain_projection(chain, index_set):
    """sum_i c_i dx^I(s_i) over the terms of a chain."""
    return sum(c * projection(s, index_set) for c, s in chain)


def test_coordinate_projection_examples():
    seg = G.Simplex([[0.0, 0.0], [1.0, 0.0]])
    assert projection(seg, (1,)) == pytest.approx(1.0, abs=1e-15)
    tri = unit_right_triangle()
    assert projection(tri, (1, 2)) == pytest.approx(0.5, abs=1e-15)
    xz = G.Simplex([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert projection(xz, (1, 2)) == pytest.approx(0.0, abs=1e-15)
    assert projection(xz, (1, 3)) == pytest.approx(0.5, abs=1e-15)


def test_coordinate_projection_is_alternating():
    tri = unit_right_triangle()
    assert projection(tri, (2, 1)) == pytest.approx(-0.5, abs=1e-15)
    assert projection(tri, (1, 1)) == pytest.approx(0.0, abs=1e-15)
    assert projection(tri.flipped(), (1, 2)) == pytest.approx(-0.5, abs=1e-15)


def test_coordinate_projection_batched_matches_scalar():
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(10, 3, 4))
    vals = G.coordinate_projection_array(pts, (2, 4))
    for i in range(10):
        # dx^I = det(M) / k! with M[r, c] = (v_(c+1) - v_0)[I_r]
        m = (pts[i, 1:] - pts[i, 0])[:, [1, 3]].T
        assert vals[i] == pytest.approx(
            np.linalg.det(m) / math.factorial(2), rel=1e-12
        )


def test_coordinate_projection_rejects_bad_labels():
    with pytest.raises(ValueError):
        projection(unit_right_triangle(), (0, 1))
    with pytest.raises(ValueError):
        projection(unit_right_triangle(), (1, 3))


# ---------------------------------------------------------------------------
# cubes and boxes


def test_cube_to_chain_volume_sum():
    r = 0.37
    cube = G.Cube(base=np.array([0.2, -0.3, 0.5]), frame=np.eye(3), side=r)
    chain = G.cube_to_chain(cube)
    assert len(chain) == 6
    total = sum(c * G.volume(s) for c, s in chain)
    assert total == pytest.approx(r**3, rel=1e-12)
    signed = chain_projection(chain, (1, 2, 3))
    assert signed == pytest.approx(r**3, rel=1e-12)


def test_cube_to_chain_respects_sign_and_rotation():
    rng = np.random.default_rng(37)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[0] = -q[0]
    cube = G.Cube(base=np.zeros(3), frame=q, side=0.5, sign=-1)
    chain = G.cube_to_chain(cube)
    total = sum(c * G.volume(s) for c, s in chain)
    assert abs(total) == pytest.approx(0.125, rel=1e-12)
    signed = chain_projection(chain, (1, 2, 3))
    assert signed == pytest.approx(-0.125 * np.linalg.det(q), rel=1e-12)


def test_cube_requires_orthonormal_frame():
    with pytest.raises(ValueError):
        G.Cube(base=np.zeros(2), frame=np.array([[1.0, 1.0]]), side=1.0)


def test_cube_checks_every_frame_after_accepting_one_of_its_shape():
    # the orthonormality test is memoized on the frame's bytes and shape,
    # so an accepted frame vouches for no other frame
    G.Cube(base=np.zeros(2), frame=np.eye(2), side=1.0)
    G.Cube(base=np.ones(2), frame=np.eye(2), side=0.5)
    sheared = np.array([[1.0, 0.0], [0.6, 0.8]])
    for _ in range(2):  # a cached rejection still rejects
        with pytest.raises(ValueError, match="orthonormal"):
            G.Cube(base=np.zeros(2), frame=sheared, side=1.0)
    # the bytes of eye(2) as one row of length 4: norm sqrt(2)
    with pytest.raises(ValueError, match="orthonormal"):
        G.Cube(base=np.zeros(4), frame=np.eye(2).reshape(1, 4), side=1.0)


def test_cube_rejects_a_frame_holding_nan():
    frame = np.eye(3)
    frame[2, 1] = np.nan
    for _ in range(2):
        with pytest.raises(ValueError, match="orthonormal"):
            G.Cube(base=np.zeros(3), frame=frame, side=1.0)


def test_axis_box_chain_signed_integral():
    chain = axis_box_chain([0.0, 0.0, 1.0], (1, 3), (0.5, -0.25))
    signed = chain_projection(chain, (1, 3))
    assert signed == pytest.approx(-0.125, rel=1e-12)
    unsigned = sum(c * G.volume(s) for c, s in chain)
    assert unsigned == pytest.approx(0.125, rel=1e-12)
    seg = axis_box_chain([1.0], (1,), (-1.0,))
    val = chain_projection(seg, (1,))
    assert val == pytest.approx(-1.0, abs=1e-15)


def test_square_boundary_cancels_interior_diagonal():
    cube = G.Cube(base=np.zeros(2), frame=np.eye(2), side=1.0)
    boundary = canon(boundary_chain(G.cube_to_chain(cube)))
    assert len(boundary) == 4
    # the four sides of the unit square, traversed counterclockwise
    for coeff, verts in (
        (1, [[0.0, 0.0], [1.0, 0.0]]),
        (1, [[1.0, 0.0], [1.0, 1.0]]),
        (-1, [[0.0, 1.0], [1.0, 1.0]]),
        (-1, [[0.0, 0.0], [0.0, 1.0]]),
    ):
        key, sign = key_of(verts)
        assert boundary[key] == coeff * sign


# ---------------------------------------------------------------------------
# grid snapping


def test_snap_to_grid_displacement_bound():
    rng = np.random.default_rng(41)
    s = G.Simplex(rng.normal(size=(4, 4)))
    for n in (0, 2, 5):
        snapped = snap_to_grid(s, n)
        disp = np.linalg.norm(snapped.vertices - s.vertices, axis=1)
        assert np.all(disp <= 2.0**-n * math.sqrt(4) / 2 + 1e-15)
        assert np.allclose(snapped.vertices * 2.0**n, np.round(snapped.vertices * 2.0**n))


def test_snap_to_grid_breaks_ties_toward_minus_infinity():
    s = G.Simplex([[0.75, -0.75]])
    snapped = snap_to_grid(s, 1)
    assert snapped.vertices[0, 0] == 0.5
    assert snapped.vertices[0, 1] == -1.0


# ---------------------------------------------------------------------------
# charts and enclosing balls


def test_flatten_simplex_is_isometric_and_oriented():
    rng = np.random.default_rng(43)
    s = G.Simplex(rng.normal(size=(3, 5)))
    flat, basis = G.flatten_simplex(s)
    d_orig = np.linalg.norm(s.vertices[:, None] - s.vertices[None, :], axis=2)
    d_flat = np.linalg.norm(flat[:, None] - flat[None, :], axis=2)
    assert np.allclose(d_orig, d_flat, atol=1e-12)
    assert np.linalg.det(flat[1:] - flat[0]) > 0
    assert np.allclose(s.vertices[0] + flat @ basis, s.vertices, atol=1e-12)


def test_minimal_enclosing_ball_known_cases():
    c, r = G.minimal_enclosing_ball([np.array([0.0, 0.0]), np.array([2.0, 0.0])])
    assert np.allclose(c, [1.0, 0.0], atol=1e-12)
    assert r == pytest.approx(1.0, rel=1e-12)
    tri = [
        np.array([0.0, 0.0]),
        np.array([1.0, 0.0]),
        np.array([0.5, math.sqrt(3) / 2]),
    ]
    c, r = G.minimal_enclosing_ball(tri)
    assert r == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-9)
    # an interior point must not change the ball
    c2, r2 = G.minimal_enclosing_ball(tri + [np.array([0.5, 0.3])])
    assert r2 == pytest.approx(r, rel=1e-9)


def test_minimal_enclosing_ball_random_points():
    rng = np.random.default_rng(47)
    pts = list(rng.normal(size=(40, 3)))
    c, r = G.minimal_enclosing_ball(pts)
    dists = [np.linalg.norm(p - c) for p in pts]
    assert max(dists) <= r + 1e-12
    diam = max(
        np.linalg.norm(p - q) for i, p in enumerate(pts) for q in pts[i + 1 :]
    )
    assert diam / 2 - 1e-12 <= r <= diam
