import math
import warnings
from collections import Counter

import numpy as np
import pytest

from roughforms import geometry as G
from roughforms import subdivision as S
from roughforms.errors import BudgetExceededError, UnsupportedDimensionError

from conftest import assert_rounding_close


def equilateral_triangle():
    return G.Simplex([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])


def unit_right_triangle():
    return G.Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def vertex_multiset(simplices, decimals=12):
    out = {}
    for s in simplices:
        key = np.round(np.asarray(s.vertices), decimals).tobytes()
        out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------
# edgewise children


def test_edgewise_segment_halves():
    seg = G.Simplex([[0.0], [1.0]])
    kids = S.EDGEWISE.children(seg)
    assert len(kids) == 2
    assert vertex_multiset(kids) == vertex_multiset(
        [G.Simplex([[0.0], [0.5]]), G.Simplex([[0.5], [1.0]])]
    )
    for kid in kids:
        dx = G.coordinate_projection_array(kid.vertices[None], (1,))[0]
        assert dx == pytest.approx(0.5)


def test_edgewise_triangle_is_midpoint_refinement():
    tri = unit_right_triangle()
    kids = S.EDGEWISE.children(tri)
    assert len(kids) == 4
    # vertex set = original vertices plus edge midpoints
    all_pts = {tuple(v) for kid in kids for v in kid.vertices}
    assert all_pts == {
        (0.0, 0.0),
        (1.0, 0.0),
        (0.0, 1.0),
        (0.5, 0.0),
        (0.0, 0.5),
        (0.5, 0.5),
    }
    parent_ecc = G.eccentricity(tri)
    for kid in kids:
        assert G.diameter(kid) == pytest.approx(G.diameter(tri) / 2, rel=1e-12)
        assert G.eccentricity(kid) == pytest.approx(parent_ecc, rel=1e-12)
        # orientation preserved: positive signed area, same as parent
        assert G.coordinate_projection_array(kid.vertices[None], (1, 2))[0] > 0
    total = sum(G.volume(kid) for kid in kids)
    assert total == pytest.approx(G.volume(tri), rel=1e-12)


def test_edgewise_children_count_and_volume_k3():
    rng = np.random.default_rng(1)
    s = G.Simplex(rng.normal(size=(4, 3)))
    kids = S.EDGEWISE.children(s)
    assert len(kids) == 8
    assert sum(G.volume(kid) for kid in kids) == pytest.approx(
        G.volume(s), rel=1e-10
    )
    # every child volume is exactly a 2^-k share (chart cells are unimodular)
    for kid in kids:
        assert G.volume(kid) == pytest.approx(G.volume(s) / 8, rel=1e-10)
    for kid in kids:
        assert G.diameter(kid) <= G.diameter(s) * 0.75


def test_edgewise_rejects_k4():
    rng = np.random.default_rng(2)
    with pytest.raises(UnsupportedDimensionError):
        S.EDGEWISE.children(G.Simplex(rng.normal(size=(5, 5))))


def test_edgewise_orientation_preserved_in_3d():
    rng = np.random.default_rng(3)
    v = rng.normal(size=(4, 3))
    s = G.Simplex(v)
    sign_parent = np.sign(np.linalg.det(v[1:] - v[0]))
    for kid in S.EDGEWISE.children(s):
        kv = kid.vertices
        assert np.sign(np.linalg.det(kv[1:] - kv[0])) == sign_parent


# ---------------------------------------------------------------------------
# barycentric children


def test_barycentric_counts():
    seg = G.Simplex([[0.0], [1.0]])
    assert len(S.BARYCENTRIC.children(seg)) == 2
    kids = S.BARYCENTRIC.children(unit_right_triangle())
    assert len(kids) == 6
    assert sum(G.volume(kid) for kid in kids) == pytest.approx(0.5, rel=1e-12)
    for kid in kids:
        assert G.coordinate_projection_array(kid.vertices[None], (1, 2))[0] > 0


# ---------------------------------------------------------------------------
# iterate


def test_iterate_zero_levels_is_identity():
    tri = unit_right_triangle()
    out = S.iterate(S.EDGEWISE, tri, 0)
    assert len(out) == 1
    assert out[0] == tri


def test_iterate_cardinality_power_law():
    out = S.iterate(S.EDGEWISE, unit_right_triangle(), 3)
    assert len(out) == 64
    vols = sum(G.volume(s) for s in out)
    assert vols == pytest.approx(0.5, rel=1e-10)


def test_iterate_budget_cap():
    # 4^12 = 2^24 children exceed the cap of 2^22; both raise before
    # building any level
    with pytest.raises(BudgetExceededError, match="cap"):
        S.iterate(S.EDGEWISE, unit_right_triangle(), 12)
    with pytest.raises(BudgetExceededError, match="cap"):
        S.stats(S.EDGEWISE, unit_right_triangle(), 12)


def test_semigroup_law():
    tri = equilateral_triangle()
    whole = S.iterate(S.EDGEWISE, tri, 3)
    two_then_one = [
        kid for w in S.iterate(S.EDGEWISE, tri, 2) for kid in S.EDGEWISE.children(w)
    ]
    assert vertex_multiset(whole) == vertex_multiset(two_then_one)
    whole_b = S.iterate(S.BARYCENTRIC, tri, 2)
    one_then_one = [
        kid
        for w in S.BARYCENTRIC.children(tri)
        for kid in S.BARYCENTRIC.children(w)
    ]
    assert vertex_multiset(whole_b) == vertex_multiset(one_then_one)


def test_partition_property():
    # 1e4 uniform points in the triangle, each inside exactly one child
    tri = unit_right_triangle()
    rng = np.random.default_rng(5)
    e = rng.exponential(size=(10_000, 3))
    bary = e / e.sum(axis=1, keepdims=True)
    pts = bary @ tri.vertices
    kids = S.EDGEWISE.children(tri)
    counts = np.zeros(len(pts), dtype=int)
    for kid in kids:
        v = kid.vertices
        m = (v[1:] - v[0]).T
        sol = np.linalg.solve(
            m, (pts - v[0]).T
        ).T
        lam = np.concatenate([1 - sol.sum(axis=1, keepdims=True), sol], axis=1)
        counts += np.all(lam >= -1e-9, axis=1)
    assert np.all(counts == 1)


@pytest.mark.parametrize("k, levels", [(1, 4), (2, 4), (3, 3)])
def test_edgewise_lattice_gathers_the_iterated_children(k, levels):
    # rebuild the lattice from the midpoint tables: points in ambient and
    # in integer barycentric coordinates (denominator 2^n), then compare
    # each level's gathered simplices with iterate_array row by row
    root = np.random.default_rng(k).normal(size=(k + 1, 3))
    points = root
    coords = np.eye(k + 1, dtype=np.int64)
    for n in range(levels + 1):
        simplices, midpoints = S.edgewise_lattice(k, n)
        if n:
            old = len(points)
            points = np.concatenate(
                [points, 0.5 * (points[midpoints[:, 0]] + points[midpoints[:, 1]])]
            )
            coords = np.concatenate(
                [2 * coords, coords[midpoints[:, 0]] + coords[midpoints[:, 1]]]
            )
            # level n-1's points are the even-index subset, ids first
            even = np.all(coords % 2 == 0, axis=1)
            assert np.all(even[:old]) and not np.any(even[old:])
        # every lattice point once, each a vertex of the level
        assert len(points) == math.comb(2**n + k, k)
        assert np.all(coords.sum(axis=1) == 2**n)
        assert len(np.unique(coords, axis=0)) == len(coords)
        assert simplices.dtype == np.int32
        np.testing.assert_array_equal(np.unique(simplices), np.arange(len(points)))
        want = S.iterate_array(S.EDGEWISE, root[None], n)
        np.testing.assert_allclose(points[simplices], want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            coords[simplices] / 2**n @ root, want, rtol=0, atol=1e-14
        )


# ---------------------------------------------------------------------------
# stats


def test_stats_edgewise_equilateral_self_similar():
    st = S.stats(S.EDGEWISE, equilateral_triangle(), 4)
    assert st.cardinality == 4
    assert st.norm_m == pytest.approx(1.0, abs=1e-9)
    assert st.c_m == pytest.approx(0.5, abs=1e-12)
    assert st.strongly_regular_observed
    assert all(r == pytest.approx(1.0, rel=1e-9) for r in st.vol_ratio_growth)


def test_stats_edgewise_segment():
    st = S.stats(S.EDGEWISE, G.Simplex([[0.2], [0.9]]), 5)
    assert st.cardinality == 2
    assert st.c_m == pytest.approx(0.5, abs=1e-12)
    assert st.norm_m == pytest.approx(1.0, abs=1e-12)


def test_stats_edgewise_k3_eccentricity_pinned():
    # regression pin: on the unit right 3-simplex the max eccentricity ratio
    # locks onto a fixed shape family; measured sup over 6 levels is 1.8371
    s = G.Simplex(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    st = S.stats(S.EDGEWISE, s, 6)
    assert st.cardinality == 8
    assert st.c_m < 1.0
    assert st.norm_m == pytest.approx(1.8371173, rel=1e-6)
    assert st.norm_m <= 10.0
    # the ratio reaches its sup immediately and stays there: shape closure
    assert st.ecc_ratio_by_level[-1] == pytest.approx(st.norm_m, rel=1e-9)
    assert st.strongly_regular_observed


def test_stats_barycentric_norm_strictly_increasing():
    st = S.stats(S.BARYCENTRIC, equilateral_triangle(), 6)
    ecc = st.ecc_ratio_by_level
    assert all(b > a for a, b in zip(ecc, ecc[1:]))
    assert not st.strongly_regular_observed
    assert st.records[0]["card"] == 6


def test_stats_json_record_fields():
    st = S.stats(S.EDGEWISE, unit_right_triangle(), 2)
    rec = st.records[1]
    assert set(rec) == {"scheme", "k", "level", "card", "c", "ecc_ratio", "vol_ratio"}
    assert rec["level"] == 2
    assert rec["card"] == 16
    blob = st.to_json()
    assert blob["scheme"] == "edgewise"
    assert blob["cardinality"] == 4


# ---------------------------------------------------------------------------
# invariant: regular sequences sum diameters geometrically


def test_regular_sequence_diameter_sums():
    # sum of diam^gamma over level n children obeys the geometric bound
    # norm * c^(n(gamma-k)) * diam^gamma for gamma = k + 0.5
    for k, builder in (
        (1, G.Simplex([[0.1], [0.9]])),
        (2, unit_right_triangle()),
        (3, G.Simplex(np.random.default_rng(7).normal(size=(4, 3)))),
    ):
        st = S.stats(S.EDGEWISE, builder, 4)
        gamma = k + 0.5
        pts = builder.vertices[None]
        d0 = G.diameter(builder)
        for n in range(1, 7):
            pts = S.EDGEWISE.children_array(pts)
            total = float(np.sum(G.diameter_array(pts) ** gamma))
            bound = st.norm_m * st.c_m ** (n * (gamma - k)) * d0**gamma
            assert total <= bound * (1 + 1e-9)


def test_mass_subadditive_under_scheme_children():
    rng = np.random.default_rng(9)
    for k in (1, 2, 3):
        v = rng.normal(size=(k + 1, 3 if k < 3 else 3))
        s = G.Simplex(v)
        s = G.Simplex(v / (G.diameter(s) * 1.25))
        for scheme in (S.EDGEWISE, S.BARYCENTRIC):
            if scheme is S.EDGEWISE and k > 3:
                continue
            kids = scheme.children(s)
            for alpha in (0.3, 0.7, 1.0):
                whole = G.mass_value(s, alpha)
                parts = sum(G.mass_value(kid, alpha) for kid in kids)
                assert whole <= parts + 1e-9


# ---------------------------------------------------------------------------
# Whitney cubes


def test_whitney_covers_unit_right_triangle():
    dec = S.whitney_cubes(unit_right_triangle(), 10)
    assert dec.covered_volume >= 0.99 * dec.simplex_volume
    assert dec.covered_volume <= dec.simplex_volume


def sampled_center_distance(flat_vertices, center, m=4000):
    """Distance of a point to the simplex boundary, via dense edge sampling."""
    k = flat_vertices.shape[1]
    best = math.inf
    for i in range(k + 1):
        face = np.delete(flat_vertices, i, axis=0)
        if k == 1:
            pts = face
        else:
            t = np.linspace(0.0, 1.0, m)[:, None]
            pts = face[0] * (1 - t) + face[1] * t
        d = np.linalg.norm(pts - center, axis=1)
        best = min(best, float(d.min()))
    return best


def test_whitney_distance_sandwich():
    tri = unit_right_triangle()
    dec = S.whitney_cubes(tri, 6)
    assert len(dec.levels) > 0
    rt_k = math.sqrt(2)
    for corner, side, dist in zip(dec.corners, dec.sides, dec.distances):
        assert side * rt_k <= dist <= 4 * side * rt_k
        center = corner + side / 2
        est = sampled_center_distance(dec.flat_vertices, center)
        assert est == pytest.approx(dist, abs=2e-3)
        # the cube itself stays strictly inside the simplex
        assert est - side * math.sqrt(2) / 2 > 0


def test_whitney_cubes_disjoint_and_inside():
    tri = unit_right_triangle()
    dec = S.whitney_cubes(tri, 7)
    rng = np.random.default_rng(11)
    e = rng.exponential(size=(4000, 3))
    bary = e / e.sum(axis=1, keepdims=True)
    pts = bary @ dec.flat_vertices
    hits = np.zeros(len(pts), dtype=int)
    for corner, side in zip(dec.corners, dec.sides):
        inside = np.all((pts > corner) & (pts < corner + side), axis=1)
        hits += inside
    assert hits.max() <= 1
    # covered fraction of random points roughly matches covered volume
    frac = hits.mean()
    assert frac == pytest.approx(dec.covered_volume / dec.simplex_volume, abs=0.03)


def test_whitney_segment_is_dyadic():
    # 1d Whitney of an interval: a central block, then a bounded number of
    # intervals per level shrinking geometrically toward the endpoints
    seg = G.Simplex([[0.0, 0.0], [1.0, 0.0]])
    dec = S.whitney_cubes(seg, 8)
    levels = sorted(dec.level_counts)
    for n in levels[1:]:
        assert dec.level_counts[n] <= 4
    assert dec.covered_volume < 1.0
    assert dec.covered_volume > 0.98
    for side, dist in zip(dec.sides, dec.distances):
        assert side <= dist <= 4 * side
    # intervals tile without overlap
    ends = sorted((c[0], c[0] + s) for c, s in zip(dec.corners, dec.sides))
    for (a0, a1), (b0, b1) in zip(ends, ends[1:]):
        assert b0 >= a1 - 1e-12


def test_whitney_ambient_cubes_sit_in_the_simplex_plane():
    # a tilted segment in R^2: cube bases must lie on it
    seg = G.Simplex([[0.0, 0.0], [1.0, 1.0]])
    dec = S.whitney_cubes(seg, 6)
    for cube in dec.cubes():
        assert cube.base[0] == pytest.approx(cube.base[1], abs=1e-12)
        assert cube.frame.shape == (1, 2)


@pytest.mark.parametrize(
    "simplex, n_max",
    [
        (G.Simplex([[0.3], [1.7]]), 9),
        (unit_right_triangle(), 6),
        (G.Simplex([[2.0, -1.0], [3.1, 0.4], [1.2, 0.9]]), 5),
        (G.Simplex([[0.0, 0.0], [1.0, 1.0]]), 6),
    ],
    ids=["segment", "right_triangle", "shifted_triangle", "tilted_segment"],
)
def test_whitney_rows_go_coarsest_first_then_lexicographically(
    simplex, n_max
):
    # the cell index of _RawBumps adds each point's bumps in this order,
    # which keeps its sums bitwise equal to a loop over the rows
    dec = S.whitney_cubes(simplex, n_max)
    k = simplex.k
    m = len(dec.levels)
    assert m > 0
    assert dec.corners.shape == (m, k) and dec.distances.shape == (m,)
    assert np.all(np.diff(dec.levels) >= 0)
    for n in np.unique(dec.levels):
        rows = [tuple(c) for c in dec.corners[dec.levels == n]]
        assert all(a < b for a, b in zip(rows, rows[1:]))
    assert dec.level_counts == Counter(dec.levels.tolist())
    assert dec.covered_volume == math.fsum(2.0 ** (-n * k) for n in dec.levels)
    cubes = dec.cubes()
    assert_rounding_close(
        [c.base for c in cubes],
        simplex.vertices[0] + dec.corners @ dec.basis,
    )
    for cube, n in zip(cubes, dec.levels):
        assert np.array_equal(cube.frame, dec.basis)
        assert type(cube.side) is float and cube.side == 2.0**-n


# ---------------------------------------------------------------------------
# partition of unity


def test_partition_of_unity_sums_to_one():
    tri = unit_right_triangle()
    parts = S.whitney_partition(tri, 6)
    dec = S.whitney_cubes(tri, 6)
    rng = np.random.default_rng(13)
    # draw points inside covered cubes only
    pts = []
    for corner, side in zip(dec.corners, dec.sides):
        pts.append(corner + rng.random(2) * side)
        if len(pts) >= 100:
            break
    pts = np.array(pts)
    total = np.zeros(len(pts))
    for _, weight in parts:
        total += weight(pts)
    assert np.allclose(total, 1.0, atol=1e-8)


def test_partition_vanishes_outside_dilated_cube():
    tri = unit_right_triangle()
    parts = S.whitney_partition(tri, 5)
    dec = S.whitney_cubes(tri, 5)
    rng = np.random.default_rng(17)
    probe = rng.random((500, 2))
    for corner, side, (_, weight) in zip(dec.corners, dec.sides, parts):
        center = corner + side / 2
        vals = weight(probe)
        outside = np.any(np.abs(probe - center) >= (2.0 / 3.0) * side, axis=1)
        assert np.all(vals[outside] == 0.0)


def test_partition_weight_at_nan_is_zero_and_quiet():
    parts = S.whitney_partition(unit_right_triangle(), 4)
    pts = np.array([[np.nan, 0.2], [0.1, 0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = parts[0][1](pts)
    assert values[0] == 0.0


def _loop_total(bumps, flat_pts):
    # the per-cube loop the cell index replaced: every cube tests every point
    out = np.zeros(flat_pts.shape[0])
    for i in range(len(bumps.sides)):
        near = (
            np.abs(flat_pts - bumps.centers[i]).max(axis=1)
            < bumps.sides[i] * (2.0 / 3.0)
        )
        if near.any():
            out[near] += bumps.raw(i, flat_pts[near])
    return out


@pytest.mark.parametrize(
    "simplex, n_max",
    [
        (G.Simplex([[0.3], [1.7]]), 9),
        (unit_right_triangle(), 6),
        # away from the origin: flat coordinates go below zero
        (G.Simplex([[2.0, -1.0], [3.1, 0.4], [1.2, 0.9]]), 5),
    ],
    ids=["segment", "right_triangle", "shifted_triangle"],
)
def test_whitney_total_matches_per_cube_loop(simplex, n_max):
    dec = S.whitney_cubes(simplex, n_max)
    bumps = S._RawBumps(dec)
    k = simplex.k
    rng = np.random.default_rng(23)
    lo = dec.flat_vertices.min(axis=0) - 0.2
    hi = dec.flat_vertices.max(axis=0) + 0.2
    boxed = lo + rng.random((1500, k)) * (hi - lo)
    # every coordinate, or some, snapped to the grid lines of each level
    on_grid = []
    for n in dec.level_counts:
        snapped = np.floor(boxed[:200] / 2.0**-n) * 2.0**-n
        some = rng.random((200, k)) < 0.5
        on_grid += [snapped, np.where(some, snapped, boxed[:200])]
    # one coordinate on a cube's 2/3-side dilation boundary, or a float off it
    rows = np.arange(200)
    pick = rng.integers(len(dec.levels), size=200)
    centers, sides = bumps.centers[pick], bumps.sides[pick, None]
    axis = rng.integers(k, size=200)
    edge = centers + rng.uniform(-0.5, 0.5, (200, k)) * sides
    reach = rng.choice([-1.0, 1.0], size=(200, 1)) * sides * (2.0 / 3.0)
    edge[rows, axis] = (centers + reach)[rows, axis]
    nudged = edge.copy()
    nudged[rows, axis] = np.nextafter(edge[rows, axis], centers[rows, axis])
    bad = boxed[:6].copy()
    bad[0, 0] = np.nan
    bad[1] = np.nan
    bad[2, -1] = np.inf
    bad[3] = -np.inf
    bad[4, 0] = 1e308
    bad[5, 0] = -np.inf
    bad[5, -1] = np.nan
    pts = np.concatenate([boxed, *on_grid, edge, nudged, bad])
    # non-finite rows raise nothing and weigh nothing (underflow in the
    # bump tails is expected)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        total = bumps.total(pts)
    assert np.array_equal(total, _loop_total(bumps, pts))
    assert np.all(total[-6:] == 0.0)
    assert np.count_nonzero(total) > len(pts) // 5


def test_partition_cubes_and_weights_do_not_depend_on_the_frame_memo():
    # Cube's frame check is memoized: 777 cubes share one frame. Built
    # with the memo cold and warm, the cubes are the decomposition's rows
    # bit for bit, and each weight is its raw bump over the per-cube loop
    # total, bit for bit, at fixed points.
    tri = unit_right_triangle()
    dec = S.whitney_cubes(tri, 7)
    bumps = S._RawBumps(dec)
    pts = np.random.default_rng(23).random((48, 2)) * 0.9
    flat = bumps.to_flat(pts)
    total = _loop_total(bumps, flat)
    G._orthonormal.cache_clear()
    cold = S.whitney_partition(tri, 7)
    warm = S.whitney_partition(tri, 7)
    assert len(cold) == len(warm) == len(dec.sides) == 777
    v0 = tri.vertices[0]
    for i, corner in enumerate(dec.corners):
        base = (v0 + corner @ dec.basis).tobytes()
        num = bumps.raw(i, flat)
        want = np.zeros_like(num)
        want[num > 0] = num[num > 0] / total[num > 0]
        for cube, weight in (cold[i], warm[i]):
            assert cube.base.tobytes() == base
            assert cube.frame.tobytes() == dec.basis.tobytes()
            assert cube.side == dec.sides[i] and cube.sign == 1
            assert weight(pts).tobytes() == want.tobytes()


def test_partition_gradient_scales_like_level():
    # finite-difference sup of |grad phi| over the covered region obeys
    # C * 2^n with one constant C across levels; the quotient is smooth
    # there because the raw bumps sum to >= 1 on every covered point
    tri = unit_right_triangle()
    parts = S.whitney_partition(tri, 7)
    dec = S.whitney_cubes(tri, 7)
    corners, sides = dec.corners, dec.sides

    def covered(pts):
        p = pts[:, None, :]
        inside = (p >= corners) & (p <= corners + sides[:, None])
        return inside.all(axis=2).any(axis=1)

    rng = np.random.default_rng(19)
    by_level = {}
    h = 1e-6
    for n, corner, side, (_, weight) in zip(
        dec.levels, dec.corners, dec.sides, parts
    ):
        base = corner - side / 6 + rng.random((60, 2)) * side * (4 / 3)
        base = base[covered(base)]
        if len(base) == 0:
            continue
        g = np.zeros(len(base))
        for j in range(2):
            step = np.zeros(2)
            step[j] = h
            g += ((weight(base + step) - weight(base - step)) / (2 * h)) ** 2
        by_level.setdefault(n, 0.0)
        by_level[n] = max(by_level[n], float(np.sqrt(g).max()))
    levels = [n for n in sorted(by_level) if by_level[n] > 0]
    assert len(levels) >= 3
    cs = [by_level[n] / 2.0**n for n in levels]
    assert max(cs) <= 10 * min(cs)


def test_partition_rejects_unflat_cases():
    with pytest.raises(UnsupportedDimensionError):
        S.whitney_partition(G.Simplex([[0.0, 0.0], [1.0, 1.0]]), 5)


def test_disjoint_boxes_keep_separated_boxes_apart():
    # one x slab holding two y intervals that do not meet
    lo = np.array([[0.0, 2.0], [0.0, 0.0]])
    hi = np.array([[1.0, 3.0], [1.0, 1.0]])
    boxes = S._disjoint_boxes(lo, hi)
    np.testing.assert_array_equal(boxes, np.stack([lo, hi], axis=1)[::-1])
    segments = S._disjoint_boxes(
        np.array([[2.0], [0.0]]), np.array([[3.0], [1.0]])
    )
    np.testing.assert_array_equal(segments, [[[0.0], [1.0]], [[2.0], [3.0]]])
