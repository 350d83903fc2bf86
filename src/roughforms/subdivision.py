"""Subdivision schemes for simplices and Whitney cube decompositions.

Two schemes are provided: the edgewise (midpoint) scheme, which is strongly
regular for k <= 3, and barycentric subdivision, a valid method whose
eccentricities grow without bound (a negative control for regularity
diagnostics). Whitney decompositions cover the interior of a simplex by
non-overlapping dyadic cubes in its own k-plane.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import fitting
from .errors import BudgetExceededError, UnsupportedDimensionError
from .geometry import (
    Cube,
    Simplex,
    _permutation_sign,
    diameter_array,
    eccentricity,
    eccentricity_array,
    faces,
    flatten_simplex,
    volume,
    volume_array,
)

# Hard cap on the number of simplices any iterated subdivision may produce.
CHILD_CAP = 1 << 22

EDGEWISE_MAX_K = 3


# Edgewise (red refinement) child tables per k. Each child is a list of
# vertex labels: (i,) is the original vertex v_i, (i, j) the midpoint of
# edge ij. The orderings matter twice over: every child must be positively
# oriented relative to its parent, and recursive application must close on
# a finite family of shapes so eccentricity stays bounded. The k = 3 table
# is the standard red-refinement one with the two negatively oriented
# interior children reordered by swapping their second and fourth vertices,
# a choice verified to keep both properties through deep iteration.
_EDGEWISE_TABLES = {
    1: [
        [(0,), (0, 1)],
        [(0, 1), (1,)],
    ],
    2: [
        [(0,), (0, 1), (0, 2)],
        [(0, 1), (1,), (1, 2)],
        [(0, 2), (1, 2), (2,)],
        [(0, 1), (1, 2), (0, 2)],
    ],
    3: [
        [(0,), (0, 1), (0, 2), (0, 3)],
        [(0, 1), (1,), (1, 2), (1, 3)],
        [(0, 2), (1, 2), (2,), (2, 3)],
        [(0, 3), (1, 3), (2, 3), (3,)],
        [(0, 1), (0, 2), (0, 3), (1, 3)],
        [(0, 1), (1, 3), (1, 2), (0, 2)],
        [(0, 2), (0, 3), (1, 3), (2, 3)],
        [(0, 2), (2, 3), (1, 3), (1, 2)],
    ],
}


def _label_weights(table, k):
    out = np.zeros((len(table), k + 1, k + 1))
    for c, child in enumerate(table):
        for t, label in enumerate(child):
            for v in label:
                out[c, t, v] += 1.0 / len(label)
    return out


@lru_cache(maxsize=None)
def _edgewise_weights(k):
    """Barycentric weight tensor (2^k, k+1, k+1) of the edgewise children."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > EDGEWISE_MAX_K:
        raise UnsupportedDimensionError(
            f"edgewise subdivision is implemented for k <= {EDGEWISE_MAX_K}"
        )
    return _label_weights(_EDGEWISE_TABLES[k], k)


@lru_cache(maxsize=None)
def _barycentric_weights(k):
    """Weight tensor ((k+1)!, k+1, k+1) of barycentric children."""
    if k < 1:
        raise ValueError("k must be >= 1")
    cells = []
    for perm in itertools.permutations(range(k + 1)):
        w = np.zeros((k + 1, k + 1))
        for t in range(k + 1):
            w[t, list(perm[: t + 1])] = 1.0 / (t + 1)
        if _permutation_sign(perm) < 0:
            w[[0, 1]] = w[[1, 0]]
        cells.append(w)
    return np.array(cells)


class SubdivisionScheme:
    """A method of subdivision: a rule producing same-orientation children.

    The children of a simplex are fixed barycentric combinations of its
    vertices, stored as one weight tensor per k, which makes batched
    application a single tensor contraction.
    """

    def __init__(self, name, weights_fn):
        self.name = name
        self._weights_fn = weights_fn

    def weights(self, k):
        return self._weights_fn(k)

    def card(self, k):
        return self.weights(k).shape[0]

    def children_array(self, pts):
        """Children of a batch: (n, k+1, d) -> (n*card, k+1, d).

        Children of parent i occupy the contiguous block [i*card, (i+1)*card)
        in enumeration order, so output ordering is deterministic.
        """
        pts = np.asarray(pts, dtype=float)
        k = pts.shape[1] - 1
        w = self.weights(k)
        out = np.einsum("cte,ned->nctd", w, pts)
        return out.reshape(-1, k + 1, pts.shape[2])

    def children(self, simplex):
        arr = self.children_array(simplex.vertices[None])
        return [Simplex(v) for v in arr]

    def __repr__(self):
        return f"SubdivisionScheme({self.name!r})"


EDGEWISE = SubdivisionScheme("edgewise", _edgewise_weights)
BARYCENTRIC = SubdivisionScheme("barycentric", _barycentric_weights)

SCHEMES = {"edgewise": EDGEWISE, "barycentric": BARYCENTRIC}


def iterate_array(scheme, pts, levels):
    """Vertex array of the level-`levels` subdivision of a batch."""
    pts = np.asarray(pts, dtype=float)
    if levels < 0:
        raise ValueError("levels must be >= 0")
    k = pts.shape[1] - 1
    card = scheme.card(k)
    n_final = pts.shape[0] * card**levels
    if n_final > CHILD_CAP:
        raise BudgetExceededError(
            f"subdivision would produce {n_final} simplices "
            f"(cap {CHILD_CAP})"
        )
    for _ in range(levels):
        pts = scheme.children_array(pts)
    return pts


def iterate(scheme, simplex, levels):
    """All level-`levels` descendants of one simplex, in deterministic order."""
    arr = iterate_array(scheme, simplex.vertices[None], levels)
    return [Simplex(v) for v in arr]


@lru_cache(maxsize=None)
def edgewise_lattice(k, n):
    """Level n of the edgewise scheme as ids of dyadic lattice points.

    The vertices of level n are the points of a k-simplex whose barycentric
    coordinates are multiples of 2^-n; those of level n-1 are the points
    with even multiples, and each point that level n adds is the midpoint
    of one level-(n-1) edge. Ids number the points in order of first
    appearance: the root's vertices are 0..k, and level n gives its new
    points the ids after all of level n-1's. Returns (simplices, midpoints)
    as int32 arrays:
    - simplices (2^(kn), k+1): the ids of each level-n simplex's vertices,
      rows in the order of n applications of `children_array`;
    - midpoints (m, 2): row j holds the ids of the two level-(n-1) points
      whose midpoint gets id size(n-1) + j.
    Level n is derived from level n-1 by `_EDGEWISE_TABLES`: a child
    vertex (i,) is the parent's vertex i, and (i, j) the midpoint of the
    parent's edge ij, which every simplex holding that edge shares.
    """
    _edgewise_weights(k)  # checks k
    if n == 0:
        simplices = np.arange(k + 1, dtype=np.int32)[None]
        midpoints = np.empty((0, 2), dtype=np.int32)
    else:
        parents, _ = edgewise_lattice(k, n - 1)
        size = int(parents.max()) + 1
        # the two parent vertices of each child vertex, (v, v) for a vertex
        ends = np.array(
            [
                [label if len(label) == 2 else label * 2 for label in child]
                for child in _EDGEWISE_TABLES[k]
            ]
        )
        a = parents[:, ends[..., 0]]  # (rows, 2^k, k+1)
        b = parents[:, ends[..., 1]]
        ids, hi = np.minimum(a, b), np.maximum(a, b)
        edge = ids != hi
        keys, new_ids = np.unique(
            ids[edge].astype(np.int64) * size + hi[edge], return_inverse=True
        )
        ids[edge] = size + new_ids
        simplices = ids.reshape(-1, k + 1)
        midpoints = np.stack([keys // size, keys % size], axis=1).astype(
            np.int32
        )
    # the cache hands these arrays to every caller
    simplices.setflags(write=False)
    midpoints.setflags(write=False)
    return simplices, midpoints


@dataclass
class SubdivisionStats:
    """Measured regularity constants of a scheme on one simplex."""

    scheme: str
    k: int
    levels: int
    cardinality: int
    c_m: float
    norm_m: float
    vol_ratio_growth: list = field(default_factory=list)
    ecc_ratio_by_level: list = field(default_factory=list)
    vol_ratio_fitted_order: float = float("nan")
    records: list = field(default_factory=list)

    @property
    def strongly_regular_observed(self):
        """Whether the measured constants are consistent with regularity.

        Finite-level data cannot prove the eccentricity sup is finite; this
        flags c < 1 together with a non-increasing tail of per-level
        eccentricity ratios, which is the observable proxy.
        """
        if not (self.c_m < 1.0):
            return False
        tail = self.ecc_ratio_by_level[-3:]
        growing = len(tail) == 3 and all(
            b > a * (1 + 1e-6) for a, b in zip(tail, tail[1:])
        )
        return not growing

    def to_json(self):
        return {
            "scheme": self.scheme,
            "k": self.k,
            "levels": self.levels,
            "cardinality": self.cardinality,
            "c": self.c_m,
            "norm": self.norm_m,
            "vol_ratio_growth": list(self.vol_ratio_growth),
            "ecc_ratio_by_level": list(self.ecc_ratio_by_level),
            "vol_ratio_fitted_order": self.vol_ratio_fitted_order,
            "records": list(self.records),
        }


def stats(scheme, simplex, levels_max):
    """Measure cardinality, contraction, and eccentricity growth.

    Walks levels 1..levels_max, recording per level the max child/parent
    diameter ratio, the max eccentricity ratio against the root, and the
    max/min child volume ratio.
    """
    if levels_max < 1:
        raise ValueError("levels_max must be >= 1")
    k = simplex.k
    card = scheme.card(k)
    if card ** levels_max > CHILD_CAP:
        raise BudgetExceededError(
            f"stats at {levels_max} levels needs {card ** levels_max} "
            f"simplices (cap {CHILD_CAP})"
        )
    root_ecc = eccentricity(simplex)
    pts = simplex.vertices[None]
    c_m = 0.0
    norm_m = 0.0
    vol_ratios = []
    ecc_by_level = []
    records = []
    for level in range(1, levels_max + 1):
        parent_diams = diameter_array(pts)
        pts = scheme.children_array(pts)
        child_diams = diameter_array(pts)
        ratios = child_diams / np.repeat(parent_diams, card)
        c_m = max(c_m, float(ratios.max()))
        eccs = eccentricity_array(pts)
        ecc_ratio = float(eccs.max()) / root_ecc
        ecc_by_level.append(ecc_ratio)
        norm_m = max(norm_m, ecc_ratio)
        vols = volume_array(pts)
        vol_ratio = float(vols.max() / vols.min())
        vol_ratios.append(vol_ratio)
        records.append(
            {
                "scheme": scheme.name,
                "k": k,
                "level": level,
                "card": int(pts.shape[0]),
                "c": float(ratios.max()),
                "ecc_ratio": ecc_ratio,
                "vol_ratio": vol_ratio,
            }
        )
    order = fitting.loglog_slope(
        np.arange(1, levels_max + 1), np.asarray(vol_ratios)
    )
    return SubdivisionStats(
        scheme=scheme.name,
        k=k,
        levels=levels_max,
        cardinality=card,
        c_m=c_m,
        norm_m=norm_m,
        vol_ratio_growth=vol_ratios,
        ecc_ratio_by_level=ecc_by_level,
        vol_ratio_fitted_order=order,
        records=records,
    )


# ---------------------------------------------------------------------------
# Whitney cubes


def _inward_halfspaces(flat_vertices):
    """Unit inward normals and offsets: the simplex is {x : N x >= c}."""
    k = flat_vertices.shape[1]
    normals = []
    offsets = []
    for i in range(k + 1):
        face = np.delete(flat_vertices, i, axis=0)
        apex = flat_vertices[i]
        base = face[0]
        span = (face[1:] - base).T
        r = apex - base
        if span.shape[1]:
            coef, *_ = np.linalg.lstsq(span, r, rcond=None)
            r = r - span @ coef
        n = r / np.linalg.norm(r)
        normals.append(n)
        offsets.append(float(n @ base))
    return np.array(normals), np.array(offsets)


def _inradius(simplex):
    """k Vol / (sum of face volumes): exact inradius of a simplex."""
    k = simplex.k
    total = sum(volume(f) for f in faces(simplex))
    return k * volume(simplex) / total


@dataclass
class WhitneyDecomposition:
    """Non-overlapping dyadic cubes filling a simplex's interior, as arrays.

    Cubes live in the flattening chart of the simplex, which sends a flat
    point p to the ambient point simplex.vertices[0] + p @ basis; the rows
    of `basis` are the one orthonormal frame all cubes share, and
    `flat_vertices` are the simplex's vertices in the chart. Row i is the
    cube of side 2^-levels[i] with lower corner corners[i]; distances[i]
    is the exact distance from its center to the complement of the
    simplex, the quantity the admissibility sandwich constrains. Rows go
    level by level, coarsest first, and within a level in lexicographic
    order of their corners; partition sums rely on it.
    """

    simplex: Simplex
    flat_vertices: np.ndarray
    basis: np.ndarray
    levels: np.ndarray
    corners: np.ndarray
    distances: np.ndarray
    simplex_volume: float

    @property
    def sides(self):
        return np.ldexp(1.0, -self.levels)

    @property
    def centers(self):
        return self.corners + 0.5 * self.sides[:, None]

    @property
    def level_counts(self):
        levels, counts = np.unique(self.levels, return_counts=True)
        return dict(zip(levels.tolist(), counts.tolist()))

    @property
    def covered_volume(self):
        """Total volume of the cubes."""
        return float(np.sum(self.sides**self.simplex.k))

    def cubes(self):
        """The ambient `Cube` of each row, in row order."""
        v0 = self.simplex.vertices[0]
        return [
            Cube(v0 + corner @ self.basis, self.basis, float(side))
            for corner, side in zip(self.corners, self.sides)
        ]


def whitney_cubes(simplex, n_max):
    """Whitney decomposition of the simplex interior up to dyadic level n_max.

    A level-n cube (side 2^-n, corners on 2^-n Z^k after flattening) is
    admissible when the distance from its center to the complement of the
    simplex is at least 2^-n sqrt(k); a cube is selected when it is
    admissible and its level-(n-1) parent is not. The starting level is
    chosen so that no cube is admissible there, which puts every selected
    cube's center distance inside the sandwich
    [2^-n sqrt(k), 4 * 2^-n sqrt(k)] (the upper bound is in fact
    (2 + 1/2) * 2^-n sqrt(k) here) and keeps the cube itself inside the
    simplex with clearance at least 2^-n sqrt(k) / 2.
    """
    if simplex.k < 1:
        raise ValueError("whitney_cubes requires k >= 1")
    k = simplex.k
    flat, basis = flatten_simplex(simplex)
    normals, offsets = _inward_halfspaces(flat)
    rt_k = math.sqrt(k)
    inr = _inradius(simplex)
    # smallest level with 2^-n sqrt(k) strictly above the inradius
    n0 = math.ceil(math.log2(rt_k / inr)) - 1
    while 2.0 ** -n0 * rt_k <= inr:
        n0 -= 1

    lo = flat.min(axis=0)
    hi = flat.max(axis=0)

    def center_distances(centers):
        # exact distance from each cube center to the complement
        slack = centers @ normals.T - offsets[None, :]
        return slack.min(axis=1)

    levels = [np.empty(0, dtype=int)]
    corners = [np.empty((0, k))]
    distances = [np.empty(0)]
    for n in range(n0, n_max + 1):
        side = 2.0**-n
        lo_idx = np.floor(lo / side).astype(int)
        hi_idx = np.ceil(hi / side).astype(int)
        axes = [np.arange(lo_idx[j], hi_idx[j]) for j in range(k)]
        grid = np.stack(
            [g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1
        )
        centers = (grid + 0.5) * side
        dist = center_distances(centers)
        selected = dist >= side * rt_k
        if n > n0:
            parent_centers = (np.floor(grid / 2) + 0.5) * (2 * side)
            parent_dist = center_distances(parent_centers)
            selected &= parent_dist < 2 * side * rt_k
        levels.append(np.full(np.count_nonzero(selected), n))
        corners.append(grid[selected] * side)
        distances.append(dist[selected])
    return WhitneyDecomposition(
        simplex=simplex,
        flat_vertices=flat,
        basis=basis,
        levels=np.concatenate(levels),
        corners=np.concatenate(corners),
        distances=np.concatenate(distances),
        simplex_volume=volume(simplex),
    )


# ---------------------------------------------------------------------------
# partition of unity


def _smoothstep(u):
    """C-infinity ramp: 0 for u <= 0, 1 for u >= 1, and 0 for nan.

    a + b > 0 for every finite u; a nan u makes both terms 0.
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(1 - u > 0, np.exp(-1.0 / np.maximum(1 - u, 1e-300)), 0.0)
    total = a + b
    return np.divide(a, total, out=np.zeros_like(total), where=total > 0)


def _bump_1d(t):
    """1 on [-1/2, 1/2], 0 outside (-2/3, 2/3), smooth between."""
    t = np.abs(np.asarray(t, dtype=float))
    return _smoothstep((2.0 / 3.0 - t) * 6.0)


class _RawBumps:
    """Unnormalized tensor bumps attached to the cubes of a decomposition.

    `total` sums the bumps at a batch of flat points through a dyadic cell
    index: for each level present, a table maps grid cells (center / side
    rounded down, exact because sides are powers of two) to cube ids, -1
    for no cube. A point p lies in the open 4/3-dilation of the level-n
    cube at cell g only if floor(p / side) is g - 1, g or g + 1 on every
    axis, because |p - (g + 1/2) side|_inf < 2/3 side puts p / side in
    (g - 1/6, g + 7/6). So each point looks up 3^k cells per level,
    levels x 3^k in all, and the strict support test then keeps exactly
    the cubes that a loop over all cubes keeps. Levels are visited
    coarsest first and the neighbours of a cell in lexicographic order,
    the order in which `whitney_cubes` lists cubes, so each point's bumps
    are added in increasing cube id, as that loop adds them, and the sums
    are bitwise equal to the loop's without sorting.
    """

    def __init__(self, decomposition):
        self.centers, self.sides = decomposition.centers, decomposition.sides
        self.basis = decomposition.basis
        self.origin = decomposition.simplex.vertices[0]
        steps = np.array(
            list(itertools.product((-1, 0, 1), repeat=self.basis.shape[0]))
        )
        # per level: side, lowest table cell, highest cell a point is
        # clamped to, element strides, the flat table and the flat offsets
        # of the 3^k neighbours; the table has one empty cell of padding on
        # every side, so a clamped point reads them without a bounds test
        self._levels = []
        for n in sorted(decomposition.level_counts):
            side = 2.0**-n
            ids = np.flatnonzero(self.sides == side)
            # centers sit at (cell + 1/2) * side, exactly
            cells = np.floor(self.centers[ids] / side).astype(np.intp)
            lo = cells.min(axis=0) - 1
            table = np.full(cells.max(axis=0) - lo + 2, -1, dtype=np.int32)
            table[tuple((cells - lo).T)] = ids
            strides = np.array(table.strides) // table.itemsize
            self._levels.append(
                (side, lo, np.array(table.shape) - 2, strides,
                 table.ravel(), steps @ strides)
            )

    def to_flat(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return (x - self.origin) @ self.basis.T

    def raw(self, i, flat_pts):
        t = (flat_pts - self.centers[i]) / self.sides[i]
        return np.prod(_bump_1d(t), axis=1)

    def _pairs(self, flat_pts):
        """(point, cube) pairs with the point in the cube's dilated support."""
        pts, cubes = [], []
        for side, lo, top, strides, table, offsets in self._levels:
            # fmax/fmin send nan to the low edge and +-inf (also from an
            # overflowing division) to the edges, where the support test
            # below rejects them
            with np.errstate(over="ignore"):
                cell = np.floor(flat_pts / side) - lo
            cell = np.fmin(np.fmax(cell, 1), top).astype(np.intp)
            ids = table[(cell @ strides)[:, None] + offsets]
            p, j = np.nonzero(ids >= 0)
            i = ids[p, j]
            near = (
                np.abs(flat_pts[p] - self.centers[i]).max(axis=1)
                < side * (2.0 / 3.0)
            )
            pts.append(p[near])
            cubes.append(i[near])
        return np.concatenate(pts), np.concatenate(cubes)

    def total(self, flat_pts):
        p, i = self._pairs(flat_pts)
        t = (flat_pts[p] - self.centers[i]) / self.sides[i, None]
        vals = np.prod(_bump_1d(t), axis=1)
        return np.bincount(p, weights=vals, minlength=len(flat_pts))


def whitney_partition(simplex, n_max):
    """Smooth partition of unity subordinate to the Whitney cubes (k = d <= 2).

    Returns one (Cube, weight) pair per cube of `whitney_cubes(simplex,
    n_max)`, in its row order, with the ambient cubes of its `cubes()`.
    Each weight is a callable on ambient points: a tensor bump on its cube
    divided by the sum of all bumps. The weights sum to 1 wherever some
    cube covers the point, and each one vanishes outside its own
    4/3-dilated cube. A weight call costs levels x 3^k cell lookups per
    point, not one pass per cube: a point can be in the dilated support of
    a level-n cube only if its level-n grid cell is one of the 3^k cells
    around that cube's (see `_RawBumps`).
    """
    if simplex.k != simplex.d or simplex.k > 2:
        raise UnsupportedDimensionError(
            "whitney_partition requires k = d <= 2"
        )
    dec = whitney_cubes(simplex, n_max)
    bumps = _RawBumps(dec)

    def make_weight(i):
        def weight(x):
            flat = bumps.to_flat(x)
            num = bumps.raw(i, flat)
            total = bumps.total(flat)
            out = np.zeros_like(num)
            mask = num > 0
            out[mask] = num[mask] / total[mask]
            return out

        return weight

    return [(cube, make_weight(i)) for i, cube in enumerate(dec.cubes())]


def _merge_intervals(lo, hi):
    """Disjoint union of 1-d intervals, as (starts, ends) arrays."""
    order = np.argsort(lo)
    lo = lo[order]
    hi = hi[order]
    starts = [lo[0]]
    ends = [hi[0]]
    for a, b in zip(lo[1:], hi[1:]):
        if a <= ends[-1]:
            ends[-1] = max(ends[-1], b)
        else:
            starts.append(a)
            ends.append(b)
    return np.array(starts), np.array(ends)


def _disjoint_boxes(lo, hi):
    """Decompose a union of axis boxes into disjoint boxes (k <= 2).

    lo, hi are (n, k). For k = 2 a slab sweep over the x edges merges the
    y intervals of the rectangles covering each slab.
    """
    k = lo.shape[1]
    if k == 1:
        a, b = _merge_intervals(lo[:, 0], hi[:, 0])
        return np.stack([a, b], axis=1)[:, None, :].transpose(0, 2, 1)
    xs = np.unique(np.concatenate([lo[:, 0], hi[:, 0]]))
    out = []
    for x0, x1 in zip(xs[:-1], xs[1:]):
        active = (lo[:, 0] <= x0) & (hi[:, 0] >= x1)
        if not active.any():
            continue
        ys, ye = _merge_intervals(lo[active, 1], hi[active, 1])
        for y0, y1 in zip(ys, ye):
            out.append((x0, y0, x1, y1))
    boxes = np.array(out)
    return np.stack(
        [boxes[:, :2], boxes[:, 2:]], axis=1
    )  # (m, 2, k): [lo, hi]


def gauss_legendre_boxes(lo, hi, nodes):
    """Tensor Gauss-Legendre rule with `nodes` nodes per axis on axis boxes.

    lo, hi are (m, k) lower and upper corners. Returns points (m * nodes^k,
    k) and weights (m * nodes^k,), box by box, the nodes of a box in C
    order of their per-axis indices.
    """
    k = lo.shape[1]
    x, w = np.polynomial.legendre.leggauss(nodes)
    offsets = np.array(list(itertools.product(x, repeat=k)))
    node_weights = np.prod(list(itertools.product(w, repeat=k)), axis=1)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = mid[:, None, :] + half[:, None, :] * offsets
    weights = np.prod(half, axis=1)[:, None] * node_weights
    return pts.reshape(-1, k), weights.reshape(-1)


def partition_quadrature(simplex, n_max, nodes=12):
    """Quadrature for integrals against the whole Whitney partition.

    Returns (points, weights, decomposition): ambient points and weights
    such that sum(weights * F(points)) equals sum_i of the integral of
    F * phi_i up to Gauss-Legendre error in F alone, and the
    `whitney_cubes(simplex, n_max)` the partition is built on. The
    normalized bumps sum to exactly one across the union of their supports
    (including the exposed collar where a single bump survives), so the
    pairing is the integral of F over that union: the dilated cubes are
    merged into disjoint axis boxes in the flat chart and F is integrated
    on those with `gauss_legendre_boxes`, which sidesteps the
    discontinuity of the truncated partition at the edge of the collar.
    The weights sum to the volume of the union.
    """
    if simplex.k != simplex.d or simplex.k > 2:
        raise UnsupportedDimensionError(
            "partition_quadrature requires k = d <= 2"
        )
    dec = whitney_cubes(simplex, n_max)
    if not len(dec.levels):
        return np.empty((0, simplex.d)), np.empty(0), dec
    centers = dec.centers
    reach = ((2.0 / 3.0) * dec.sides)[:, None]
    boxes = _disjoint_boxes(centers - reach, centers + reach)
    flat_pts, weights = gauss_legendre_boxes(boxes[:, 0], boxes[:, 1], nodes)
    return simplex.vertices[0] + flat_pts @ dec.basis, weights, dec
