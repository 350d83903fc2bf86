"""Oriented simplices, integer chains, cubes, and alpha-mass geometry.

Vertex lists are ordered; swapping two vertices flips orientation. All
coordinates are float64 and all norms Euclidean.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSimplexError

# Relative threshold on the Gram determinant below which a simplex counts as
# degenerate. The Gram determinant scales like diam^(2k), so the comparison
# is scale invariant.
DEGENERACY_RTOL = 1e-12


class Simplex:
    """An oriented k-simplex in R^d, stored as k+1 ordered vertices."""

    __slots__ = ("_verts",)

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2:
            raise ValueError("vertices must be a (k+1, d) array-like")
        if v.shape[0] > v.shape[1] + 1:
            raise ValueError(
                f"a {v.shape[0] - 1}-simplex does not fit in R^{v.shape[1]}"
            )
        v = v.copy()
        v.setflags(write=False)
        self._verts = v

    @property
    def vertices(self):
        return self._verts

    @property
    def k(self):
        return self._verts.shape[0] - 1

    @property
    def d(self):
        return self._verts.shape[1]

    def flipped(self):
        """The same simplex with reversed orientation (first two swapped)."""
        if self.k == 0:
            raise ValueError("a 0-simplex has no orientation to flip")
        v = self._verts.copy()
        v[[0, 1]] = v[[1, 0]]
        return Simplex(v)

    def __neg__(self):
        return self.flipped()

    def __eq__(self, other):
        if not isinstance(other, Simplex):
            return NotImplemented
        return self._verts.shape == other._verts.shape and np.array_equal(
            self._verts, other._verts
        )

    def __hash__(self):
        return hash((self._verts.shape, self._verts.tobytes()))

    def __repr__(self):
        pts = ", ".join(
            "(" + ", ".join(f"{x:.6g}" for x in row) + ")" for row in self._verts
        )
        return f"Simplex[{pts}]"


class Chain:
    """A formal integer combination of k-simplices of a common (k, d).

    Coefficients must be integral; 2.0 is taken as 2, and 0.5 raises
    ValueError.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        cleaned = []
        shape = None
        for coeff, simplex in terms:
            c = int(coeff)
            if c != coeff:
                raise ValueError(
                    f"chain coefficients must be integers, got {coeff}"
                )
            if c == 0:
                continue
            if shape is None:
                shape = (simplex.k, simplex.d)
            elif (simplex.k, simplex.d) != shape:
                raise ValueError("all chain terms must share (k, d)")
            cleaned.append((c, simplex))
        self._terms = tuple(cleaned)

    @property
    def terms(self):
        return self._terms

    def __iter__(self):
        return iter(self._terms)

    def __len__(self):
        return len(self._terms)

    def __add__(self, other):
        return Chain(self._terms + other._terms)

    def __neg__(self):
        return Chain([(-c, s) for c, s in self._terms])

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        return Chain([(scalar * c, s) for c, s in self._terms])


@functools.lru_cache(maxsize=64)
def _orthonormal(data, shape):
    """Whether the float64 rows in data are orthonormal to 1e-12.

    Keyed on the frame's bytes, so the many cubes of one Whitney
    decomposition, which share a frame, are checked once.
    """

    frame = np.frombuffer(data).reshape(shape)
    return bool(np.allclose(frame @ frame.T, np.eye(shape[0]), atol=1e-12))


@dataclass(frozen=True)
class Cube:
    """An oriented k-cube in R^d: base corner, orthonormal frame, side, sign.

    The rows of ``frame`` span the cube; ``sign`` flips the orientation the
    frame order defines.
    """

    base: np.ndarray
    frame: np.ndarray
    side: float
    sign: int = 1

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        frame = np.atleast_2d(np.asarray(self.frame, dtype=float))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "frame", frame)
        if frame.shape[1] != base.shape[0]:
            raise ValueError("frame row length must match the ambient dimension")
        if not _orthonormal(frame.tobytes(), frame.shape):
            raise ValueError("frame rows must be orthonormal")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if self.side <= 0:
            raise ValueError("side must be positive")

    @property
    def k(self):
        return self.frame.shape[0]

    @property
    def d(self):
        return self.base.shape[0]


# ---------------------------------------------------------------------------
# scalar operations


def diameter(simplex):
    """Largest pairwise vertex distance (equals the set diameter)."""
    return float(diameter_array(simplex.vertices[None])[0])


def is_degenerate(simplex):
    """True when the Gram determinant falls below the relative threshold."""
    return volume(simplex) == 0.0


def volume(simplex):
    """k-dimensional volume sqrt(det(E^T E)) / k!; zero when degenerate."""
    return float(volume_array(simplex.vertices[None])[0])


def faces(simplex):
    """Boundary faces: entry i omits vertex i, keeping the induced order."""
    v = simplex.vertices
    return [
        Simplex(np.delete(v, i, axis=0)) for i in range(simplex.k + 1)
    ]


def mass_value(simplex, alpha):
    """Scalar alpha-mass: (max boundary-face volume) * h^alpha.

    h is the smallest vertex height. Conventions: alpha = 0 gives 1,
    alpha = inf gives 0.
    """
    if simplex.k < 1:
        raise ValueError("mass requires k >= 1")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if is_degenerate(simplex):
        raise DegenerateSimplexError(f"degenerate simplex: {simplex!r}")
    if alpha == 0:
        return 1.0
    if math.isinf(alpha):
        return 0.0
    fmax = float(volume_array([f.vertices for f in faces(simplex)]).max())
    # Vol(face) h = k Vol for every face, so h is the largest face's height
    h = simplex.k * volume(simplex) / fmax
    return fmax * h**alpha


def eccentricity(simplex):
    """diam^k / Vol; raises for degenerate simplices."""
    ecc = float(eccentricity_array(simplex.vertices[None])[0])
    if math.isinf(ecc):
        raise DegenerateSimplexError(f"degenerate simplex: {simplex!r}")
    return ecc


def boundary(simplex):
    """The boundary (k-1)-chain.

    The sign (-1)^i of face i is realized by swapping the face's first two
    vertices whenever possible (k >= 2), so coefficients stay +1; for k = 1
    the point faces carry coefficients +-1.
    """
    if simplex.k == 0:
        return Chain()
    v = simplex.vertices
    return Chain(
        _signed_simplex(np.delete(v, i, axis=0), (-1) ** i)
        for i in range(simplex.k + 1)
    )


def _permutation_sign(perm):
    """Sign of a permutation of 0..m-1, or of each row of an (n, m) array.

    The parity is that of the inversion count.
    """
    perm = np.asarray(perm)
    m = perm.shape[-1]
    # a loop over the few pairs beats building index arrays for m <= 4
    inversions = sum(
        (perm[..., a] > perm[..., b] for a in range(m) for b in range(a + 1, m)),
        np.zeros(perm.shape[:-1], dtype=int),
    )
    return 1 - 2 * (inversions % 2)


def canonical_rows(pts):
    """Vertex-sorted rows of an (n, m, d) array and the sign of each sort.

    Each row's vertices are ordered by the first coordinate, ties broken
    by the next, as np.lexsort(v.T[::-1]) orders one row. An orientation-odd
    cochain takes value signs[i] * A(sorted row i) on row i.
    """
    pts = np.asarray(pts, dtype=float)
    n, m, d = pts.shape
    # coordinates as keys, the first one primary, each row sorted alone
    order = np.lexsort(pts.transpose(2, 0, 1)[::-1], axis=-1)
    return pts[np.arange(n)[:, None], order], _permutation_sign(order)


def staircase_blocks(base, steps):
    """Staircase triangulation of a batch of parallelotopes.

    ``base`` is (n, d) and ``steps`` (n, k, d): box i is spanned by the k
    step vectors at base i. Returns one (sign, vertices (n, k+1, d)) block
    per permutation of the steps, walking from the base one step at a time
    in that order; sign is the permutation's sign, so the signed k!
    simplices of a box all carry the orientation of its step order.
    """
    n, k, d = steps.shape
    blocks = []
    for perm in itertools.permutations(range(k)):
        verts = np.empty((n, k + 1, d))
        verts[:, 0] = base
        for i, j in enumerate(perm):
            verts[:, i + 1] = verts[:, i] + steps[:, j]
        blocks.append((_permutation_sign(perm), verts))
    return blocks


def _signed_simplex(vertices, sign):
    """Simplex on ``vertices`` carrying orientation ``sign`` as a +1 term."""
    if sign >= 0:
        return 1, Simplex(vertices)
    if len(vertices) >= 2:
        v = np.array(vertices, dtype=float)
        v[[0, 1]] = v[[1, 0]]
        return 1, Simplex(v)
    return -1, Simplex(vertices)


def cube_to_chain(cube):
    """Triangulate a k-cube into k! simplices, all oriented as the cube.

    Uses the staircase triangulation: one simplex per permutation of the
    frame directions, walking from the base corner one direction at a time.
    """
    blocks = staircase_blocks(cube.base[None], (cube.side * cube.frame)[None])
    return Chain(
        _signed_simplex(verts[0], sign * cube.sign) for sign, verts in blocks
    )


# ---------------------------------------------------------------------------
# batched helpers on (n, k+1, d) vertex arrays


def volume_array(pts):
    """Volumes sqrt(det(E^T E)) / k! of an (n, k+1, d) batch of simplices.

    A row whose Gram determinant det(E^T E) is at most
    DEGENERACY_RTOL * diam^(2k) is degenerate and has volume zero.
    """
    pts = np.asarray(pts, dtype=float)
    k = pts.shape[1] - 1
    if k == 0:
        return np.ones(pts.shape[0])
    e = pts[:, 1:, :] - pts[:, :1, :]
    det = np.linalg.det(np.einsum("nid,njd->nij", e, e))
    live = det > DEGENERACY_RTOL * diameter_array(pts) ** (2 * k)
    return np.sqrt(np.where(live, det, 0.0)) / math.factorial(k)


def diameter_array(pts):
    """Largest pairwise vertex distance of each row of an (n, k+1, d) array."""
    pts = np.asarray(pts, dtype=float)
    n, m, _ = pts.shape
    best = np.zeros(n)
    for i in range(m):
        for j in range(i + 1, m):
            d = np.linalg.norm(pts[:, i, :] - pts[:, j, :], axis=1)
            np.maximum(best, d, out=best)
    return best


def eccentricity_array(pts):
    """diam^k / Vol of each row of an (n, k+1, d) array; inf where degenerate."""
    pts = np.asarray(pts, dtype=float)
    k = pts.shape[1] - 1
    vol = volume_array(pts)
    live = vol > 0
    return np.where(live, diameter_array(pts) ** k / np.where(live, vol, 1.0), np.inf)


def coordinate_projection_array(pts, index_set):
    """Batched dx^I over an (n, k+1, d) vertex array.

    dx^I(sigma) = det(M) / k! where M[r, c] = (v_{c+1} - v_0)[I_r]. Indices
    are 1-based labels matching the variable names x1..xd; they may repeat
    or permute, following the determinant's sign.
    """
    pts = np.asarray(pts, dtype=float)
    k = pts.shape[1] - 1
    idx = [int(i) - 1 for i in index_set]
    if len(idx) != k:
        raise ValueError("index set size must equal the simplex dimension k")
    if any(i < 0 or i >= pts.shape[2] for i in idx):
        raise ValueError("coordinate label out of range 1..d")
    if k == 0:
        return np.ones(pts.shape[0])
    e = pts[:, 1:, :] - pts[:, :1, :]
    m = e[:, :, idx]
    return np.linalg.det(np.swapaxes(m, 1, 2)) / math.factorial(k)


def orthonormal_tangent(simplex):
    """Orthonormal rows spanning the simplex plane, oriented with it.

    Returns a (k, d) matrix B with B B^T = I whose row order gives the
    simplex's orientation positive sign in flattened coordinates.
    """
    k = simplex.k
    if k == 0:
        return np.zeros((0, simplex.d))
    if is_degenerate(simplex):
        raise DegenerateSimplexError(f"degenerate simplex: {simplex!r}")
    q, r = np.linalg.qr((simplex.vertices[1:] - simplex.vertices[0]).T)
    b = q.T
    if float(np.linalg.det(r)) < 0:
        b[-1] = -b[-1]
    return b


def flatten_simplex(simplex):
    """Isometric coordinates of the simplex in R^k and their frame.

    Returns (flat_vertices, basis): flat_vertices of shape (k+1, k),
    positively oriented, and the (k, d) orthonormal tangent frame `basis`,
    so that a chart point x lies at vertices[0] + x @ basis in R^d.
    """
    basis = orthonormal_tangent(simplex)
    flat = (simplex.vertices - simplex.vertices[0]) @ basis.T
    return flat, basis


def minimal_enclosing_ball(points):
    """Center and radius of the smallest ball containing ``points`` (Welzl)."""
    pts = [np.asarray(p, dtype=float) for p in points]
    if not pts:
        raise ValueError("need at least one point")

    def ball_of(support):
        if not support:
            return pts[0] * 0.0, -1.0
        base = support[0]
        span = np.array([p - base for p in support[1:]])
        if len(span) == 0:
            return base.copy(), 0.0
        # circumsphere center within the affine hull of the support set
        a = 2.0 * span @ span.T
        rhs = np.array([s @ s for s in span])
        try:
            coef = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError:
            coef, *_ = np.linalg.lstsq(a, rhs, rcond=None)
        center = base + coef @ span
        radius = float(np.linalg.norm(center - base))
        return center, radius

    def welzl(idx, support):
        if not idx or len(support) == len(pts[0]) + 1:
            return ball_of(support)
        p = idx[-1]
        center, radius = welzl(idx[:-1], support)
        if radius >= 0 and np.linalg.norm(pts[p] - center) <= radius * (1 + 1e-12) + 1e-15:
            return center, radius
        return welzl(idx[:-1], support + [pts[p]])

    center, radius = welzl(list(range(len(pts))), [])
    # tighten: numerical guard so every point is inside
    radius = max(float(np.linalg.norm(p - center)) for p in pts)
    return center, radius
