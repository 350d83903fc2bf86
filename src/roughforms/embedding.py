"""Component extraction of cochains against test functions, and its inverse.

pi_J pairs a k-cochain with a compactly supported bump: up to sign, the
integral over the bump's support of A evaluated on the axis box spanning
[0, u_j] in each J direction (at transverse position u) times the mixed
derivative D^J psi(u). For smooth densities a k-fold integration by parts
turns this into the plain integral of the density against psi, which is
what the quadrature reproduces.

iota goes the other way in codimension zero: a function F is turned into
a cochain by summing its integrals against a smooth partition of unity
subordinate to the Whitney cubes of each simplex.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureBudgetError, UnsupportedDimensionError
from .fitting import line_fit
from .forms import Cochain, linear_sum
from .geometry import staircase_blocks
from .subdivision import gauss_legendre_boxes, partition_quadrature

EVAL_CAP = 1 << 22


class TestFunction:
    """The bump psi(x) = s (1 - |z|^2)^m, z = (x - c) / R, on |z| < 1.

    Supported on the ball of radius R around the center c. For a set J of
    distinct axes the mixed derivative has the closed form
        D^J psi = s (-2/R)^|J| m! / (m - |J|)! prod_{j in J} z_j
                  (1 - |z|^2)^(m - |J|),
    exact for |J| <= m; the bump order m controls smoothness at the
    support boundary. The scale s is 1 for a plain bump, and rescaling
    multiplies it by lambda^-d.
    """

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, d, center=None, radius=0.5, m=6, scale=1.0):
        self.d = int(d)
        self.center = (
            np.zeros(self.d)
            if center is None
            else np.asarray(center, dtype=float)
        )
        if self.center.shape != (self.d,):
            raise ValueError("center must be a d-vector")
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        self.m = int(m)
        if self.m < 1:
            raise ValueError("bump order m must be at least 1")
        self.scale = float(scale)

    def __call__(self, x):
        return self._derivative((), x)

    def _derivative(self, J, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.center) / self.radius
        u = 1.0 - np.sum(z * z, axis=-1)
        inside = u > 0.0
        # s (-2/R)^|J| m! / (m - |J|)!, one factor per axis
        coeff = self.scale
        for q in range(self.m, self.m - len(J), -1):
            coeff = -2.0 * coeff * q / self.radius
        out = np.full(x.shape[:-1], coeff)
        for axis in sorted(J):
            out = out * z[..., axis - 1]
        out = out * np.where(inside, u, 0.0) ** (self.m - len(J))
        return np.where(inside, out, 0.0)

    def derivative(self, J):
        """D^J psi for a set of distinct 1-based axes, as a callable."""
        J = tuple(J)
        if len(set(J)) != len(J):
            raise ValueError("derivative axes must be distinct")
        if any(not 1 <= j <= self.d for j in J):
            raise ValueError("derivative axes must lie in 1..d")
        if len(J) > self.m:
            raise ValueError("bump order too low for this derivative")
        return functools.partial(self._derivative, J)

    def rescaled(self, lam, x):
        """psi_lambda_x(y) = lam^-d psi((y - x) / lam), in closed form."""
        lam = float(lam)
        if lam <= 0:
            raise ValueError("lambda must be positive")
        x = np.asarray(x, dtype=float)
        return TestFunction(
            self.d,
            x + lam * self.center,
            lam * self.radius,
            self.m,
            self.scale * lam**-self.d,
        )

    def support_box(self):
        return self.center - self.radius, self.center + self.radius


def _box_values(a, pts, J, tol):
    """A on the axis boxes [0, u_j] (j in J) at transverse position u.

    Degenerate boxes (some u_j ~ 0) evaluate to zero; orientation is the
    product of the signs of the spanned coordinates. Every box gets an
    even share of tol, split by linear_sum over its k! staircase simplices.
    """
    axes = [j - 1 for j in J]
    span = pts[:, axes]
    box_sign = np.prod(np.sign(span), axis=1)
    live = np.abs(span).min(axis=1) > 1e-14
    values = np.zeros(pts.shape[0])
    idx = np.nonzero(live)[0]
    if idx.size == 0:
        return values
    base = pts[idx]
    base[:, axes] = np.minimum(span[idx], 0.0)
    steps = np.zeros((idx.size, len(axes), pts.shape[1]))
    steps[:, range(len(axes)), axes] = np.abs(span[idx])
    blocks = staircase_blocks(base, steps)
    acc, _ = linear_sum(
        [sign for sign, _ in blocks],
        lambda share: (a.eval_batch(verts, share) for _, verts in blocks),
        np.full(idx.size, tol / idx.size),
    )
    values[idx] = box_sign[idx] * acc
    return values


def pi_J(a, psi, J, nodes=24, tol=1e-8):
    """The pairing of the J component of a cochain with a test function.

    Tensor Gauss-Legendre quadrature of (-1)^k A(box(u)) D^J psi(u) over
    the bounding box of psi's support (`gauss_legendre_boxes`, `nodes` per
    axis), where box(u) spans [0, u_j] for j in J at transverse position
    u. Exact up to quadrature for smooth densities.
    """
    J = tuple(sorted(int(j) for j in J))
    if len(J) != a.k or len(set(J)) != len(J):
        raise ValueError(f"J must be {a.k} distinct axes")
    if any(not 1 <= j <= a.d for j in J):
        raise ValueError("J axes must lie in 1..d")
    if psi.d != a.d:
        raise ValueError("test function dimension must match the cochain")
    if psi.m < a.k + 2:
        raise ValueError("bump order m must be at least k + 2")
    cost = nodes**a.d * math.factorial(a.k) * (a.k + 1)
    if cost > EVAL_CAP:
        raise QuadratureBudgetError(
            f"quadrature would need {cost} vertex evaluations"
        )
    lo, hi = psi.support_box()
    pts, weights = gauss_legendre_boxes(lo[None], hi[None], nodes)
    dvals = psi.derivative(J)(pts)
    live = dvals != 0.0
    values = np.zeros(pts.shape[0])
    if np.any(live):
        box_eval = getattr(a, "eval_axis_box", None)
        if box_eval is not None:
            values[live] = box_eval(pts[live], J)
        else:
            values[live] = _box_values(a, pts[live], J, tol)
    return float((-1.0) ** a.k * np.sum(weights * dvals * values))


@dataclass
class ScalingRecord:
    J: tuple
    lam: float
    value: float

    def to_json(self):
        return {"J": list(self.J), "lambda": self.lam, "value": self.value}


@dataclass
class ScalingProbe:
    """Fitted growth exponent of |<pi_J A, psi_lambda_x>| in lambda."""

    slope: float
    records: list = field(default_factory=list)

    def to_json(self):
        return {
            "slope": self.slope,
            "records": [r.to_json() for r in self.records],
        }


def scaling_probe(a, psi, J, x, lambdas=None, nodes=24):
    """Pairings against rescaled bumps and the log-log slope over lambda.

    A cochain of declared exponent alpha should produce a slope no smaller
    than alpha - 1 (values may grow as lambda shrinks, at a limited rate).
    """
    if lambdas is None:
        lambdas = [2.0**-i for i in range(1, 6)]
    records = []
    for lam in lambdas:
        val = pi_J(a, psi.rescaled(lam, x), J, nodes=nodes)
        records.append(ScalingRecord(J=tuple(J), lam=float(lam), value=val))
    mags = np.array([abs(r.value) for r in records])
    floor = 1e-300
    slope, _ = line_fit(
        np.log([r.lam for r in records]), np.log(np.maximum(mags, floor))
    )
    return ScalingProbe(slope=float(slope), records=records)


@dataclass
class IotaResult:
    """A Whitney-partition evaluation of a function on a simplex.

    The truncation tail is the uncovered volume times the largest sampled
    |F|; covered_volume is the exact total volume of the selected cubes.
    """

    value: float
    tail_bound: float
    covered_volume: float
    n_cubes: int

    def __float__(self):
        return self.value

    def to_json(self):
        return {
            "value": self.value,
            "tail_bound": self.tail_bound,
            "covered_volume": self.covered_volume,
            "n_cubes": self.n_cubes,
        }


def iota(F, simplex, n_max=8, nodes=12):
    """sign(sigma) times the sum of the integrals of F against the Whitney
    partition of the simplex.

    Codimension zero only (k = d <= 2). F is any callable on batches of
    ambient points. The partition weights sum to one on the union of the
    4/3-dilated cubes of `whitney_cubes(simplex, n_max)`, so the pairing
    is the integral of F over that union, which `partition_quadrature`
    takes with `nodes` Gauss-Legendre nodes per axis on disjoint boxes.
    The tail bound charges sup|F|, over the vertices and the nodes, on the
    part of the simplex's volume that the union misses; n_cubes counts the
    cubes and covered_volume is their total volume.
    """
    pts, weights, dec = partition_quadrature(simplex, n_max, nodes)
    edges = simplex.vertices[1:] - simplex.vertices[0]
    orientation = 1.0 if np.linalg.det(edges) >= 0 else -1.0
    sup_f = float(np.max(np.abs(F(simplex.vertices))))
    if len(weights):
        fvals = np.asarray(F(pts), dtype=float)
        value = float(np.sum(weights * fvals))
        sup_f = max(sup_f, float(np.max(np.abs(fvals))))
    else:
        value = 0.0
    union_volume = float(np.sum(weights))
    tail = (dec.simplex_volume - union_volume) * sup_f
    return IotaResult(
        value=orientation * value,
        tail_bound=tail,
        covered_volume=dec.covered_volume,
        n_cubes=len(dec.levels),
    )


class WhitneyCochain(Cochain):
    """The cochain built from a function by Whitney-partition sums.

    In codimension zero this realizes the inverse of component extraction:
    pairing it back against a test function recovers the function.
    """

    provenance = "smooth"

    def __init__(self, F, d, n_max=8, nodes=12):
        if d > 2:
            raise UnsupportedDimensionError("Whitney cochains need k = d <= 2")
        super().__init__(d, d, 1.0, 1.0)
        self.F = F
        self.n_max = n_max
        self.nodes = nodes

    def _eval_simplex(self, simplex, tol):
        res = iota(self.F, simplex, self.n_max, self.nodes)
        return res.value, res.tail_bound, res.tail_bound > tol


def iota_cochain(F, d, n_max=8, nodes=12):
    return WhitneyCochain(F, d, n_max=n_max, nodes=nodes)
