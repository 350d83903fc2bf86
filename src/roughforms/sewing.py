"""Germs of cochains and the sewing operator.

A germ assigns a number to every small simplex; its defect measures the
failure of additivity under subdivision. When the defect is
Hoelder-controlled with exponent gamma > k, iterated subdivision level sums
converge geometrically and their limit (the sewing) is the unique additive
repair of the germ. The exponent and constant a germ declares are trusted
by the analytic stopping rule of `sew`. A germ is a batch function: it
maps an (n, k+1, d) vertex array to n values, so every subdivision level
is one call and deep levels stay vectorized.

Sewing walks the edgewise levels on the dyadic lattice of the root: the
vertices of level n are the points with barycentric coordinates in
2^-n Z, those of level n-1 among them, so each level computes only the
points it adds, as midpoints of level n-1 edges, and gathers its simplices
by the index tables of `subdivision.edgewise_lattice`. A germ whose values
depend on the point data only through a function at the vertices may
declare it as `vertex_fn`; sewing then evaluates it once per lattice
point, on the points each level adds, and hands every level's gathered
vertex values to the germ along with the vertex array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fitting
from .errors import BudgetExceededError, NoConvergenceError
from .geometry import diameter, diameter_array
from .subdivision import EDGEWISE, edgewise_lattice

# per-degree depth defaults keep worst-case evaluation counts near 10^6
DEPTH_MAX_BY_K = {1: 14, 2: 10, 3: 7}
LEVEL_EVAL_CAP = 1 << 22


class Germ:
    """A real-valued, orientation-odd function of small simplices.

    Subclasses implement eval_batch(pts, vertex_values=None), which maps an
    (n, k+1, d) vertex array to n values; eval(simplex) is its one-row
    call. A germ that declares `vertex_fn`, a function from (..., d)
    points to (...) or (..., m) values, reads its point data only through
    it: eval_batch then accepts the (n, k+1, ...) values of vertex_fn at
    the vertices, and computes them from pts when they are not given.
    `gamma` bounds the defect by |K| diam^gamma and `delta_norm` is the
    constant of that bound; both are caller-declared analytic knowledge
    and may be None. Together they enable the analytic stopping rule of
    sew().
    """

    gamma = None
    delta_norm = None
    vertex_fn = None

    def eval(self, simplex):
        return float(self.eval_batch(simplex.vertices[None])[0])

    def eval_batch(self, pts, vertex_values=None):
        raise NotImplementedError


class FunctionGerm(Germ):
    """Germ from a batch function on (n, k+1, d) vertex arrays.

    With a vertex function, batch_fn takes the vertex array and the values
    of vertex_fn at its vertices; the same formula serves sewing levels,
    which pass the gathered lattice values, and every other caller. A
    declared delta_norm must be finite and nonnegative, since the analytic
    stop takes it as a bound.
    """

    def __init__(self, batch_fn, gamma=None, delta_norm=None, vertex_fn=None):
        if delta_norm is not None and not 0 <= delta_norm < math.inf:
            raise ValueError("delta_norm must be finite and nonnegative")
        self._batch_fn = batch_fn
        self.gamma = gamma
        self.delta_norm = delta_norm
        self.vertex_fn = vertex_fn

    def eval_batch(self, pts, vertex_values=None):
        pts = np.asarray(pts, dtype=float)
        if self.vertex_fn is None:
            return np.asarray(self._batch_fn(pts))
        if vertex_values is None:
            vertex_values = self.vertex_fn(pts)
        return np.asarray(self._batch_fn(pts, vertex_values))


@dataclass
class SewingResult:
    """Limit value of subdivision level sums with a posteriori control.

    `increment_rate` is the least-squares slope of log |level increment|
    against the level, over the increments above the floating-point floor
    1e-13 * max(1, max |level sum|); NaN when fewer than two are above it.
    `rule` names the rule of `_stop` that ended the sew; only the tail of
    `analytic` is certified.
    A result depends only on the germ, the simplex and tol, so a cochain
    memo keeps one per (row, tol) and reuses it for nothing else.
    """

    value: float
    tail_bound: float
    depth_used: int
    level_values: list
    rule: str
    increment_rate: float = float("nan")


def _empirical_tail(increments):
    """Geometric extrapolation of the remaining tail from late increments."""
    mags = [abs(x) for x in increments[-3:]]
    if not mags or mags[-1] == 0.0:
        return 0.0
    ratios = [b / a for a, b in zip(mags, mags[1:]) if a > 0]
    if not ratios:
        return mags[-1]
    rho = min(max(ratios), 0.97)
    return 2.0 * mags[-1] * rho / (1.0 - rho)


def _lattice_levels(simplex, vertex_fn=None):
    """Vertex arrays of the edgewise levels 0, 1, 2, ... of simplex.

    Yields (pts, vals) per level: pts (2^(kn), k+1, d) in the row order of
    `EDGEWISE.children_array`, and vals the values of vertex_fn at those
    vertices, None without one. `lattice` holds the points of the levels
    built so far in id order, `values` vertex_fn at them, so vertex_fn
    sees each point once.
    """
    lattice = simplex.vertices
    values = None if vertex_fn is None else vertex_fn(lattice)
    n = 0
    while True:
        simplices, midpoints = edgewise_lattice(simplex.k, n)
        if len(midpoints):
            # np.take: fancy indexing is several times slower on these
            ends = lattice.take(midpoints.T, axis=0)
            new = 0.5 * (ends[0] + ends[1])
            lattice = np.concatenate([lattice, new])
            if values is not None:
                values = np.concatenate([values, vertex_fn(new)])
        pts = lattice.take(simplices, axis=0)
        yield pts, None if values is None else values.take(simplices, axis=0)
        n += 1


def _edgewise_contraction(simplex):
    """Largest child/parent diameter ratio over edgewise levels 1 and 2.

    The c of `subdivision.stats(EDGEWISE, simplex, 2)`, from the lattice.
    """
    card = EDGEWISE.card(simplex.k)
    levels = _lattice_levels(simplex)
    diams = [diameter_array(next(levels)[0]) for _ in range(3)]
    return max(
        float((child / np.repeat(parent, card)).max())
        for parent, child in zip(diams, diams[1:])
    )


def _grew(sums, tol):
    """Whether the last increment of sums is at least the one before it
    and above both tol and the rounding floor of the earlier sums."""
    prev, cur = abs(sums[-2] - sums[-3]), abs(sums[-1] - sums[-2])
    floor = 1e-14 * max(1.0, max(abs(v) for v in sums[:-1]))
    return cur >= prev * (1 - 1e-12) and cur > max(tol, floor)


def _stop(sums, tol, analytic, converges, depth_max, card):
    """(rule, tail) that ends a sew after level n = len(sums) - 1, or None.

    Tried in order: `analytic`, from level 1, when the certified tail
    analytic(n) meets tol; `empirical` when the last three increments are
    below tol/10 and their extrapolated tail (capped by analytic(n)) meets
    tol; `no_convergence` (tail inf) when the last three increments each
    grew (`_grew`), unless the germ `converges`; `depth_cap` at depth_max,
    with that extrapolated tail; `eval_cap` (tail inf) when level n + 1
    would need more than LEVEL_EVAL_CAP evaluations.
    """
    n = len(sums) - 1
    certified = math.inf if analytic is None else analytic(n)
    if analytic is not None and n and certified <= tol:
        return "analytic", certified
    last = sums[-4:]
    increments = [b - a for a, b in zip(last, last[1:])]
    estimated = min(_empirical_tail(increments), certified)
    settled = n >= 3 and all(abs(x) < tol / 10 for x in increments)
    if settled and estimated <= tol:
        return "empirical", estimated
    if not converges and n >= 4 and all(
        _grew(sums[: m + 1], tol) for m in (n - 2, n - 1, n)
    ):
        return "no_convergence", math.inf
    if n == depth_max:
        return "depth_cap", estimated
    if card ** (n + 1) > LEVEL_EVAL_CAP:
        return "eval_cap", math.inf
    return None


def sew(germ, simplex, tol, *, depth_max=None):
    """Sewing I(germ)(sigma): the limit of edgewise level sums.

    Levels come from the dyadic lattice of sigma, one germ.eval_batch
    call each, until a rule of `_stop` fires. The certified tail is
    card * q^n / (1 - q) * delta_norm * diam^gamma with q = card * c^gamma,
    when the germ declares gamma and delta_norm and q < 1. Raises
    NoConvergenceError for `no_convergence` and BudgetExceededError for a
    cap whose tail is above tol; both carry the partial result. Growing
    increments do not stop a certified germ or one that declares gamma >
    k: the sewing lemma makes it converge, and rough germs fluctuate.
    """
    card = EDGEWISE.card(simplex.k)
    depth_max = DEPTH_MAX_BY_K[simplex.k] if depth_max is None else depth_max
    gamma, delta_norm = germ.gamma, germ.delta_norm
    analytic = None
    if gamma is not None and delta_norm is not None:
        # level m holds card^m simplices of diameter <= c^m diam, each with
        # one-step defect <= delta_norm * card * (c^m diam)^gamma, so the
        # tail past level n is a geometric series in q = card * c^gamma
        q = card * _edgewise_contraction(simplex) ** gamma
        if q < 1.0:
            diam = diameter(simplex)

            def analytic(n):
                return card * q**n / (1.0 - q) * delta_norm * diam**gamma

    converges = analytic is not None or gamma is not None and gamma > simplex.k
    sums = []
    for pts, vals in _lattice_levels(simplex, germ.vertex_fn):
        sums.append(float(np.sum(germ.eval_batch(pts, vals))))
        stop = _stop(sums, tol, analytic, converges, depth_max, card)
        if stop is not None:
            break
    rule, tail = stop
    n, rate = len(sums) - 1, fitting.increment_rate(sums)
    res = SewingResult(sums[-1], tail, n, sums, rule, rate)
    if rule == "no_convergence":
        raise NoConvergenceError(
            f"increments non-decreasing over 3 levels at depth {n}",
            partial=res,
        )
    if tail > tol:
        raise BudgetExceededError(
            f"{rule} at depth {n}: tail {tail:.3g} > tol {tol:.3g}",
            partial=res,
        )
    return res
