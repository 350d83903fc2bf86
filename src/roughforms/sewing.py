"""Germs of cochains, defects, norm estimation, and the sewing operator.

A germ assigns a number to every small simplex; its defect measures the
failure of additivity under subdivision. When the defect is
Hoelder-controlled with exponent gamma > k, iterated subdivision level sums
converge geometrically and their limit (the sewing) is the unique additive
repair of the germ. A germ is a batch function: it maps an (n, k+1, d)
vertex array to n values, so every subdivision level is one call and deep
levels stay vectorized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fitting, sampling
from .errors import (
    BudgetExceededError,
    DegenerateFitError,
    NoConvergenceError,
    NotASubdivisionError,
)
from .geometry import diameter, volume
from .subdivision import EDGEWISE, iterate_array
from .subdivision import stats as subdivision_stats

# per-degree depth defaults keep worst-case evaluation counts near 10^6
DEPTH_MAX_BY_K = {1: 14, 2: 10, 3: 7}
LEVEL_EVAL_CAP = 1 << 22


class Germ:
    """A real-valued, orientation-odd function of small simplices.

    Subclasses implement eval_batch(pts), which maps an (n, k+1, d) vertex
    array to n values; eval(simplex) is its one-row call. `gamma` bounds
    the defect by |K| diam^gamma and `delta_norm` is the constant of that
    bound; both are caller-declared analytic knowledge and may be None.
    Together they enable the analytic stopping rule of sew().
    """

    gamma = None
    delta_norm = None

    def eval(self, simplex):
        return float(self.eval_batch(simplex.vertices[None])[0])

    def eval_batch(self, pts):
        raise NotImplementedError


class FunctionGerm(Germ):
    """Germ from a batch function on (n, k+1, d) vertex arrays."""

    def __init__(self, batch_fn, gamma=None, delta_norm=None):
        self._batch_fn = batch_fn
        self.gamma = gamma
        self.delta_norm = delta_norm

    def eval_batch(self, pts):
        return np.asarray(self._batch_fn(np.asarray(pts, dtype=float)))


def defect(germ, simplex, pieces):
    """germ(sigma) minus the sum of germ over the pieces.

    The pieces must subdivide sigma; a volume-sum mismatch beyond 1e-8
    relative raises NotASubdivision (a cheap necessary condition; geometric
    partition checking is sampled in the test suite instead).
    """
    vol = volume(simplex)
    vol_parts = sum(volume(p) for p in pieces)
    if abs(vol_parts - vol) > 1e-8 * max(vol, vol_parts):
        raise NotASubdivisionError(
            f"child volumes sum to {vol_parts}, parent has {vol}"
        )
    return germ.eval(simplex) - float(
        np.sum(germ.eval_batch(np.array([p.vertices for p in pieces])))
    )


@dataclass
class SewingResult:
    """Limit value of subdivision level sums with a posteriori control."""

    value: float
    tail_bound: float
    depth_used: int
    level_values: list
    increment_rate: float = float("nan")

    def to_json(self):
        return {
            "value": self.value,
            "tail_bound": self.tail_bound,
            "depth": self.depth_used,
            "level_values": list(self.level_values),
        }


def _empirical_tail(increments):
    """Geometric extrapolation of the remaining tail from late increments."""
    mags = [abs(x) for x in increments[-3:]]
    if not mags or mags[-1] == 0.0:
        return 0.0
    ratios = [
        b / a for a, b in zip(mags, mags[1:]) if a > 0
    ]
    if not ratios:
        return mags[-1]
    rho = min(max(ratios), 0.97)
    return 2.0 * mags[-1] * rho / (1.0 - rho)


def sew(germ, simplex, scheme, tol, depth_max=None):
    """Sewing I(germ)(sigma): the limit of subdivision level sums.

    Stops when the analytic geometric tail bound
    card * q^n / (1 - q) * delta_norm * diam^gamma with q = card * c^gamma
    drops below tol (when the germ declares gamma and delta_norm and
    q < 1), or when three consecutive level increments fall below tol/10
    (empirical Cauchy rule).
    Raises NoConvergence when increments fail to decrease over three
    consecutive levels past a burn-in, and BudgetExceeded when depth_max is
    reached with the tail estimate still above tol; both carry the partial
    result.
    """
    k = simplex.k
    if depth_max is None:
        depth_max = DEPTH_MAX_BY_K.get(k, 6)
    gamma, delta_norm = germ.gamma, germ.delta_norm
    diam = diameter(simplex)

    card = scheme.card(k)
    analytic = None
    if gamma is not None and delta_norm is not None:
        st = subdivision_stats(scheme, simplex, 2)
        # level m holds card^m simplices of diameter <= c^m diam, each with
        # one-step defect <= delta_norm * card * (c^m diam)^gamma, so the
        # tail past level n is a geometric series in q = card * c^gamma
        q = card * st.c_m**gamma
        if q < 1.0:

            def analytic(n):
                return card * q**n / (1.0 - q) * delta_norm * diam**gamma

    def result(tail):
        return SewingResult(
            value=level_values[-1],
            tail_bound=tail,
            depth_used=n,
            level_values=level_values,
            increment_rate=fitting.decay_rate([abs(x) for x in increments]),
        )

    def estimated_tail():
        tail = _empirical_tail(increments)
        return tail if analytic is None else min(tail, analytic(n))

    pts = simplex.vertices[None]
    level_values = [float(np.sum(germ.eval_batch(pts)))]
    increments = []
    grow_streak = 0
    n = 0
    while True:
        scale_floor = 1e-14 * max(1.0, max(abs(v) for v in level_values))
        if n == depth_max:
            res = result(estimated_tail())
            if res.tail_bound > tol:
                raise BudgetExceededError(
                    f"depth {depth_max} reached with tail "
                    f"{res.tail_bound:.3g} > tol {tol:.3g}",
                    partial=res,
                )
            return res
        if pts.shape[0] * card > LEVEL_EVAL_CAP:
            raise BudgetExceededError(
                f"level {n + 1} would need {pts.shape[0] * card} evaluations",
                partial=result(math.inf),
            )
        pts = scheme.children_array(pts)
        n += 1
        s_n = float(np.sum(germ.eval_batch(pts)))
        level_values.append(s_n)
        increments.append(s_n - level_values[-2])

        if analytic is not None and analytic(n) <= tol:
            return result(analytic(n))
        if len(increments) >= 3 and all(
            abs(x) < tol / 10 for x in increments[-3:]
        ):
            return result(estimated_tail())
        # divergence watch: consecutive non-decreasing increment magnitudes.
        # Suppressed while an analytic certificate (q < 1) is active, since
        # the geometric tail bound already guarantees convergence and rough
        # germs fluctuate without that meaning divergence.
        if len(increments) >= 2:
            prev, cur = abs(increments[-2]), abs(increments[-1])
            if cur >= prev * (1 - 1e-12) and cur > max(tol, scale_floor):
                grow_streak += 1
            else:
                grow_streak = 0
        if analytic is None and n >= 4 and grow_streak >= 3:
            raise NoConvergenceError(
                f"increments non-decreasing over 3 levels at depth {n}",
                partial=result(math.inf),
            )


def sew_chain(germ, chain, scheme, tol, depth_max=None):
    """Coefficient-weighted sum of sew over the chain's terms.

    The tolerance is split evenly across unit coefficients.
    """
    terms = list(chain)
    if not terms:
        return 0.0
    total_weight = sum(abs(c) for c, _ in terms)
    out = 0.0
    for c, s in terms:
        res = sew(
            germ, s, scheme, tol * abs(c) / total_weight, depth_max=depth_max
        )
        out += c * res.value
    return out


@dataclass
class GermNormEstimate:
    """Empirical eta / delta-gamma germ norms with sample bookkeeping."""

    eta: float
    gamma: float
    eta_norm: float
    delta_gamma_norm: float
    n_samples: int
    n_families: int
    bands: list = field(default_factory=list)
    per_band: list = field(default_factory=list)
    families: str = "scheme children depths 1-3 + random two-piece splits"

    def to_json(self):
        return {
            "eta": self.eta,
            "gamma": self.gamma,
            "eta_norm": self.eta_norm,
            "delta_gamma_norm": self.delta_gamma_norm,
            "n_samples": self.n_samples,
            "n_families": self.n_families,
            "bands": [list(b) for b in self.bands],
            "per_band": list(self.per_band),
            "families": self.families,
        }


def estimate_germ_norms(germ, region, k, eta, gamma, spec):
    """Empirical sup of |germ|/diam^eta and |defect|/(|K| diam^gamma).

    Samples simplices per dyadic diameter band under the spec's
    eccentricity cap; defect families are the edgewise children at depths
    1..3 plus random two-piece edge splits. Estimates are suprema, hence
    monotone nondecreasing in the sample counts (streams are
    prefix-stable).
    """
    eta_sup = 0.0
    delta_sup = 0.0
    n_samples = 0
    n_families = 0
    per_band = []
    banded = sampling.sample_band_simplices(region, k, spec)
    for b_idx, (band, samples) in enumerate(banded):
        band_eta = 0.0
        band_delta = 0.0
        split_rng = np.random.default_rng(
            np.random.SeedSequence((spec.seed, b_idx, 1))
        )
        for s in samples:
            n_samples += 1
            dia = diameter(s)
            value = germ.eval(s)
            band_eta = max(band_eta, abs(value) / dia**eta)
            families = []
            for depth in (1, 2, 3):
                arr = iterate_array(EDGEWISE, s.vertices[None], depth)
                families.append(arr)
            for _ in range(spec.n_splits):
                pieces = sampling.two_piece_split(s, split_rng)
                families.append(np.array([p.vertices for p in pieces]))
            for arr in families:
                n_families += 1
                delta = value - float(np.sum(germ.eval_batch(arr)))
                band_delta = max(
                    band_delta, abs(delta) / (arr.shape[0] * dia**gamma)
                )
        eta_sup = max(eta_sup, band_eta)
        delta_sup = max(delta_sup, band_delta)
        per_band.append(
            {
                "band": list(band),
                "eta_norm": band_eta,
                "delta_gamma_norm": band_delta,
                "n": len(samples),
            }
        )
    return GermNormEstimate(
        eta=eta,
        gamma=gamma,
        eta_norm=eta_sup,
        delta_gamma_norm=delta_sup,
        n_samples=n_samples,
        n_families=n_families,
        bands=spec.bands(),
        per_band=per_band,
    )


@dataclass
class ProbeResult:
    """Fitted geometric decay rate of sewing level increments."""

    rate: float
    reference: float
    levels_used: int
    increments: list

    def to_json(self):
        return {
            "rate": self.rate,
            "reference": self.reference,
            "levels_used": self.levels_used,
            "increments": list(self.increments),
        }


def convergence_probe(germ, simplex, scheme, depth):
    """Least-squares slope of log |level increment| against level.

    The reference value is (gamma - k) log c for the scheme's measured
    contraction c when the germ declares gamma. Raises DegenerateFit when fewer
    than 3 increments sit above the floating-point floor.
    """
    if depth < 4:
        raise ValueError("probe needs depth >= 4")
    k = simplex.k
    gamma = germ.gamma
    pts = simplex.vertices[None]
    sums = [float(np.sum(germ.eval_batch(pts)))]
    for _ in range(depth):
        pts = scheme.children_array(pts)
        sums.append(float(np.sum(germ.eval_batch(pts))))
    increments = np.abs(np.diff(sums))
    floor = 1e-13 * max(1.0, max(abs(v) for v in sums))
    usable = increments > floor
    if usable.sum() < 3:
        floor_level = int(np.argmax(~usable)) + 1 if (~usable).any() else depth
        raise DegenerateFitError(
            f"only {int(usable.sum())} increments above the fp floor",
            floor_level=floor_level,
        )
    levels = np.arange(1, depth + 1, dtype=float)
    rate, _ = fitting.line_fit(levels[usable], np.log(increments[usable]))
    reference = float("nan")
    if gamma is not None:
        st = subdivision_stats(scheme, simplex, 2)
        reference = (gamma - k) * math.log(st.c_m)
    return ProbeResult(
        rate=rate,
        reference=reference,
        levels_used=int(usable.sum()),
        increments=increments.tolist(),
    )
