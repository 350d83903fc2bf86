"""Random simplices in boxes and diameter bands.

Samplers are deliberately sequential per band so that enlarging a sample
count keeps earlier draws as a prefix; empirical suprema are then monotone
in the count by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .geometry import Simplex, diameter, eccentricity, is_degenerate


class Box:
    """An axis-aligned box region in R^d."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("lo and hi must be 1-d arrays of equal length")
        if np.any(self.hi <= self.lo):
            raise ValueError("box must have positive extent on every axis")

    @property
    def d(self):
        return self.lo.shape[0]

    @property
    def widths(self):
        return self.hi - self.lo

    def contains(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=-1)

    def sample(self, rng, n=1):
        return self.lo + rng.random((n, self.d)) * self.widths

    @classmethod
    def unit(cls, d):
        return cls(np.zeros(d), np.ones(d))


def dyadic_bands(diam_max, n_bands):
    """Descending diameter bands (diam_max 2^-i-1, diam_max 2^-i]."""
    return [
        (diam_max * 2.0 ** -(i + 1), diam_max * 2.0**-i)
        for i in range(n_bands)
    ]


@dataclass(frozen=True)
class SamplerSpec:
    """How to draw random simplices: band structure, shape cap, seed.

    The package never reads `n_splits`: only the test oracle
    `estimate_germ_norms` (tests/conftest.py) uses it, yet the CLI `norms`
    config still accepts it.
    """

    samples_per_band: int = 50
    n_bands: int = 4
    diam_max: float = 1.0
    ecc_cap: float = 50.0
    n_splits: int = 3
    seed: int = 0
    max_attempts: int = 20_000

    def bands(self):
        return dyadic_bands(self.diam_max, self.n_bands)


def sample_simplex(region, k, band, ecc_cap, rng, max_attempts=20_000):
    """One random k-simplex in the region with diameter in (lo, hi].

    Rejection sampling: a uniform anchor point plus k offsets at the band
    scale, accepted when the diameter lands in the band, the eccentricity
    is under the cap, and all vertices stay in the region. Raises
    `BudgetExceededError` when max_attempts draws are all rejected.
    """
    lo, hi = band
    for _ in range(max_attempts):
        anchor = region.sample(rng, 1)[0]
        offsets = rng.normal(size=(k, region.d)) * (hi / 2.0)
        verts = np.vstack([anchor, anchor + offsets])
        s = Simplex(verts)
        if is_degenerate(s):
            continue
        dia = diameter(s)
        if not (lo < dia <= hi):
            continue
        if eccentricity(s) > ecc_cap:
            continue
        if not np.all(region.contains(verts)):
            continue
        return s
    raise BudgetExceededError(
        f"could not sample a simplex in band {band} after {max_attempts} tries"
    )


def sample_band_simplices(region, k, spec):
    """All banded samples of a spec, as a list of (band, [Simplex...]).

    Each band consumes its own seeded stream, so increasing
    `samples_per_band` extends every band's list without changing its
    prefix.
    """
    out = []
    for b_idx, band in enumerate(spec.bands()):
        rng = np.random.default_rng(
            np.random.SeedSequence((spec.seed, b_idx))
        )
        samples = [
            sample_simplex(region, k, band, spec.ecc_cap, rng, spec.max_attempts)
            for _ in range(spec.samples_per_band)
        ]
        out.append((band, samples))
    return out
