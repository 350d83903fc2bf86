"""Shared test settings and helpers.

Property tests draw their examples derandomized and without a deadline or
an example database, so every run of the suite checks the same examples.
The chain builders below (boundary of a chain, snapping to a dyadic grid,
triangulated axis boxes), the vertex heights, the two-piece split, the
sampled germ norms, the random rotation, the per-sample moment draws and
the barycenter product serve only the tests; the germ norms are the
oracle of the exponent and constant a germ declares, the per-sample draws
the oracle of kolmogorov_fit's chunked draws, and the barycenter product,
a nested germ that evaluates A on every germ row, the reference for the
library product's sewn limit.
"""

import math

from dataclasses import dataclass, field

import numpy as np
from hypothesis import settings

from roughforms import forms, sampling
from roughforms import gaussian as G
from roughforms.errors import BudgetExceededError, DegenerateSimplexError
from roughforms.geometry import (
    Chain,
    Simplex,
    _signed_simplex,
    boundary,
    diameter,
    diameter_array,
    faces,
    staircase_blocks,
    volume,
    volume_array,
)
from roughforms.sewing import FunctionGerm
from roughforms.subdivision import EDGEWISE, iterate_array

settings.register_profile(
    "deterministic", derandomize=True, deadline=None, database=None
)
settings.load_profile("deterministic")


def assert_rounding_close(got, want):
    """got equals want up to the rounding of float sums taken in another
    order or at other array shapes (relative 1e-12, absolute 1e-15)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-15)


def boundary_chain(chain):
    """Boundary of a chain, term by term."""
    terms = []
    for c, s in chain:
        for c2, f in boundary(s):
            terms.append((c * c2, f))
    return Chain(terms)


def snap_to_grid(simplex, n):
    """Round each coordinate to the dyadic grid 2^-n, ties toward -inf."""
    scale = 2.0**n
    v = simplex.vertices * scale
    snapped = np.ceil(v - 0.5) / scale
    return Simplex(snapped)


def axis_box_chain(base, axes, extents):
    """Triangulate an axis-parallel k-box into k! simplices.

    ``axes`` lists the k coordinate directions the box spans (1-based labels
    matching x1..xd), ``extents`` the signed side lengths along them; the
    remaining coordinates stay pinned at ``base``. Signs of the extents flow
    through the staircase determinants, so integrating dx^axes over the
    result gives the signed product of the extents.
    """
    base = np.asarray(base, dtype=float)
    axes = tuple(int(a) - 1 for a in axes)
    if any(a < 0 or a >= base.shape[0] for a in axes):
        raise ValueError("coordinate label out of range 1..d")
    extents = np.asarray(extents, dtype=float)
    if len(axes) != extents.shape[0]:
        raise ValueError("axes and extents must have equal length")
    if any(e == 0.0 for e in extents):
        raise DegenerateSimplexError("axis box has a zero extent")
    steps = np.zeros((1, len(axes), base.shape[0]))
    steps[0, range(len(axes)), axes] = extents
    blocks = staircase_blocks(base[None], steps)
    return Chain(_signed_simplex(verts[0], sign) for sign, verts in blocks)


def _inner_tols(pts, tol, root_diam):
    """Tolerances for inner evaluations on the rows of one germ batch.

    A row gets a quarter of tol times its squared relative diameter, so
    the shares shrink geometrically with the subdivision level.
    """
    return tol * 0.25 * np.minimum(1.0, (diameter_array(pts) / root_diam) ** 2)


class BarycenterProduct(forms.Cochain):
    """The Young product f * A sewn from f at the barycenter times A(sigma).

    The library's germ averages f over the vertices instead and reads A
    through its vertex terms; the sewn limit does not depend on where in
    sigma the germ samples f. When A is an increment dg, g is the vertex
    function; any other A is evaluated on every germ row at a
    geometrically shrinking share of the tolerance, and those inner tails
    are added to the sewing tail. The exponents and the germ's declared
    gamma and delta-norm are those of the library product.
    """

    provenance = "product"

    def __init__(self, f, a):
        flat = forms.product(f, a)  # checks the exponents
        super().__init__(a.k, a.d, flat.alpha, flat.beta)
        self.f = f
        self.base = a
        self.germ_gamma = flat.germ_gamma
        self.delta_norm = flat.delta_norm
        increment = isinstance(a, forms.CoboundaryCochain) and isinstance(
            a.base, forms.ZeroFormCochain
        )
        self.vertex_fn = a.base.f if increment else None

    def _germ_rows(self, pts, vals, tol, root_diam):
        mu = self.f(pts.mean(axis=1))
        if self.vertex_fn is None:
            a_vals, tails = self.base.eval_batch(
                pts, _inner_tols(pts, tol, root_diam)
            )
            return mu * a_vals, np.abs(mu) * tails
        return mu * (vals[:, 1] - vals[:, 0]), np.zeros(len(pts))

    def _eval_simplex(self, simplex, tol):
        root_diam = diameter(simplex)
        inner_tail = 0.0

        def batch(pts, vals=None):
            nonlocal inner_tail
            values, tails = self._germ_rows(pts, vals, tol, root_diam)
            inner_tail = float(np.sum(tails))
            return values

        germ = FunctionGerm(
            batch,
            gamma=self.germ_gamma,
            delta_norm=self.delta_norm,
            vertex_fn=self.vertex_fn,
        )
        try:
            res = forms.sew(germ, simplex, tol)
        except BudgetExceededError as exc:
            res = exc.partial
        tail = res.tail_bound + inner_tail
        return res.value, tail, tail > tol


def heights(simplex):
    """Height of each vertex over the opposite face's affine hull.

    Within the simplex the distance to that hull is an absolute affine
    function, so its max is attained at the opposite vertex; these values are
    therefore the face-wise sup distances entering the alpha-mass. Each is
    k Vol / Vol(face), base times height being k times the volume.
    """
    face_vols = volume_array([f.vertices for f in faces(simplex)])
    return simplex.k * volume(simplex) / face_vols


def random_rotation(rng, d):
    """One random orthogonal (d, d) matrix: a standard normal draw made
    orthogonal by `_orthonormalize`, the rule kolmogorov_fit applies to a
    chunk of draws at once."""
    return G._orthonormalize(rng.standard_normal((d, d)))


def two_piece_split(simplex, rng):
    """Split along one edge at t in [1/4, 3/4]: two same-orientation pieces.

    Picks an edge (i, j), places p = v_i + t (v_j - v_i), and returns the
    two simplices with v_j (resp. v_i) replaced by p; volumes split t to
    1 - t and orientations match the parent.
    """
    k = simplex.k
    v = simplex.vertices
    pairs = [(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)]
    i, j = pairs[rng.integers(len(pairs))]
    t = 0.25 + 0.5 * rng.random()
    p = (1 - t) * v[i] + t * v[j]
    a = np.array(v)
    a[j] = p
    b = np.array(v)
    b[i] = p
    return [Simplex(a), Simplex(b)]


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
                pieces = two_piece_split(s, split_rng)
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


def kolmogorov_moments_per_sample(
    spec, k, scales, q=2, n_samples=200, mode="fresh", dtype=np.float32
):
    """The moments and standard errors of kolmogorov_fit, drawn and prepared
    one (scale, sample) pair at a time.

    Each pair's stream draws a rotation by `random_rotation`, the corners
    x0 and xc by one uniform draw each, and one amplitude set per component
    by `_draw_coeffs`; "fixed" mode draws one amplitude set per component
    per scale. The pairings are taken by `_moment_pairings` over the same
    chunks of samples as the fit. Returns (cube moments, cube std errors,
    boundary moments, boundary std errors).
    """
    d, L = spec.d, spec.L
    symbol = spec.symbol().astype(dtype)
    modes = G._mode_grid(spec)
    n_comps = len(G.component_indices(d, k))
    chunk = max(1, G.PAIRING_CHUNK // ((2 * k + 3) * symbol.size))

    def draw_fields(rng):
        return [G._draw_coeffs(symbol, rng).ravel() for _ in range(n_comps)]

    mom_c, se_c, mom_b, se_b = [], [], [], []
    for si, r in enumerate(scales):
        fixed = None
        if mode == "fixed":
            fixed = draw_fields(
                np.random.Generator(
                    np.random.SFC64(np.random.SeedSequence((spec.seed, si)))
                )
            )
        vals_c = np.empty(n_samples)
        vals_b = np.empty(n_samples)
        for start in range(0, n_samples, chunk):
            n = min(chunk, n_samples - start)
            rot = np.empty((n, d, d))
            x0 = np.empty((n, d))
            xc = np.empty((n, d))
            coeffs = np.empty((n, n_comps, symbol.size), dtype=complex)
            for i in range(n):
                ss = np.random.SeedSequence((spec.seed, si, start + i))
                rng = np.random.Generator(np.random.SFC64(ss))
                rot[i] = random_rotation(rng, d)
                x0[i] = rng.uniform(0.0, L, d)
                xc[i] = rng.uniform(0.0, L, d)
                coeffs[i] = fixed if fixed is not None else draw_fields(rng)
            part = slice(start, start + n)
            vals_c[part], vals_b[part] = G._moment_pairings(
                spec, k, r, coeffs, rot, x0, xc, modes
            )
        pc = np.abs(vals_c) ** q
        pb = np.abs(vals_b) ** q
        mom_c.append(float(np.mean(pc)))
        se_c.append(float(np.std(pc) / math.sqrt(n_samples)))
        mom_b.append(float(np.mean(pb)))
        se_b.append(float(np.std(pb) / math.sqrt(n_samples)))
    return mom_c, se_c, mom_b, se_b
