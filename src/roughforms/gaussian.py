"""Fractional Gaussian fields, rough Gaussian k-forms, and moment scalings.

Fields are sampled spectrally on the periodic torus of side L: modes p with
|p_j| < N/2 carry independent complex Gaussian amplitudes shaped by the
isotropic symbol (1 + |p|_2 / L)^(-theta) (normalized by L^(-d/2)), with
exact Hermitian symmetry so the synthesized field is real. A k-form is
assembled from one independent field g_I per coordinate index set I. The
fields are band-limited, so the form is the smooth form sum_I g_I dx^I:
simplices integrate it by the adaptive quadrature of smooth forms, within
the requested tolerance, and a k-cube Q pairs with it through
sum_I minor_I(frame) times the field integral over Q.

The cube distribution delta_Q has the closed-form Fourier transform
prod_j (e^(2 pi i xi_j r) - 1)/(2 pi i xi_j) in a frame adapted to Q, which
gives both its Sobolev norm (an isotropic-symbol integral) and exact
pairings of the band-limited field with arbitrarily placed cubes.

The moment harness fits log-log slopes of E|A(Q)|^q over dyadic side
lengths against the predicted exponents q(k-1+alpha_bar) for cubes and
q(k+beta_bar) for cube boundaries, where alpha_bar = min(theta-d/2+1, 1)
and beta_bar = min(theta-d/2, 1). Every (d, k) takes its draws through one
batched kernel of those exact pairings: per draw, the pairing with a
randomly placed and rotated k-cube and with the boundary of a (k+1)-cube,
evaluated for a chunk of draws at a time so memory stays bounded.
"""

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ExponentViolationError,
    InsufficientSamplesError,
    TruncationTailError,
)
from .fitting import line_fit
from .forms import QUAD_CHUNK_POINTS, SmoothFormCochain
from .geometry import diameter_array

TWO_PI = 2.0 * math.pi
# kolmogorov_fit evaluates its draws in chunks of samples, so that the
# samples x (2k + 3) x modes complex kernel array stays under this count
PAIRING_CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# field specification and synthesis


@dataclass(frozen=True)
class SpectralFieldSpec:
    """Parameters of a fractional Gaussian field on the torus [0, L)^d.

    theta is the Sobolev smoothing exponent of the spectral symbol, N the
    grid resolution per axis (modes run over |p_j| < N/2, the Nyquist row
    is excluded so the mode set is symmetric), L the period, and seed the
    base of every derived random stream.
    """

    d: int
    theta: float
    N: int
    L: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError("ambient dimension d must be 1, 2, or 3")
        if self.N < 4 or (self.N & (self.N - 1)) != 0:
            raise ValueError("N must be a power of two, at least 4")
        if self.L <= 0:
            raise ValueError("period L must be positive")
        if self.theta < 0:
            raise ValueError("theta must be nonnegative")

    def modes(self):
        """The per-axis integer mode range, Nyquist excluded."""
        return np.arange(-(self.N // 2) + 1, self.N // 2, dtype=float)

    def symbol(self):
        """(1 + |p|_2/L)^(-theta) * L^(-d/2) over the full mode lattice."""
        h = self.modes()
        grids = np.meshgrid(*([h] * self.d), indexing="ij")
        rad = np.sqrt(sum(g * g for g in grids))
        return (1.0 + rad / self.L) ** (-self.theta) * self.L ** (-self.d / 2.0)

    def require_pairing(self, k):
        if self.theta <= (self.d - k) / 2.0:
            raise ExponentViolationError(
                f"pairings of a {k}-form need theta > (d-k)/2 = "
                f"{(self.d - k) / 2.0}, got theta = {self.theta}"
            )


def component_indices(d, k):
    """Sorted 1-based axis tuples indexing the components of a k-form."""
    return list(itertools.combinations(range(1, d + 1), k))


def _draw_coeffs(symbol, rng):
    """Hermitian-symmetric Gaussian mode amplitudes under the symbol.

    symbol is `spec.symbol()` in the precision of the draw. The
    symmetrization (zeta + conj(reversed zeta)) / 2 keeps every mode,
    including the self-conjugate origin, at unit variance while making the
    synthesized field exactly real.
    """
    count = symbol.size
    z = rng.standard_normal(2 * count, dtype=symbol.dtype)
    zeta = (z[:count] + 1j * z[count:]).reshape(symbol.shape)
    flip = (slice(None, None, -1),) * symbol.ndim
    sym = (zeta + np.conj(zeta[flip])) * 0.5
    return sym * symbol


class FieldSample:
    """One synthesized field: spectral amplitudes plus exact evaluators.

    All evaluations are exact mode sums of the band-limited field, so point
    values, axis-box integrals, and rotated-cube integrals carry no
    quadrature error.
    """

    def __init__(self, spec, coeffs, component=None):
        self.spec = spec
        self.coeffs = coeffs
        self.component = component
        self.h = spec.modes()

    def _axis_factor(self, x):
        """exp(2 pi i h x / L) for a batch of scalars, shape (P, modes)."""
        return np.exp((2j * np.pi / self.spec.L) * np.outer(x, self.h))

    def _axis_segment(self, u):
        """Signed integral factors int_0^u exp(2 pi i h x / L) dx."""
        L = self.spec.L
        phase = np.exp((2j * np.pi / L) * np.outer(u, self.h))
        denom = 2j * np.pi * self.h / L
        zero = np.abs(self.h) < 0.5
        safe = np.where(zero, 1.0, denom)
        out = (phase - 1.0) / safe
        out[:, zero] = np.asarray(u, dtype=float)[:, None]
        return out

    def _contract(self, factors):
        """sum_p coeffs[p] prod_a factors[a][:, p_a], batched over points."""
        c = self.coeffs
        if self.spec.d == 1:
            return factors[0] @ c
        if self.spec.d == 2:
            return np.einsum("pb,pb->p", factors[0] @ c, factors[1])
        t = np.einsum("abc,pc->pab", c, factors[2])
        return np.einsum("pab,pa,pb->p", t, factors[0], factors[1])

    def eval(self, pts):
        """Field values at a batch of ambient points, exact mode sums."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        factors = [self._axis_factor(pts[:, a]) for a in range(self.spec.d)]
        return np.real(self._contract(factors))

    def integral_axis_box(self, pts, J):
        """Signed integral over the axis box spanning [0, u_j] for j in J.

        The remaining coordinates of each point fix the box position; the
        result is oriented, so negative spans flip the sign.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        axes = set(int(j) - 1 for j in J)
        factors = [
            self._axis_segment(pts[:, a])
            if a in axes
            else self._axis_factor(pts[:, a])
            for a in range(self.spec.d)
        ]
        return np.real(self._contract(factors))

    def integral_cube(self, corner, frame, side):
        """Exact integral over the k-cube spanned by orthonormal frame rows."""
        frame = np.atleast_2d(np.asarray(frame, dtype=float))
        corner = np.asarray(corner, dtype=float)
        L = self.spec.L
        grids = np.meshgrid(*([self.h] * self.spec.d), indexing="ij")
        total = self.coeffs.astype(complex)
        for a in range(self.spec.d):
            total = total * np.exp((2j * np.pi / L) * corner[a] * grids[a])
        for row in frame:
            omega = sum(row[a] * grids[a] for a in range(self.spec.d))
            denom = 2j * np.pi * omega / L
            zero = np.abs(omega) < 1e-12
            safe = np.where(zero, 1.0, denom)
            dfac = (np.exp(denom * side) - 1.0) / safe
            total = total * np.where(zero, side, dfac)
        return float(np.real(np.sum(total)))

    @cached_property
    def grid(self):
        """Real-space samples on the N^d lattice x = n L / N."""
        spec = self.spec
        n = spec.N
        full = np.zeros((n,) * spec.d, dtype=complex)
        idx = self.h.astype(int) % n
        full[np.ix_(*([idx] * spec.d))] = self.coeffs
        return np.real(np.fft.ifftn(full) * n**spec.d)

    def export(self, prefix):
        """Write the grid as little-endian float64 plus a JSON header."""
        data = np.ascontiguousarray(self.grid, dtype="<f8")
        with open(f"{prefix}.bin", "wb") as fh:
            fh.write(data.tobytes())
        header = {
            "d": self.spec.d,
            "theta": self.spec.theta,
            "N": self.spec.N,
            "L": self.spec.L,
            "seed": self.spec.seed,
            "component": list(self.component)
            if self.component is not None
            else None,
            "dtype": "<f8",
            "shape": list(data.shape),
        }
        with open(f"{prefix}.json", "w") as fh:
            json.dump(header, fh, indent=2, sort_keys=True)
        return header


def sample_field(spec, component=None, dtype=np.float64):
    """Draw one field; each component gets an independent derived stream."""
    if component is None:
        entropy = (spec.seed,)
    else:
        comps = component_indices(spec.d, len(component))
        key = tuple(int(j) for j in component)
        if key not in comps:
            raise ValueError(f"unknown component index set {component}")
        entropy = (spec.seed, 1 + comps.index(key))
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy)))
    coeffs = _draw_coeffs(spec.symbol().astype(dtype), rng)
    return FieldSample(spec, coeffs, component=component)


def spectral_point_variance(spec):
    """E[g(x)^2] of the synthesized field: the sum of squared symbols."""
    return float(np.sum(spec.symbol() ** 2))


# ---------------------------------------------------------------------------
# Sobolev norm of the cube distribution


def _transverse_factory(m, theta):
    """T(a) = integral over R^m of (1 + sqrt(a^2 + |w|^2))^(-2 theta) dw.

    Returns a vectorized callable; requires 2 theta > m.
    """
    if m == 0:
        return lambda a: (1.0 + np.asarray(a, dtype=float)) ** (-2 * theta)
    if m == 2:
        # radial closed form, valid for theta > 1
        def closed(a):
            b = 1.0 + np.asarray(a, dtype=float)
            return TWO_PI * (
                b ** (2 - 2 * theta) / (2 * theta - 2)
                - b ** (1 - 2 * theta) / (2 * theta - 1)
            )

        return closed

    x, w = np.polynomial.legendre.leggauss(16)

    def direct(a):
        a = np.atleast_1d(np.asarray(a, dtype=float))
        base = 1.0 + a
        # log-spaced panels out to 30 (1 + a), then a closed-form tail
        edges = np.concatenate([[0.0], np.geomspace(0.25, 30.0, 12)])
        total = np.zeros_like(a)
        for lo, hi in zip(edges[:-1], edges[1:]):
            s = base[:, None] * (0.5 * (hi - lo) * x + 0.5 * (hi + lo))
            ww = base[:, None] * (0.5 * (hi - lo) * w)
            vals = (1.0 + np.sqrt(a[:, None] ** 2 + s**2)) ** (-2 * theta)
            total += np.sum(ww * vals, axis=1)
        tail = (1.0 + 30.0 * base) ** (1 - 2 * theta) / (2 * theta - 1)
        return 2.0 * (total + tail)

    return direct


@dataclass
class DeltaQNorm:
    """H^(-theta) norm of the cube distribution, with truncation report."""

    value: float
    tail_bound: float
    k: int
    d: int
    side: float
    theta: float

    def __float__(self):
        return self.value

    def to_json(self):
        return {
            "value": self.value,
            "tail_bound": self.tail_bound,
            "k": self.k,
            "d": self.d,
            "side": self.side,
            "theta": self.theta,
        }


def delta_Q_sobolev(Q, theta, nodes=10, reach=32.0, tail_limit=0.05):
    """The H^(-theta)(R^d) norm of the distribution integrating over Q.

    The squared norm integrates the isotropic symbol (1 + |xi|_2)^(-2 theta)
    against the squared Fourier transform of the cube distribution, which is
    prod_j sin^2(pi xi_j r)/(pi xi_j)^2 in a frame adapted to Q; the norm is
    therefore independent of the cube's position and rotation. Transverse
    directions integrate in closed or near-closed form; the in-plane
    integral is truncated at |xi_j| <= reach / r with a reported geometric
    tail bound, which must stay below tail_limit of the squared norm.
    """
    k, d, r = Q.k, Q.d, float(Q.side)
    if theta <= (d - k) / 2.0:
        raise ExponentViolationError(
            f"delta_Q in H^-theta needs theta > (d-k)/2 = {(d - k) / 2.0}"
        )
    if k > 2:
        raise ExponentViolationError(
            "delta_Q_sobolev handles cube dimensions k <= 2"
        )
    T = _transverse_factory(d - k, theta)
    P = reach * max(1.0, 1.0 / r)
    # composite panels matched to the half-oscillations of sin^2(pi xi r),
    # with the first panel refined dyadically so the symbol's own decay
    # scale (about 1/theta near the origin) is always resolved
    width = 1.0 / (2.0 * r)
    n_panels = max(4, int(math.ceil(P / width)))
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(0.0, P, n_panels + 1)
    first = edges[1]
    target = min(1.0, 1.0 / (1.0 + 2.0 * theta)) / 8.0
    splits = []
    while first > target:
        first *= 0.5
        splits.append(first)
    edges = np.concatenate([edges[:1], splits[::-1], edges[1:]])
    axis_x = np.concatenate(
        [0.5 * (b - a) * x + 0.5 * (a + b) for a, b in zip(edges, edges[1:])]
    )
    axis_w = np.concatenate(
        [0.5 * (b - a) * w for a, b in zip(edges, edges[1:])]
    )

    def phi(u):
        out = np.empty_like(u)
        small = np.abs(u) < 1e-9
        out[small] = r * r
        big = u[~small]
        out[~small] = np.sin(np.pi * big * r) ** 2 / (np.pi * big) ** 2
        return out

    if k == 1:
        integral = 2.0 * float(np.sum(axis_w * phi(axis_x) * T(axis_x)))
    else:
        # tabulate T on a log grid of radii and interpolate
        grid_a = np.concatenate(
            [[0.0], np.geomspace(1e-3, P * math.sqrt(2.0) + 1.0, 400)]
        )
        grid_T = np.atleast_1d(T(grid_a))
        X, Y = np.meshgrid(axis_x, axis_x, indexing="ij")
        tvals = np.interp(np.hypot(X, Y), grid_a, grid_T)
        wx, wy = np.meshgrid(axis_w, axis_w, indexing="ij")
        integral = 4.0 * float(np.sum(wx * wy * phi(X) * phi(Y) * tvals))
    # beyond the truncation phi <= 1/(pi xi)^2, the other in-plane axes
    # integrate to r each, and T decays at least at its asymptotic rate
    m = d - k
    t_p = float(np.atleast_1d(T(np.array([P])))[0])
    decay = 2 * theta - m + 1
    tail_sq = 4.0 * k * 2.0 * r ** (k - 1) * t_p / (math.pi**2 * P * decay)
    if integral <= 0:
        raise TruncationTailError("cube norm integral vanished")
    value = math.sqrt(integral)
    frac = tail_sq / integral
    if frac > tail_limit:
        raise TruncationTailError(
            f"truncation tail is {frac:.2%} of the squared norm",
            tail_fraction=frac,
        )
    return DeltaQNorm(
        value=value,
        tail_bound=tail_sq / (2.0 * value),
        k=k,
        d=d,
        side=r,
        theta=theta,
    )


# ---------------------------------------------------------------------------
# the Gaussian k-form cochain


class GaussianKFormCochain(SmoothFormCochain):
    """The k-form assembled from one sampled field per index set I.

    A sampled field is band-limited, so the form is the smooth form
    sum_I g_I dx^I of its fields and evaluates as one: two-order Duffy
    quadrature refined until each row's tail meets its tolerance. The
    coarse order grows with the simplex diameter in units of the grid
    spacing L / N, from 4 to 24. A d = 3 mode sum holds (N-1)^2 terms per
    point, not N-1, so there the chunk of quadrature points is divided by
    N-1 to keep a batch's memory the same. Axis boxes evaluate exactly
    through the spectral closed form, which component extraction uses
    directly.
    """

    def __init__(self, samples, k):
        samples = dict(samples)
        spec = next(iter(samples.values())).spec
        for s in samples.values():
            if (s.spec.d, s.spec.N, s.spec.L) != (spec.d, spec.N, spec.L):
                raise ValueError("component fields must share d, N, and L")
        want = set(component_indices(spec.d, k))
        keyed = {tuple(int(j) for j in key): s for key, s in samples.items()}
        if set(keyed) != want:
            raise ValueError(
                f"need exactly one field per index set, expected {sorted(want)}"
            )
        spec.require_pairing(k)
        alpha_bar = min(spec.theta - spec.d / 2.0 + 1.0, 1.0)
        beta_bar = min(spec.theta - spec.d / 2.0, 1.0)
        super().__init__(
            {I: sample.eval for I, sample in keyed.items()},
            spec.d,
            max(alpha_bar, 0.0),
            max(beta_bar, 0.0),
            provenance="gaussian",
        )
        self.spec = spec
        self.samples = keyed
        d3_cut = (spec.N - 1) ** max(0, spec.d - 2)
        self.chunk_points = QUAD_CHUNK_POINTS // d3_cut

    def _coarse_orders(self, pts):
        base = 8.0 * diameter_array(pts) * self.spec.N / self.spec.L
        return np.clip(np.ceil(base / 2.0), 4, 24).astype(int)

    def eval_axis_box(self, pts, J):
        J = tuple(int(j) for j in J)
        return self.samples[J].integral_axis_box(pts, J)

    def to_json(self):
        blob = super().to_json()
        blob["spec"] = {
            "d": self.spec.d,
            "theta": self.spec.theta,
            "N": self.spec.N,
            "L": self.spec.L,
            "seed": self.spec.seed,
        }
        return blob


def gaussian_form(samples, k):
    """Assemble the k-form cochain from per-component field samples."""
    return GaussianKFormCochain(samples, k)


def sample_form(spec, k, dtype=np.float64):
    """Draw all component fields of a k-form with derived sub-streams."""
    samples = {
        I: sample_field(spec, component=I, dtype=dtype)
        for I in component_indices(spec.d, k)
    }
    return gaussian_form(samples, k)


# ---------------------------------------------------------------------------
# the moment-scaling harness


@dataclass
class MomentFit:
    """A fitted log-log moment scaling over dyadic cube sides."""

    part: str
    q: int
    scales: list
    moments: list
    std_errors: list
    n_samples: int
    slope: float
    ci_halfwidth: float
    predicted: float | None
    passed: bool | None
    mode: str
    tolerance: float

    def to_json(self):
        return {
            "part": self.part,
            "q": self.q,
            "slope": self.slope,
            "ci_halfwidth": self.ci_halfwidth,
            "predicted": self.predicted,
            "pass": self.passed,
            "mode": self.mode,
            "tolerance": self.tolerance,
            "n_samples": self.n_samples,
            "scales": list(self.scales),
            "moments": list(self.moments),
        }

    def to_csv_rows(self):
        rows = [("scale", "moment", "n", "ci")]
        for s, m, se in zip(self.scales, self.moments, self.std_errors):
            rows.append((s, m, self.n_samples, 1.96 * se))
        return rows


def _random_rotation(rng, d):
    g = rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def _moment_pairings(spec, k, r, coeffs, rot, x0, xc):
    """A(cube) and A(boundary of the (k+1)-cube) for a batch of n draws.

    coeffs (n, C, M) holds the flattened amplitudes of the component fields
    in component_indices(d, k) order, rot (n, d, d) rotations whose columns
    u_0..u_k span the cubes, and x0, xc (n, d) corners. The cube has side r
    at xc and rows u_0..u_(k-1); the (k+1)-cube has side r at x0, and its
    face a, spanned by every row but u_a, is paired at x0 + r u_a and at x0.
    Each pairing is the exact mode sum of FieldSample.integral_cube,
    sum_I minor_I(frame) sum_p c_I[p] e^(2 pi i z.p / L) prod_rows D(u.p)
    with D(w) = (e^(2 pi i w r / L) - 1) / (2 pi i w / L) and D(0) = r.
    """
    d, L = spec.d, spec.L
    grids = np.meshgrid(*([spec.modes()] * d), indexing="ij")
    modes = np.stack(grids, axis=-1).reshape(-1, d)
    rows = np.swapaxes(rot[:, :, : k + 1], 1, 2)
    omega = rows @ modes.T
    zero = np.abs(omega) < 1e-12
    denom = 2j * np.pi * np.where(zero, 1.0, omega) / L
    D = np.where(zero, r, (np.exp(denom * r) - 1.0) / denom)
    faces = [[j for j in range(k + 1) if j != a] for a in range(k + 1)]
    frames = np.stack([np.prod(D[:, f], axis=1) for f in faces], axis=1)
    axes = [[i - 1 for i in I] for I in component_indices(d, k)]
    minors = np.stack(
        [
            np.stack([np.linalg.det(rows[:, f][..., I]) for I in axes], -1)
            for f in faces
        ],
        axis=1,
    )
    corners = np.concatenate(
        [xc[:, None], x0[:, None] + r * rows, x0[:, None]], axis=1
    )
    # e^(2 pi i z.p / L) is a product of one factor per axis
    axis_phases = np.exp((2j * np.pi / L) * corners[..., None] * spec.modes())
    phases = axis_phases[:, :, 0]
    for a in range(1, d):
        phases = phases[..., :, None] * axis_phases[:, :, a, None, :]
        phases = phases.reshape(*corners.shape[:2], -1)
    # (corner, frame) pairs: the cube, then every face at x0 + r u_a and
    # at x0; the cube's frame is face k's
    kernels = np.concatenate(
        [
            phases[:, :1] * frames[:, k:],
            phases[:, 1 : k + 2] * frames,
            phases[:, k + 2 :] * frames,
        ],
        axis=1,
    )
    sums = (kernels @ np.swapaxes(coeffs, 1, 2)).real
    pair_minors = np.concatenate([minors[:, k:], minors, minors], axis=1)
    values = np.sum(sums * pair_minors, axis=-1)
    signs = (-1.0) ** np.arange(k + 1)
    bdry = (values[:, 1 : k + 2] - values[:, k + 2 :]) @ signs
    return values[:, 0], bdry


def kolmogorov_fit(
    spec,
    k,
    q=2,
    scales=None,
    n_samples=200,
    mode="fresh",
    dtype=np.float32,
    tolerance=0.15,
):
    """Fit moment scalings of the Gaussian k-form over dyadic cube sides.

    Returns (cube fit, boundary fit). Every (scale, sample) pair gets its
    own derived stream, which draws a rotation, the two corners and then
    one amplitude set per component, so results do not depend on
    evaluation order. In "fixed" mode one set of fields per scale is reused
    across samples (spatially correlated, and flagged in the output). dtype
    is the precision of the amplitude draws; the pairings are exact mode
    sums in float64 for every (d, k), taken by `_moment_pairings` over
    chunks of samples of at most PAIRING_CHUNK kernel entries. Predictions
    are refused (left as None, with passed None) when theta - d/2 <= 0
    makes the boundary exponent degenerate; the slopes are still reported.
    """
    if q < 1 or q % 2:
        raise ValueError("q must be a positive even integer")
    if mode not in ("fresh", "fixed"):
        raise ValueError("mode must be 'fresh' or 'fixed'")
    spec.require_pairing(k)
    if k + 1 > spec.d:
        raise ValueError("boundary moments need k + 1 <= d")
    if scales is None:
        scales = [spec.L * 2.0**-e for e in range(4, 9)]
    scales = [float(s) for s in scales]
    if len(scales) < 3:
        raise ValueError("need at least three scales for a slope fit")
    for s in scales:
        m = math.log2(spec.L / s)
        if abs(m - round(m)) > 1e-9:
            raise ValueError("scales must be dyadic fractions of the period")
        if s * math.sqrt(k + 1) > spec.L / 8.0 + 1e-12:
            raise ValueError("scales must keep cube diameters at or below L/8")
    alpha_bar = min(spec.theta - spec.d / 2.0 + 1.0, 1.0)
    beta_bar = min(spec.theta - spec.d / 2.0, 1.0)
    degenerate = beta_bar <= 0.0
    pred_cube = None if degenerate else q * (k - 1 + alpha_bar)
    pred_bdry = None if degenerate else q * (k + beta_bar)

    d, L = spec.d, spec.L
    symbol = spec.symbol().astype(dtype)
    n_comps = len(component_indices(d, k))
    chunk = max(1, PAIRING_CHUNK // ((2 * k + 3) * symbol.size))

    def draw_fields(rng):
        return [_draw_coeffs(symbol, rng).ravel() for _ in range(n_comps)]

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
                rot[i] = _random_rotation(rng, d)
                x0[i] = rng.uniform(0.0, L, d)
                xc[i] = rng.uniform(0.0, L, d)
                coeffs[i] = fixed if fixed is not None else draw_fields(rng)
            part = slice(start, start + n)
            vals_c[part], vals_b[part] = _moment_pairings(
                spec, k, r, coeffs, rot, x0, xc
            )
        pc = np.abs(vals_c) ** q
        pb = np.abs(vals_b) ** q
        mom_c.append(float(np.mean(pc)))
        se_c.append(float(np.std(pc) / math.sqrt(n_samples)))
        mom_b.append(float(np.mean(pb)))
        se_b.append(float(np.std(pb) / math.sqrt(n_samples)))

    def fit(part, moments, errors, predicted):
        x = np.log(scales)
        y = np.log(moments)
        slope, _ = line_fit(x, y)
        xbar = float(np.mean(x))
        coef = (x - xbar) / float(np.sum((x - xbar) ** 2))
        sig = np.array(errors) / np.array(moments)
        hw = 1.96 * float(np.sqrt(np.sum(coef**2 * sig**2)))
        passed = (
            None
            if predicted is None
            else bool(abs(slope - predicted) <= tolerance)
        )
        result = MomentFit(
            part=part,
            q=q,
            scales=list(scales),
            moments=list(moments),
            std_errors=list(errors),
            n_samples=n_samples,
            slope=float(slope),
            ci_halfwidth=hw,
            predicted=predicted,
            passed=passed,
            mode=mode,
            tolerance=tolerance,
        )
        if hw > 0.3:
            raise InsufficientSamplesError(
                f"slope confidence half-width {hw:.3f} exceeds 0.3",
                fit=result,
            )
        return result

    return (
        fit("cube", mom_c, se_c, pred_cube),
        fit("boundary", mom_b, se_b, pred_bdry),
    )
