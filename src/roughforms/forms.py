"""Cochains (rough differential k-forms) and the calculus on them.

A cochain assigns a real number to every oriented k-simplex, additively
over subdivisions and oddly under orientation flips. Rough cochains carry
declared Hoelder-type exponents (alpha, beta): alpha controls |A(sigma)|
against the alpha-mass, beta does the same for A on boundaries. Products
with Hoelder functions, coboundaries, wedges, and pullbacks are built as
sewn germs with the exponent bookkeeping of Young-type multiplication.
Smooth forms need no sewing: on smooth data the sewn integral is the
classical one, so they are integrated by quadrature, and the pullback of a
smooth form by a map with an analytic Jacobian is again a smooth form, by
the change of variables formula. Sampled Gaussian forms (gaussian.py) are
band-limited, so they are smooth forms of their fields and share both.

Evaluations return a value together with an a posteriori tail bound; by
default an unachievable tolerance raises, while best-effort mode returns
the partial value with its honest tail. Single evaluations are memoized
per cochain on the quantized vertices of the vertex-sorted simplex; an
entry remembers its tolerance and serves a later request only when its
tail meets that request or the request is no tighter, or when a tighter
request would compute it again unchanged (a depth-capped sew).

Batches of simplices have one protocol: eval_batch(pts, tols) takes an
(n, k+1, d) vertex array with one tolerance per row and returns values and
tails, best effort. The default evaluates row by row through the memo;
closed forms override it with exact vectorized formulas (zero tails),
smooth forms, Gaussian forms among them, with adaptive two-order
quadrature (estimated tails), and combinations and coboundaries forward
it to their parts.

Germs (sewing.py) are batch functions on vertex arrays. A sewn cochain
writes its germ once, as _germ_rows(pts, vals, tol, root_diam) returning
one subdivision level's values and inner tails, so product and pullback
germs call eval_batch once per level; so does the Stokes germ, and
component extraction calls it once per staircase block. Products and
pullbacks read their functions only at the vertices, so they declare a
vertex function that sewing evaluates once per lattice point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import sampling
from .errors import (
    BudgetExceededError,
    DegenerateFitError,
    ExponentViolationError,
    NoConvergenceError,
)
from .geometry import (
    Chain,
    Cube,
    Simplex,
    boundary,
    canonical_rows,
    coordinate_projection_array,
    cube_to_chain,
    diameter,
    diameter_array,
    mass_value,
    minimal_enclosing_ball,
)
from .sewing import DEPTH_MAX_BY_K, FunctionGerm, sew
from .subdivision import EDGEWISE, iterate_array

MEMO_QUANTUM = 1e-12
# quadrature points per coefficient call of a smooth-form quadrature; a
# Gaussian form in d = 3 divides it by N - 1, since there each point's mode
# sum holds (N-1)^2 terms, not N - 1
QUAD_CHUNK_POINTS = 1 << 13
# a quadrature tail within this share of the value is rounding noise,
# which splitting the simplex does not reduce
QUAD_ROUNDING = 1e-13


@lru_cache(maxsize=None)
def _duffy_rule(k, order):
    """Nodes (Q, k) in the unit simplex and weights summing to 1/k!.

    Tensor Gauss-Legendre points collapsed onto the simplex; exactness
    degree grows with `order` in every variable. Cached per (k, order),
    of which callers use few (k <= 3, orders up to 48); the arrays are
    read-only so no caller can change the cached rule.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    if k == 1:
        nodes, weights = x[:, None], w
    elif k == 2:
        u, v = np.meshgrid(x, x, indexing="ij")
        wu, wv = np.meshgrid(w, w, indexing="ij")
        t1 = (u * (1 - v)).ravel()
        t2 = (u * v).ravel()
        weights = (wu * wv * u).ravel()
        nodes = np.stack([t1, t2], axis=1)
    elif k == 3:
        u, v, s = np.meshgrid(x, x, x, indexing="ij")
        wu, wv, ws = np.meshgrid(w, w, w, indexing="ij")
        t1 = (u * (1 - v)).ravel()
        t2 = (u * v * (1 - s)).ravel()
        t3 = (u * v * s).ravel()
        weights = (wu * wv * ws * u**2 * v).ravel()
        nodes = np.stack([t1, t2, t3], axis=1)
    else:
        raise ValueError("quadrature rules cover k <= 3")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


# ---------------------------------------------------------------------------
# scalar ingredients


class HolderFunction:
    """A scalar function with declared Hoelder exponent and constant.

    The callable must vectorize over leading axes of an (..., d) array.
    """

    def __init__(self, fn, gamma, constant, d=None):
        if not (0 < gamma <= 1):
            raise ValueError("gamma must lie in (0, 1]")
        self._fn = fn
        self.gamma = float(gamma)
        self.constant = float(constant)
        self.d = d

    def __call__(self, x):
        return np.asarray(self._fn(np.asarray(x, dtype=float)), dtype=float)


def constant_function(c, d=None):
    return HolderFunction(
        lambda x: np.full(x.shape[:-1], float(c)), 1.0, 0.0, d=d
    )


class WeierstrassFunction(HolderFunction):
    """W(x) = sum_{j=0}^{12} 2^(-j g) cos(2 pi 2^j <xi_j, x>).

    The truncation at j = 12 is part of the definition, so the function is
    exactly reproducible from (gamma, seed). The xi_j are fixed unit
    directions drawn from the seeded generator. Since each term moves by
    at most min(2 pi 2^j |x - y|, 2), the Hoelder constant
    13 * 2^(1-g) * (2 pi)^g is a valid declared bound for every scale.
    """

    LEVELS = 13

    def __init__(self, gamma, d, seed=0):
        rng = np.random.default_rng(seed)
        xi = rng.normal(size=(self.LEVELS, d))
        xi /= np.linalg.norm(xi, axis=1, keepdims=True)
        self.xi = xi
        self.seed = int(seed)
        weights = 2.0 ** (-gamma * np.arange(self.LEVELS))
        freqs = 2.0 ** np.arange(self.LEVELS)

        def fn(x):
            # one buffer, in the order 2 pi <xi_j, x>, * 2^j, cos, * weight
            terms = np.tensordot(x, xi, axes=([-1], [1]))
            terms *= 2.0 * math.pi
            terms *= freqs
            np.cos(terms, out=terms)
            terms *= weights
            return np.sum(terms, axis=-1)

        constant = self.LEVELS * 2.0 ** (1 - gamma) * (2 * math.pi) ** gamma
        super().__init__(fn, gamma, constant, d=d)


class SmoothMap:
    """F: R^m -> R^d with first derivatives, analytic or finite-difference.

    `eta` declares the Hoelder exponent of DF (C^{1,eta} data).
    """

    def __init__(self, fn, m, d, jacobian=None, eta=1.0, fd_step=1e-6):
        self._fn = fn
        self.m = int(m)
        self.d = int(d)
        self._jac = jacobian
        self.eta = float(eta)
        self._h = float(fd_step)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(self._fn(x), dtype=float)
        if out.shape != x.shape[:-1] + (self.d,):
            raise ValueError("map output has wrong shape")
        return out

    def jacobian(self, x):
        """(..., d, m) derivative matrix at x."""
        x = np.asarray(x, dtype=float)
        if self._jac is not None:
            return np.asarray(self._jac(x), dtype=float)
        cols = []
        for j in range(self.m):
            e = np.zeros(self.m)
            e[j] = self._h
            cols.append((self(x + e) - self(x - e)) / (2 * self._h))
        return np.stack(cols, axis=-1)


def identity_map(d):
    return SmoothMap(
        lambda x: x,
        d,
        d,
        jacobian=lambda x: np.broadcast_to(np.eye(d), x.shape[:-1] + (d, d)).copy(),
        eta=1.0,
    )


# ---------------------------------------------------------------------------
# cochain base


def _memo_key(simplex):
    q = np.round(simplex.vertices / MEMO_QUANTUM) * MEMO_QUANTUM
    return (q.tobytes(), q.shape)


def _canonical_orientation(simplex):
    """Vertex-sorted representative and the sign relating it back.

    Cochains are odd under vertex transpositions, so caching on the
    sorted representative lets a face and its reversal share one entry.
    """
    rows, signs = canonical_rows(simplex.vertices[None])
    if np.array_equal(rows[0], simplex.vertices):
        return simplex, 1
    return Simplex(rows[0]), int(signs[0])


class Cochain:
    """Additive, orientation-odd evaluation on k-simplices in R^d.

    eval() accepts a Simplex, Chain, or Cube; chains split the tolerance
    across terms, cubes triangulate first. eval_with_tail() also returns
    an a posteriori error bound; with best_effort=True an exhausted
    evaluation budget yields the partial value instead of raising.

    eval_batch(pts, tols) is the one way to evaluate many simplices: it
    maps an (n, k+1, d) vertex array and n tolerances to n values and n
    tails, always best effort. Subclasses implement _eval_simplex() and
    override eval_batch() when they can do better than one memoized
    evaluation per row: zero forms, increments, zero cochains, smooth
    forms (Gaussian forms among them), combinations and coboundaries do.
    The last three take _eval_row, the one-row batch, as their
    _eval_simplex.
    """

    provenance = "smooth"

    def __init__(self, k, d, alpha, beta):
        self.k = int(k)
        self.d = int(d)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self._memo = {}
        # optional rigorous bound on sup |A| / mass_alpha, set when known
        self.alpha_norm_bound = None

    # subclasses: return (value, tail_bound, budget_exhausted), with
    # budget_exhausted = tail_bound > tol; a fourth item True marks a
    # result that every tighter tolerance would compute again unchanged
    def _eval_simplex(self, simplex, tol):
        raise NotImplementedError

    def eval_batch(self, pts, tols):
        """Values and tails on a batch, one memoized evaluation per row."""
        values = np.empty(len(pts))
        tails = np.empty(len(pts))
        for i, (row, tol) in enumerate(zip(pts, tols)):
            values[i], tails[i] = self.eval_with_tail(
                Simplex(row), tol, best_effort=True
            )
        return values, tails

    def _eval_row(self, simplex, tol):
        """_eval_simplex for classes whose eval_batch does the work."""
        values, tails = self.eval_batch(simplex.vertices[None], np.array([tol]))
        return float(values[0]), float(tails[0]), bool(tails[0] > tol)

    def eval(self, target, tol=1e-6, best_effort=False):
        return self.eval_with_tail(target, tol, best_effort=best_effort)[0]

    def eval_with_tail(self, target, tol=1e-6, best_effort=False):
        if isinstance(target, Cube):
            target = cube_to_chain(target)
        if isinstance(target, Chain):
            terms = list(target)
            if not terms:
                return 0.0, 0.0
            weight = sum(abs(c) for c, _ in terms)
            value = 0.0
            tail = 0.0
            for c, s in terms:
                v, t = self.eval_with_tail(
                    s, tol * abs(c) / weight, best_effort=best_effort
                )
                value += c * v
                tail += abs(c) * t
            return value, tail
        simplex = target
        if simplex.k != self.k or simplex.d != self.d:
            raise ValueError(
                f"expected a {self.k}-simplex in R^{self.d}, "
                f"got k={simplex.k}, d={simplex.d}"
            )
        canon, sign = _canonical_orientation(simplex)
        key = _memo_key(canon)
        hit = self._memo.get(key)
        # an entry serves requests its tail meets and requests no tighter
        # than its own; a tighter one is recomputed and replaces it, unless
        # the entry is final, which serves every request
        if hit is None or (hit[2] > tol and tol < hit[0]):
            value, tail, _, *final = self._eval_simplex(canon, tol)
            hit = (0.0 if any(final) else tol, value, tail)
            self._memo[key] = hit
        _, value, tail = hit
        if tail > tol and not best_effort:
            raise BudgetExceededError(
                f"evaluation tail {tail:.3g} exceeds tol {tol:.3g}",
                partial=(sign * value, tail),
            )
        return sign * value, tail

    def __neg__(self):
        return combination([(-1.0, self)])

    def __add__(self, other):
        return combination([(1.0, self), (1.0, other)])

    def __sub__(self, other):
        return combination([(1.0, self), (-1.0, other)])

    def __rmul__(self, scalar):
        return combination([(float(scalar), self)])

    def to_json(self):
        return {
            "k": self.k,
            "d": self.d,
            "alpha": self.alpha,
            "beta": self.beta,
            "provenance": self.provenance,
        }


class SewnCochain(Cochain):
    """A cochain whose value is the edgewise sewing of a simplex germ.

    Subclasses implement _germ_rows(pts, vals, tol, root_diam), which
    returns the germ's values on one subdivision level of the root simplex
    together with the tails of the inner evaluations behind them, and
    declare the germ's defect exponent `germ_gamma` (and `delta_norm` when
    known). A subclass whose germ reads point data only at the vertices
    sets `vertex_fn` (see sewing.Germ) and gets its values at the level's
    vertices as `vals`; `vals` is None otherwise.
    Since the returned value is the last level sum, the summed inner tails
    of that level bound the extra error and are added to the sewing tail.
    A sew that stops at the depth cap with exact inner values (zero inner
    tail) is what any tighter tolerance would compute again, so its memo
    entry serves every request.
    """

    delta_norm = None
    vertex_fn = None

    def _germ_rows(self, pts, vals, tol, root_diam):
        raise NotImplementedError

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
            res = sew(germ, simplex, tol)
        except BudgetExceededError as exc:
            res = exc.partial
        tail = res.tail_bound + inner_tail
        return res.value, tail, tail > tol, res.depth_capped and not inner_tail


class ZeroFormCochain(Cochain):
    """A 0-form: evaluation at points. Identified with a Hoelder function."""

    def __init__(self, f):
        if not isinstance(f, HolderFunction):
            raise TypeError("0-forms are built from HolderFunction")
        d = f.d
        if d is None:
            raise ValueError("the function needs a declared ambient d")
        super().__init__(0, d, 0.0, f.gamma)
        self.f = f

    def _eval_simplex(self, simplex, tol):
        return float(self.f(simplex.vertices[0])), 0.0, False

    def eval_batch(self, pts, tols):
        return self.f(pts[:, 0, :]), np.zeros(len(pts))


class SmoothFormCochain(Cochain):
    """sum_I f_I dx^I from pointwise coefficient functions.

    Integrals are Gauss-Duffy quadratures of two orders, a coarse one per
    row (_coarse_orders; ORDER, 8, for every row here, and a rule of the
    simplex diameter for Gaussian forms) and twice that. The fine one is
    the value and their difference the tail, an estimate that holds for
    coefficients the coarse order resolves. Each row's vertices are sorted
    first (the Duffy rule is not symmetric under vertex permutations for
    k >= 2) and its sign restored at the end, so a batch is odd under
    permutations as the memo is. A row whose tail exceeds its tolerance
    is split into its edgewise children, each at tol / 2^k, and so on
    until every piece meets its share or the sewing depth cap
    DEPTH_MAX_BY_K[k] is reached, where the pieces return best effort; a
    piece also stops when its tail is rounding noise (QUAD_ROUNDING),
    which splitting cannot reduce. A row's value and tail are the sums
    over its pieces. The declared exponents default to (1, 1); pullbacks
    keep those of the sewn construction.
    """

    provenance = "smooth"
    ORDER = 8
    # at most this many quadrature points, both rules together, per chunk
    chunk_points = QUAD_CHUNK_POINTS

    def __init__(
        self, components, d, alpha=1.0, beta=1.0, provenance="smooth"
    ):
        comps = {}
        k = None
        for index_set, fn in components.items():
            idx = tuple(int(i) for i in index_set)
            if sorted(set(idx)) != list(idx):
                raise ValueError(
                    f"component index {idx} must be a strictly increasing tuple"
                )
            if idx and not (1 <= idx[0] and idx[-1] <= d):
                raise ValueError(f"component index {idx} out of range 1..{d}")
            if k is None:
                k = len(idx)
            elif len(idx) != k:
                raise ValueError("all component indices must have equal length")
            comps[idx] = fn
        if k is None:
            raise ValueError("at least one component is required")
        super().__init__(k, d, alpha, beta)
        self.components = comps
        self.provenance = provenance

    _eval_simplex = Cochain._eval_row

    def _coarse_orders(self, pts):
        """Coarse quadrature order of each row; the fine one is twice it."""
        return np.full(len(pts), self.ORDER)

    def _quadratures(self, pts):
        """Coarse and fine integrals of each row, a chunk of rows at a time.

        Rows are grouped by coarse order. A chunk holds at most chunk_points
        quadrature points of the group's two rules together, and each
        coefficient is called once per chunk and rule on the flat
        (rows * nodes, d) array of its points. A row whose rules hold more
        points than that is a chunk of its own, and its nodes are taken in
        slices of chunk_points, so no coefficient call gets more.
        """
        orders = self._coarse_orders(pts)
        fact = math.factorial(self.k)
        sums = np.zeros((2, len(pts)))
        for order in np.unique(orders):
            group = np.flatnonzero(orders == order)
            rules = [_duffy_rule(self.k, n) for n in (order, 2 * order)]
            step = max(1, self.chunk_points // sum(len(w) for _, w in rules))
            for start in range(0, group.size, step):
                idx = group[start : start + step]
                rows = pts[idx]
                edges = rows[:, 1:, :] - rows[:, :1, :]
                parts = [
                    (fn, coordinate_projection_array(rows, I))
                    for I, fn in self.components.items()
                ]
                width = max(1, self.chunk_points // len(idx))
                for out, (nodes, weights) in zip(sums, rules):
                    total = 0.0
                    for q in range(0, len(weights), width):
                        part = slice(q, q + width)
                        at = np.einsum("qk,nkd->nqd", nodes[part], edges)
                        at = (rows[:, :1, :] + at).reshape(-1, self.d)
                        for fn, dx in parts:
                            vals = np.asarray(fn(at), dtype=float)
                            vals = vals.reshape(len(idx), -1)
                            total += (vals @ weights[part]) * fact * dx
                    out[idx] = total
        return sums

    def eval_batch(self, pts, tols):
        """Quadrature values and tails, each row refined to its tolerance."""
        pts, signs = canonical_rows(pts)
        tols = np.asarray(tols, dtype=float)
        values = np.zeros(len(pts))
        tails = np.zeros(len(pts))
        owner = np.arange(len(pts))  # the row each piece belongs to
        card = EDGEWISE.card(self.k)
        cap = DEPTH_MAX_BY_K[self.k]
        for depth in range(cap + 1):
            lo, hi = self._quadratures(pts)
            err = np.abs(hi - lo)
            split = (err > tols) & (err > QUAD_ROUNDING * np.abs(hi))
            split &= depth < cap
            np.add.at(values, owner[~split], hi[~split])
            np.add.at(tails, owner[~split], err[~split])
            if not split.any():
                break
            pts = EDGEWISE.children_array(pts[split])
            owner = np.repeat(owner[split], card)
            tols = np.repeat(tols[split] / card, card)
        return signs * values, tails


def smooth_form(components, d):
    """Cochain of the smooth form sum_I f_I dx^I.

    `components` maps strictly increasing 1-based index tuples (matching
    x1..xd) to coefficient callables on (..., d) point arrays. Constants
    may be given as plain numbers.
    """
    comps = {}
    for idx, fn in components.items():
        if np.isscalar(fn):
            c = float(fn)
            comps[tuple(idx)] = (lambda cc: lambda x: np.full(x.shape[:-1], cc))(c)
        else:
            comps[tuple(idx)] = fn
    return SmoothFormCochain(comps, d)


class IncrementCochain(Cochain):
    """The exact 1-form dg of a Hoelder function: A([a, b]) = g(b) - g(a).

    Exactly additive and closed, so (alpha, beta) = (gamma, infinity); the
    declared Hoelder constant bounds the alpha-norm.
    """

    provenance = "coboundary"

    def __init__(self, g):
        if g.d is None:
            raise ValueError("the function needs a declared ambient d")
        super().__init__(1, g.d, g.gamma, math.inf)
        self.g = g
        self.alpha_norm_bound = g.constant

    def _eval_simplex(self, simplex, tol):
        v = simplex.vertices
        return float(self.g(v[1]) - self.g(v[0])), 0.0, False

    def eval_batch(self, pts, tols):
        return self.g(pts[:, 1, :]) - self.g(pts[:, 0, :]), np.zeros(len(pts))


def increment_form(g):
    return IncrementCochain(g)


class CombinationCochain(Cochain):
    """A fixed linear combination of cochains of common (k, d)."""

    def __init__(self, terms, alpha, beta, provenance):
        terms = [(float(c), a) for c, a in terms]
        if not terms:
            raise ValueError("empty combination")
        k, d = terms[0][1].k, terms[0][1].d
        for _, a in terms:
            if (a.k, a.d) != (k, d):
                raise ValueError("combination terms must share (k, d)")
        super().__init__(k, d, alpha, beta)
        self.terms = terms
        self.provenance = provenance
        bounds = [a.alpha_norm_bound for _, a in terms]
        if all(b is not None for b in bounds):
            self.alpha_norm_bound = sum(
                abs(c) * b for (c, _), b in zip(terms, bounds)
            )

    _eval_simplex = Cochain._eval_row

    def eval_batch(self, pts, tols):
        """Term batches at tolerance shares proportional to |c|."""
        values = np.zeros(len(pts))
        tails = np.zeros(len(pts))
        weight = sum(abs(c) for c, _ in self.terms)
        for c, a in self.terms:
            if c == 0.0:
                continue
            v, t = a.eval_batch(pts, np.asarray(tols) * abs(c) / weight)
            values += c * v
            tails += abs(c) * t
        return values, tails


class ZeroCochain(Cochain):
    """The identically zero k-cochain (exact, closed, norm zero)."""

    def __init__(self, k, d, alpha=1.0, beta=math.inf, provenance="smooth"):
        super().__init__(k, d, alpha, beta)
        self.provenance = provenance
        self.alpha_norm_bound = 0.0

    def _eval_simplex(self, simplex, tol):
        return 0.0, 0.0, False

    def eval_batch(self, pts, tols):
        return np.zeros(len(pts)), np.zeros(len(pts))


def combination(terms, alpha=None, beta=None, provenance=None):
    alpha = alpha if alpha is not None else min(a.alpha for _, a in terms)
    beta = beta if beta is not None else min(a.beta for _, a in terms)
    provenance = provenance or terms[0][1].provenance
    return CombinationCochain(terms, alpha, beta, provenance)


# ---------------------------------------------------------------------------
# products, coboundary, wedges


def _inner_tols(pts, tol, root_diam):
    """Tolerances for inner evaluations on the rows of one germ batch.

    A row gets a quarter of tol times its squared relative diameter, so
    the shares shrink geometrically with the subdivision level.
    """
    return tol * 0.25 * np.minimum(1.0, (diameter_array(pts) / root_diam) ** 2)


class ProductCochain(SewnCochain):
    """Young product f * A sewn from the germ mu_sigma(f) A(sigma).

    mu is the vertex average or the barycenter evaluation; the sewn limit
    is rule independent. Requires alpha + gamma > 1; the result carries
    (alpha, (alpha + gamma - 1) ^ beta) and the germ's defect exponent is
    gamma + k - 1 + alpha. Inner evaluations of A use a geometrically
    shrinking share of the tolerance; their total is folded into the
    reported tail. Under the vertex-average rule the germ reads f only at
    the vertices, and when A is an increment dg, A(sigma) = g(v_1) - g(v_0)
    reads g only there: those functions make up the vertex function.
    """

    provenance = "product"
    RULES = ("vertex_average", "barycenter")

    def __init__(self, f, a, rule="vertex_average"):
        # product() builds every product through here, shortcuts included
        if rule not in self.RULES:
            raise ValueError(f"rule must be one of {self.RULES}")
        if f.gamma + a.alpha <= 1:
            raise ExponentViolationError(
                f"product needs alpha + gamma > 1, "
                f"got {a.alpha} + {f.gamma} = {a.alpha + f.gamma}"
            )
        super().__init__(
            a.k, a.d, a.alpha, min(a.alpha + f.gamma - 1, a.beta)
        )
        self.f = f
        self.base = a
        self.rule = rule
        self.germ_gamma = f.gamma + a.k - 1 + a.alpha
        if f.constant and a.alpha_norm_bound is not None:
            self.delta_norm = f.constant * a.alpha_norm_bound
        # the columns of the vertex values that hold f and g, if any
        self._vertex_parts = []
        self._f_col = self._g_col = None
        if rule == "vertex_average":
            self._f_col = len(self._vertex_parts)
            self._vertex_parts.append(f)
        if isinstance(a, IncrementCochain):
            self._g_col = len(self._vertex_parts)
            self._vertex_parts.append(a.g)
        if self._vertex_parts:
            self.vertex_fn = self._at_vertices

    def _at_vertices(self, x):
        return np.stack([fn(x) for fn in self._vertex_parts], axis=-1)

    def _germ_rows(self, pts, vals, tol, root_diam):
        if self._f_col is None:
            mu = self.f(pts.mean(axis=1))
        else:
            mu = vals[..., self._f_col].mean(axis=1)
        if self._g_col is None:
            a_vals, tails = self.base.eval_batch(
                pts, _inner_tols(pts, tol, root_diam)
            )
            return mu * a_vals, np.abs(mu) * tails
        g = vals[..., self._g_col]
        return mu * (g[:, 1] - g[:, 0]), np.zeros(len(pts))


def product(f, a, rule="vertex_average"):
    """The Young product cochain f * A (Hoelder f, rough A).

    Products with 0-forms are pointwise; a declared Hoelder constant of
    zero certifies that f is constant (or that A vanishes), which enables
    exact closed forms.
    """
    if a.k == 0:
        # the composite constant is a declared hint, not a derived bound
        g = HolderFunction(
            lambda x, f=f, a=a: f(x) * a.f(x),
            min(f.gamma, a.f.gamma),
            f.constant + a.f.constant,
            d=a.d,
        )
        return ZeroFormCochain(g)
    prod = ProductCochain(f, a, rule)  # checks the rule and the exponents
    if a.alpha_norm_bound == 0.0:
        return ZeroCochain(a.k, a.d, a.alpha, prod.beta, provenance="product")
    if f.constant == 0.0:
        c = float(f(np.zeros(a.d)))
        if c == 0.0:
            return ZeroCochain(
                a.k, a.d, a.alpha, prod.beta, provenance="product"
            )
        return combination(
            [(c, a)], alpha=a.alpha, beta=prod.beta, provenance="product"
        )
    return prod


class CoboundaryCochain(Cochain):
    """dA(omega) := A evaluated on the boundary chain of omega."""

    provenance = "coboundary"

    def __init__(self, a):
        if a.k >= a.d:
            raise ValueError("coboundary needs k < d")
        super().__init__(a.k + 1, a.d, a.beta, math.inf)
        self.base = a
        if isinstance(a, ZeroFormCochain):
            # |f(b) - f(a)| <= constant * |b - a|^gamma certifies the norm
            self.alpha_norm_bound = a.f.constant
        elif a.alpha_norm_bound == 0.0:
            self.alpha_norm_bound = 0.0

    _eval_simplex = Cochain._eval_row

    def eval_batch(self, pts, tols):
        """Signed face batches, each at an even share of the tolerance."""
        pts = np.asarray(pts, dtype=float)
        n_faces = pts.shape[1]
        values = np.zeros(len(pts))
        tails = np.zeros(len(pts))
        for i in range(n_faces):
            v, t = self.base.eval_batch(
                np.delete(pts, i, axis=1), np.asarray(tols) / n_faces
            )
            values += (-1.0) ** i * v
            tails += t
        return values, tails


def coboundary(a):
    return CoboundaryCochain(a)


def wedge_d(f, a):
    """The rough wedge df ^ A := d(f * A) - f * dA.

    Needs alpha + gamma > 1 and beta + gamma > 1; the result carries
    ((alpha + gamma - 1) ^ beta, beta + gamma - 1). For a 0-form the
    function's Hoelder exponent stands in for alpha, since the mass
    condition on points is vacuous.
    """
    eff_alpha = a.beta if a.k == 0 else a.alpha
    alpha_t = eff_alpha + f.gamma - 1
    beta_t = a.beta + f.gamma - 1
    if alpha_t <= 0:
        raise ExponentViolationError(
            f"wedge needs alpha + gamma > 1, got {eff_alpha} + {f.gamma}"
        )
    if beta_t <= 0:
        raise ExponentViolationError(
            f"wedge needs beta + gamma > 1, got {a.beta} + {f.gamma}"
        )
    left = coboundary(product(f, a))
    right = product(f, coboundary(a))
    return combination(
        [(1.0, left), (-1.0, right)],
        alpha=min(alpha_t, a.beta),
        beta=beta_t,
        provenance="wedge",
    )


def zust_form(g0, gs, a):
    """g0 * dg1 ^ ... ^ dgn ^ A by iterated wedges and a final product.

    Requires alpha + sum gamma_i > n and beta + sum gamma_i > n - 1, with
    the first failing inequality named in the error.
    """
    gs = list(gs)
    n = len(gs)
    total = g0.gamma + sum(g.gamma for g in gs)
    eff_alpha = a.beta if a.k == 0 else a.alpha
    if eff_alpha + total <= n:
        raise ExponentViolationError(
            f"need alpha + sum gamma_i > n: {eff_alpha} + {total} <= {n}"
        )
    if a.beta + total <= n - 1:
        raise ExponentViolationError(
            f"need beta + sum gamma_i > n - 1: {a.beta} + {total} <= {n - 1}"
        )
    cur = a
    for g in reversed(gs):
        cur = wedge_d(g, cur)
    return product(g0, cur)


# ---------------------------------------------------------------------------
# pullback


class PullbackCochain(SewnCochain):
    """F^*A sewn from the germ sigma -> A([F(v_0), ..., F(v_k)]).

    F is the vertex function, so sewing maps each lattice point once.
    """

    provenance = "pullback"

    def __init__(self, f_map, a):
        if a.alpha * (1 + f_map.eta) <= 1:
            raise ExponentViolationError(
                f"pullback needs alpha > 1/(1+eta): alpha={a.alpha}, "
                f"eta={f_map.eta}"
            )
        if f_map.d != a.d:
            raise ValueError("map target dimension must match the cochain")
        beta_t = min(a.alpha * (1 + f_map.eta) - 1, a.beta)
        super().__init__(a.k, f_map.m, a.alpha, beta_t)
        self.f_map = f_map
        self.base = a
        self.germ_gamma = min(
            a.k - 1 + a.alpha * (1 + f_map.eta),
            a.k + a.beta * (1 + f_map.eta),
        )
        self.vertex_fn = f_map

    def _germ_rows(self, pts, vals, tol, root_diam):
        return self.base.eval_batch(vals, _inner_tols(pts, tol, root_diam))


def _pulled_coefficient(f_map, components, J):
    """u -> sum_I f_I(F(u)) det DF(u)[I, J], the du^J coefficient of F^*A."""
    cols = [j - 1 for j in J]

    def coefficient(u):
        x = f_map(u)
        jac = f_map.jacobian(u)[..., cols]
        out = 0.0
        for I, fn in components.items():
            minor = jac[..., [i - 1 for i in I], :]
            out = out + np.asarray(fn(x), dtype=float) * np.linalg.det(minor)
        return out

    return coefficient


def pullback(f_map, a):
    """F^*A for a C^{1,eta} map F: R^m -> R^d and a k-cochain A on R^d.

    When A is a smooth form sum_I f_I dx^I and F has an analytic Jacobian,
    F^*A is the smooth form sum_J sum_I (f_I o F) det DF[I, J] du^J on R^m
    (change of variables), which needs no sewing. Otherwise it is the sewn
    PullbackCochain. Both carry the sewn
    construction's exponents and provenance.
    """
    pulled = PullbackCochain(f_map, a)  # checks the exponents and dimensions
    # for k > m no du^J exists, and no k-simplex in R^m to evaluate on
    if (
        not isinstance(a, SmoothFormCochain)
        or f_map._jac is None
        or a.k > f_map.m
    ):
        return pulled
    components = {
        J: _pulled_coefficient(f_map, a.components, J)
        for J in itertools.combinations(range(1, f_map.m + 1), a.k)
    }
    return SmoothFormCochain(
        components, f_map.m, pulled.alpha, pulled.beta, pulled.provenance
    )


# ---------------------------------------------------------------------------
# Stokes


def stokes_residual(a, omega, tol=1e-6):
    """|sewn-coboundary value - direct boundary evaluation| on omega.

    The left path sews the germ tau -> dA(tau) = A(boundary tau) over
    subdivisions of omega (exercising cancellation across internal faces),
    one coboundary batch per level with each face at inner/(k+2); the
    right path evaluates A once on each boundary face. For an additive A
    both converge to A(boundary omega), so the residual is error-sized.
    """
    inner = tol / 500.0
    da = coboundary(a)

    def batch(pts):
        return da.eval_batch(pts, np.full(len(pts), inner))[0]

    germ = FunctionGerm(batch, gamma=a.k + 2.0)
    try:
        # the germ is additive up to evaluation noise, so shallow depth
        # suffices and keeps accumulated inner error small
        res = sew(germ, omega, tol, depth_max=5)
        left = res.value
    except (BudgetExceededError, NoConvergenceError) as exc:
        left = exc.partial.value
    right = a.eval(boundary(omega), tol, best_effort=True)
    return abs(left - right)


# ---------------------------------------------------------------------------
# norms


@dataclass
class NormReport:
    """Banded sup estimates of the (alpha, beta) norms of a cochain."""

    alpha: float
    beta: float
    alpha_norm: float
    alpha_norm_diam: float
    beta_norm: float
    ratio: float
    n_samples: int
    ecc_cap: float
    per_band: list = field(default_factory=list)

    def to_json(self):
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "alpha_norm": self.alpha_norm,
            "alpha_norm_diam": self.alpha_norm_diam,
            "beta_norm": self.beta_norm,
            "ratio": self.ratio,
            "n_samples": self.n_samples,
            "ecc_cap": self.ecc_cap,
            "per_band": list(self.per_band),
        }

    def csv_rows(self):
        header = ["band", "count", "sup_mass", "sup_diam", "sup_boundary"]
        rows = [header]
        for rec in self.per_band:
            rows.append(
                [
                    f"{rec['band'][0]:.6g}..{rec['band'][1]:.6g}",
                    rec["count"],
                    rec["sup_mass"],
                    rec["sup_diam"],
                    rec["sup_boundary"],
                ]
            )
        return rows


def norm_estimate(a, alpha, beta, region, spec, tol=1e-7):
    """Empirical per-band sup of |A|/mass_alpha, |A|/diam^(k-1+alpha),
    and |A(boundary omega)|/mass_beta over sampled simplices.

    Suprema only grow with more samples (prefix-stable streams). The
    boundary part needs k+1 <= d and is zero otherwise.
    """
    k = a.k
    per_band = []
    sup_mass = 0.0
    sup_diam = 0.0
    sup_bdry = 0.0
    n = 0
    banded = sampling.sample_band_simplices(region, k, spec)
    bdry_spec = replace(spec, seed=spec.seed + 1)
    banded_up = (
        sampling.sample_band_simplices(region, k + 1, bdry_spec)
        if k + 1 <= a.d
        else [(band, []) for band in spec.bands()]
    )
    for (band, samples), (_, upper) in zip(banded, banded_up):
        b_mass = b_diam = b_bdry = 0.0
        for s in samples:
            n += 1
            v = a.eval(s, tol, best_effort=True)
            b_mass = max(b_mass, abs(v) / mass_value(s, alpha))
            b_diam = max(b_diam, abs(v) / diameter(s) ** (k - 1 + alpha))
        for w in upper:
            n += 1
            v = a.eval(boundary(w), tol, best_effort=True)
            b_bdry = max(b_bdry, abs(v) / mass_value(w, beta))
        sup_mass = max(sup_mass, b_mass)
        sup_diam = max(sup_diam, b_diam)
        sup_bdry = max(sup_bdry, b_bdry)
        per_band.append(
            {
                "band": list(band),
                "count": len(samples) + len(upper),
                "sup_mass": b_mass,
                "sup_diam": b_diam,
                "sup_boundary": b_bdry,
            }
        )
    return NormReport(
        alpha=alpha,
        beta=beta,
        alpha_norm=sup_mass,
        alpha_norm_diam=sup_diam,
        beta_norm=sup_bdry,
        ratio=sup_mass / sup_diam if sup_diam > 0 else float("nan"),
        n_samples=n,
        ecc_cap=spec.ecc_cap,
        per_band=per_band,
    )


def flat_norm_upper(s1, s2, alpha, beta):
    """Constructive upper bound on the (alpha, beta)-flat distance.

    Interpolates one vertex at a time; each swap of v_i to v'_i costs
    k r^(k-1) mu_i^alpha + r^k mu_i^beta with r the radius of the minimal
    ball enclosing all vertices of both simplices.
    """
    if (s1.k, s1.d) != (s2.k, s2.d):
        raise ValueError("simplices must share (k, d)")
    k = s1.k
    pts = np.vstack([s1.vertices, s2.vertices])
    _, r = minimal_enclosing_ball(pts)
    mu = np.linalg.norm(s1.vertices - s2.vertices, axis=1)
    total = 0.0
    for m in mu:
        if m > 0:
            total += k * r ** (k - 1) * m**alpha + r**k * m**beta
    return total


# ---------------------------------------------------------------------------
# pullback regularity probe


@dataclass
class RegularityProbe:
    """Fitted scale exponent of the affine-interpolant pullback error."""

    exponent: float
    gamma_bar: float
    diameters: list
    deviations: list

    def to_json(self):
        return {
            "exponent": self.exponent,
            "gamma_bar": self.gamma_bar,
            "diameters": list(self.diameters),
            "deviations": list(self.deviations),
        }


def pullback_regularity_probe(f_map, k, alpha, beta, region, samples):
    """Exponent of max_children |F^sigma_* child - F_* child|_(alpha,beta).

    F^sigma is the affine interpolant of F on sigma. For each sampled
    sigma the children are one edgewise step; the flat-norm upper bound
    of the difference is regressed against diam(sigma) in log-log form
    and compared to gamma_bar = (k-1+alpha(1+eta)) ^ (k+beta(1+eta)).
    `samples` is a total sample count or a full SamplerSpec.
    """
    from . import fitting

    if isinstance(samples, int):
        spec = sampling.SamplerSpec(
            samples_per_band=max(1, samples // 4), n_bands=4
        )
    else:
        spec = samples
    gamma_bar = min(
        k - 1 + alpha * (1 + f_map.eta), k + beta * (1 + f_map.eta)
    )
    diams = []
    devs = []
    for _, samples in sampling.sample_band_simplices(region, k, spec):
        for s in samples:
            verts = s.vertices
            children = iterate_array(EDGEWISE, verts[None], 1)
            # barycentric coordinates of child vertices within sigma
            flat = children.reshape(-1, s.d)
            aug = np.vstack([verts.T, np.ones(k + 1)])
            rhs = np.vstack([flat.T, np.ones(flat.shape[0])])
            lam, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
            f_verts = f_map(verts)
            interp = (lam.T @ f_verts).reshape(
                children.shape[:-1] + (f_map.d,)
            )
            worst = 0.0
            for child, child_i in zip(children, interp):
                worst = max(
                    worst,
                    flat_norm_upper(
                        Simplex(f_map(child)),
                        Simplex(child_i),
                        alpha,
                        beta,
                    ),
                )
            diams.append(diameter(s))
            devs.append(worst)
    diams = np.asarray(diams)
    devs = np.asarray(devs)
    floor = 1e-13 * max(1.0, devs.max() if devs.size else 0.0)
    usable = devs > floor
    if usable.sum() < 3:
        raise DegenerateFitError(
            "affine interpolant matches the map at all sampled scales",
            floor_level=int(usable.sum()),
        )
    slope = fitting.loglog_slope(diams[usable], devs[usable])
    return RegularityProbe(
        exponent=float(slope),
        gamma_bar=gamma_bar,
        diameters=diams.tolist(),
        deviations=devs.tolist(),
    )


# ---------------------------------------------------------------------------
# catalog of named analytic test forms


def _build_catalog():
    return {
        "dx": lambda: smooth_form({(1,): 1.0}, 2),
        "dy": lambda: smooth_form({(2,): 1.0}, 2),
        "x_dy": lambda: smooth_form({(2,): lambda p: p[..., 0]}, 2),
        "y_dx": lambda: smooth_form({(1,): lambda p: p[..., 1]}, 2),
        "sin_y_dx": lambda: smooth_form(
            {(1,): lambda p: np.sin(p[..., 1])}, 2
        ),
        "half_rot": lambda: smooth_form(
            {
                (1,): lambda p: -0.5 * p[..., 1],
                (2,): lambda p: 0.5 * p[..., 0],
            },
            2,
        ),
        "area": lambda: smooth_form({(1, 2): 1.0}, 2),
        "x_area": lambda: smooth_form({(1, 2): lambda p: p[..., 0]}, 2),
        "dz3": lambda: smooth_form({(3,): 1.0}, 3),
        "xz_dy": lambda: smooth_form(
            {(2,): lambda p: p[..., 0] * p[..., 2]}, 3
        ),
        "twist_area": lambda: smooth_form(
            {
                (1, 2): lambda p: p[..., 2],
                (1, 3): lambda p: np.cos(p[..., 1]),
                (2, 3): lambda p: p[..., 0],
            },
            3,
        ),
    }


_CATALOG = _build_catalog()


def catalog_names():
    return sorted(_CATALOG)


def catalog_form(name):
    """A fresh cochain for a named analytic test form."""
    try:
        return _CATALOG[name]()
    except KeyError:
        raise KeyError(
            f"unknown catalog form {name!r}; available: {catalog_names()}"
        ) from None
