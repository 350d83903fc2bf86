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
the partial value with its honest tail.

Every evaluation goes through one protocol: eval_batch(pts, tols) takes an
(n, k+1, d) vertex array with one tolerance per row and returns values and
tails, best effort. A simplex is the one-term chain [(1, simplex)], a cube
its triangulation, and a chain one eval_batch of its simplices. The
default eval_batch computes each vertex-sorted row by _eval_simplex (sewn
and Whitney cochains) through a per-cochain memo keyed on the row's exact
bytes and the tolerance, so a cached answer is the fresh one at that
tolerance. 0-forms override it with point values (zero tails), smooth
forms, Gaussian forms among them, with adaptive two-order quadrature
(estimated tails), and sums of parts (combinations, signed faces,
chains, staircase boxes) go through linear_sum, the one tolerance split:
each part at tol / sum |c_j|, its tail counted |c_j| times. Smooth forms
and coboundaries sort each row's vertices as the memo does and restore
its sign, so every cochain is odd under permutations row by row. Exact
forms need no class of their own: the increment form dg is the
coboundary of the 0-form g, and the zero cochain is a combination whose
coefficients are all zero.

Germs (sewing.py) are batch functions on vertex arrays. Every sewn
cochain is a SewnCochain, a sum of terms c u dv_1 ^ ... ^ dv_k with u and
each v_i products of point functions, sewn from Zust's vertex germ
c mu_sigma(u) det[v_i(p_l) - v_i(p_0)] / k!, which reads each function
once per lattice point. Cochains that can be read at vertices (0-forms,
smooth and Gaussian forms, combinations, coboundaries by d(u dv...) =
du ^ dv..., sewn cochains) declare such vertex_terms, so products, wedges
and pullbacks rewrite terms and never evaluate a cochain inside a germ.
Stokes residuals need no germ: A is additive, so dA summed over a
subdivision of omega is A on the subdivided boundary, one chain
evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import sampling
from .errors import BudgetExceededError, ExponentViolationError
from .geometry import (
    Chain,
    Cube,
    Simplex,
    boundary,
    canonical_rows,
    coordinate_projection_array,
    cube_to_chain,
    diameter,
    mass_value,
    minimal_enclosing_ball,
)
from .sewing import DEPTH_MAX_BY_K, FunctionGerm, sew
from .subdivision import EDGEWISE, gauss_legendre_boxes, iterate_array

# quadrature points per coefficient call of a smooth-form quadrature; a
# Gaussian form in d = 3 divides it by N - 1, since there each point's mode
# sum holds (N-1)^2 terms, not N - 1
QUAD_CHUNK_POINTS = 1 << 13
# a quadrature tail within this share of the value is rounding noise,
# which splitting the simplex does not reduce
QUAD_ROUNDING = 1e-13
# edgewise level of the boundary pieces on which stokes_residual evaluates A
STOKES_LEVEL = 5


@lru_cache(maxsize=None)
def _duffy_rule(k, order):
    """Nodes (Q, k) in the unit simplex and weights summing to 1/k!.

    The tensor Gauss-Legendre rule on the unit cube, collapsed onto the
    simplex by t_j = u_1...u_j (1 - u_{j+1}), t_k = u_1...u_k, whose
    Jacobian u_1^(k-1) u_2^(k-2) ... u_{k-1} scales the weights; exactness
    degree grows with `order` in every variable. Cached per (k, order),
    of which callers use few (k <= 3, orders up to 48); the arrays are
    read-only so no caller can change the cached rule.
    """
    if not 1 <= k <= 3:
        raise ValueError("quadrature rules cover 1 <= k <= 3")
    u, weights = gauss_legendre_boxes(np.zeros((1, k)), np.ones((1, k)), order)
    nodes = np.cumprod(u, axis=1)
    nodes[:, :-1] *= 1 - u[:, 1:]
    for j in range(k - 1):
        weights = weights * u[:, j] ** (k - 1 - j)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


# ---------------------------------------------------------------------------
# scalar ingredients


class HolderFunction:
    """A scalar function with declared Hoelder exponent and constant.

    The callable must vectorize over leading axes of an (..., d) array.
    A declared constant must be finite and nonnegative, None if unknown:
    product germs turn it into the delta-norm behind the certified tail.
    """

    def __init__(self, fn, gamma, constant, d=None):
        if not (0 < gamma <= 1):
            raise ValueError("gamma must lie in (0, 1]")
        if constant is not None:
            constant = float(constant)
            if not 0 <= constant < math.inf:
                raise ValueError("constant must be finite and nonnegative")
        self._fn = fn
        self.gamma = float(gamma)
        self.constant = constant
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
    """F: R^m -> R^d, with its analytic Jacobian when one is given.

    `eta` declares the Hoelder exponent of DF (C^{1,eta} data). Without a
    Jacobian, pullbacks by F are sewn, which reads F only at vertices.
    """

    def __init__(self, fn, m, d, jacobian=None, eta=1.0):
        self._fn = fn
        self.m = int(m)
        self.d = int(d)
        self._jac = jacobian
        self.eta = float(eta)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(self._fn(x), dtype=float)
        if out.shape != x.shape[:-1] + (self.d,):
            raise ValueError("map output has wrong shape")
        return out

    def jacobian(self, x):
        """(..., d, m) analytic derivative matrix at x."""
        if self._jac is None:
            raise ValueError("this map has no analytic Jacobian")
        return np.asarray(self._jac(np.asarray(x, dtype=float)), dtype=float)


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


def linear_sum(coeffs, parts, tols):
    """sum_j c_j X_j row by row: the one tolerance split of a sum.

    parts(share) yields the (values, tails) of the X_j in the order of
    coeffs, each at tolerances share = tols / sum |c_j|; the tails of X_j
    count |c_j| times, so they add up to at most tols when every part meets
    its share. Callers leave out zero coefficients; an all-zero sum is zero.
    """
    values, tails = np.zeros((2,) + np.shape(tols))
    weight = sum(abs(c) for c in coeffs)
    if weight:
        for c, (v, t) in zip(coeffs, parts(np.asarray(tols) / weight)):
            values += c * v
            tails += abs(c) * t
    return values, tails


class Cochain:
    """Additive, orientation-odd evaluation on k-simplices in R^d.

    eval() accepts a Simplex, Chain, or Cube, each as one chain: a simplex
    is [(1, simplex)] and a cube its triangulation. A chain is one
    eval_batch of its simplices summed by linear_sum, which raises once if
    the summed tail exceeds tol. eval_with_tail() also returns an a
    posteriori error bound; with best_effort=True an exhausted evaluation
    budget yields the partial value instead of raising.

    eval_batch(pts, tols), always best effort, is the one way a cochain is
    evaluated. The default memoizes _eval_simplex() on each vertex-sorted
    row, keyed on its exact bytes and the tolerance; classes that evaluate
    whole batches (closed forms, smooth forms, sums of parts) override
    eval_batch() and need no _eval_simplex(). A cochain that can be read at
    vertices declares the SewnCochain terms it sums as vertex_terms.
    """

    provenance = "smooth"
    vertex_terms = None

    def __init__(self, k, d, alpha, beta):
        self.k = int(k)
        self.d = int(d)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self._memo = {}
        # optional rigorous bound on sup |A| / mass_value, set when known
        self.alpha_norm_bound = None

    # subclasses using the default eval_batch: return (value, tail_bound,
    # budget_exhausted), with budget_exhausted = tail_bound > tol
    def _eval_simplex(self, simplex, tol):
        raise NotImplementedError

    def eval_batch(self, pts, tols):
        """Values and tails on a batch, one memoized sorted row at a time.

        An entry is the (value, tail) of one sorted row at one tolerance
        and answers only that row at that tolerance.
        """
        rows, signs = canonical_rows(pts)
        values = np.empty(len(rows))
        tails = np.empty(len(rows))
        for i, (row, tol) in enumerate(zip(rows, tols)):
            key = (row.tobytes(), float(tol))
            hit = self._memo.get(key)
            if hit is None:
                hit = self._eval_simplex(Simplex(row), tol)[:2]
                self._memo[key] = hit
            values[i], tails[i] = hit
        return signs * values, tails

    def eval(self, target, tol=1e-6, best_effort=False):
        return self.eval_with_tail(target, tol, best_effort=best_effort)[0]

    def eval_with_tail(self, target, tol=1e-6, best_effort=False):
        if isinstance(target, Cube):
            target = cube_to_chain(target)
        terms = list(target) if isinstance(target, Chain) else [(1, target)]
        if not terms:
            return 0.0, 0.0
        simplex = terms[0][1]
        if simplex.k != self.k or simplex.d != self.d:
            raise ValueError(
                f"expected a {self.k}-simplex in R^{self.d}, "
                f"got k={simplex.k}, d={simplex.d}"
            )
        pts = np.stack([s.vertices for _, s in terms])

        def rows(share):
            return zip(*self.eval_batch(pts, np.full(len(pts), share)))

        coeffs = [c for c, _ in terms]
        value, tail = map(float, linear_sum(coeffs, rows, tol))
        if tail > tol and not best_effort:
            raise BudgetExceededError(
                f"evaluation tail {tail:.3g} exceeds tol {tol:.3g}",
                partial=(value, tail),
            )
        return value, tail

    def __neg__(self):
        return combination([(-1.0, self)])

    def __add__(self, other):
        return combination([(1.0, self), (1.0, other)])

    def __sub__(self, other):
        return combination([(1.0, self), (-1.0, other)])

    def __rmul__(self, scalar):
        return combination([(float(scalar), self)])


def _gamma(fns):
    """Exponent of a product of point functions: its least factor's; any
    point function but a HolderFunction is Lipschitz on bounded sets."""
    return min([f.gamma for f in fns if isinstance(f, HolderFunction)] + [1.0])


class SewnCochain(Cochain):
    """sum_j c_j u_j dv_j1 ^ ... ^ dv_jk, sewn from Zust's vertex germ.

    `terms` lists (c, u, vs): a coefficient, the factors of u (a tuple of
    point functions, empty for u = 1), and one such tuple per v_i. The
    germ on [p_0, ..., p_k] is sum_j c_j mu(u_j) det[v_ji(p_l) - v_ji(p_0)]
    / k! (i, l = 1..k), mu the vertex average; vertex_fn evaluates each
    distinct factor once per lattice point. germ_gamma is the least over
    the terms of gamma(u) + sum_i gamma(v_i). No germ evaluates a cochain,
    so the sewing tail is the whole tail. _eval_simplex sews one sorted
    row for the memoized default eval_batch.
    """

    def __init__(self, k, d, alpha, beta, terms, provenance, delta_norm=None):
        super().__init__(k, d, alpha, beta)
        self.vertex_terms = terms
        self.provenance = provenance
        self.delta_norm = delta_norm
        self.germ_gamma = min(
            (_gamma(u) + sum(map(_gamma, vs)) for _, u, vs in terms),
            default=math.inf,
        )
        fns = [fn for _, u, vs in terms for fn in itertools.chain(u, *vs)]
        col = {fn: j for j, fn in enumerate(dict.fromkeys(fns))}
        self._fns = list(col)
        self._slots = [
            (c / math.factorial(k), *([col[f] for f in g] for g in (u, *vs)))
            for c, u, vs in terms
        ]

    def vertex_fn(self, x):
        """The distinct factors at (..., d) points, one per last-axis slot."""
        flat = x.reshape(-1, x.shape[-1])
        out = np.empty((len(flat), len(self._fns)))
        for j, fn in enumerate(self._fns):
            out[:, j] = fn(flat)
        return out.reshape(x.shape[:-1] + (len(self._fns),))

    def _germ(self, pts, vals):
        """The germ on rows pts, from vals = vertex_fn at their vertices."""

        def times(cols):  # a product of factors at the vertices, 1 for none
            out = vals[..., cols[0]] if cols else np.ones(vals.shape[:2])
            for j in cols[1:]:
                out = out * vals[..., j]
            return out

        out = np.zeros(len(pts))
        for c, u, *vs in self._slots:
            if len(vs) == 1:  # LAPACK's det rounds even a 1 x 1 matrix
                v = times(vs[0])
                det = v[:, 1] - v[:, 0]
            else:
                v = np.stack([times(cols) for cols in vs], 1)
                det = np.linalg.det(v[:, :, 1:] - v[:, :, :1])
            out += c * times(u).mean(axis=1) * det
        return out

    def _eval_simplex(self, simplex, tol):
        germ = FunctionGerm(
            self._germ,
            gamma=self.germ_gamma,
            delta_norm=self.delta_norm,
            vertex_fn=self.vertex_fn,
        )
        try:
            res = sew(germ, simplex, tol)
        except BudgetExceededError as exc:
            res = exc.partial
        return res.value, res.tail_bound, res.tail_bound > tol


def _terms(a, construction):
    if a.vertex_terms is None:
        name = type(a).__name__
        raise TypeError(f"{construction} needs vertex terms; {name} has none")
    return a.vertex_terms


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
        self.vertex_terms = [(1.0, (f,), ())]

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
    permutations as the memoized default is. A row whose tail exceeds
    its tolerance is split into its edgewise children, each at tol / 2^k,
    and so on until every piece meets its share or the sewing depth cap
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
        axis = {i: (lambda x, i=i: x[..., i - 1],) for i in range(1, d + 1)}
        self.vertex_terms = [
            (1.0, (fn,), tuple(axis[i] for i in I)) for I, fn in comps.items()
        ]

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


class CombinationCochain(Cochain):
    """A fixed linear combination of cochains of common (k, d).

    Terms with a zero coefficient add nothing to the value or to the
    alpha-norm bound, so `terms` keeps only the others; a combination
    whose coefficients are all zero is the empty one, the zero cochain,
    with bound 0.0.
    """

    def __init__(self, terms, alpha, beta, provenance):
        terms = [(float(c), a) for c, a in terms]
        if not terms:
            raise ValueError("empty combination")
        k, d = terms[0][1].k, terms[0][1].d
        for _, a in terms:
            if (a.k, a.d) != (k, d):
                raise ValueError("combination terms must share (k, d)")
        super().__init__(k, d, alpha, beta)
        self.terms = [(c, a) for c, a in terms if c]
        self.provenance = provenance
        if all(a.alpha_norm_bound is not None for _, a in self.terms):
            self.alpha_norm_bound = sum(
                (abs(c) * a.alpha_norm_bound for c, a in self.terms), 0.0
            )
        if all(a.vertex_terms is not None for _, a in self.terms):
            self.vertex_terms = [
                (c * b, u, vs)
                for c, a in self.terms
                for b, u, vs in a.vertex_terms
            ]

    def eval_batch(self, pts, tols):
        """The terms' batches, summed at the one tolerance split."""
        return linear_sum(
            [c for c, _ in self.terms],
            lambda share: (a.eval_batch(pts, share) for _, a in self.terms),
            tols,
        )


def combination(terms, alpha=None, beta=None, provenance=None):
    alpha = alpha if alpha is not None else min(a.alpha for _, a in terms)
    beta = beta if beta is not None else min(a.beta for _, a in terms)
    provenance = provenance or terms[0][1].provenance
    return CombinationCochain(terms, alpha, beta, provenance)


# ---------------------------------------------------------------------------
# products, coboundary, wedges


def product(f, a):
    """The Young product cochain f * A (Hoelder f, rough A).

    Products with 0-forms are pointwise, with no declared constant (f.C +
    g.C bounds nothing without sup |f| and sup |g|). A declared Hoelder
    constant of zero certifies that f is constant, and a declared
    alpha-norm bound of zero that A vanishes; either makes the product the
    combination c * A, with c = f(0), or c = 0 when A vanishes. Otherwise
    f joins every u of A's vertex terms: for A = dg the germ is
    mu(f) (g(p_1) - g(p_0)), with delta-norm f.C times A's bound.
    """
    if a.k == 0:
        if not isinstance(a, ZeroFormCochain):
            raise TypeError("products with 0-forms need a ZeroFormCochain")
        g = HolderFunction(
            lambda x, f=f, a=a: f(x) * a.f(x),
            min(f.gamma, a.f.gamma),
            None,
            d=a.d,
        )
        return ZeroFormCochain(g)
    if f.gamma + a.alpha <= 1:
        raise ExponentViolationError(
            f"product needs alpha + gamma > 1, "
            f"got {a.alpha} + {f.gamma} = {a.alpha + f.gamma}"
        )
    beta = min(a.alpha + f.gamma - 1, a.beta)
    if a.alpha_norm_bound == 0.0 or f.constant == 0.0:
        c = 0.0 if a.alpha_norm_bound == 0.0 else float(f(np.zeros(a.d)))
        return combination(
            [(c, a)], alpha=a.alpha, beta=beta, provenance="product"
        )
    known = f.constant and a.alpha_norm_bound is not None
    delta_norm = f.constant * a.alpha_norm_bound if known else None
    terms = [(c, (f,) + u, vs) for c, u, vs in _terms(a, "product")]
    return SewnCochain(a.k, a.d, a.alpha, beta, terms, "product", delta_norm)


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
        if a.vertex_terms is not None:  # d(u dv...) = du ^ dv..., d1 = 0
            self.vertex_terms = [
                (c, (), (u,) + vs) for c, u, vs in a.vertex_terms if u
            ]

    def eval_batch(self, pts, tols):
        """The signed faces' batches, summed at the one tolerance split.

        Each row's vertices are sorted first and its sign restored at the
        end, so a row and its reorderings sum the same faces in the same
        order, and the batch is odd under permutations.
        """
        pts, signs = canonical_rows(pts)
        faces = range(pts.shape[1])
        values, tails = linear_sum(
            [(-1.0) ** i for i in faces],
            lambda share: (
                self.base.eval_batch(np.delete(pts, i, axis=1), share)
                for i in faces
            ),
            tols,
        )
        return signs * values, tails


def coboundary(a):
    return CoboundaryCochain(a)


def increment_form(g):
    """The exact 1-form dg of a Hoelder function: dg([a, b]) = g(b) - g(a).

    It is the coboundary of the 0-form g, so it carries (gamma, infinity)
    and the declared Hoelder constant of g as its alpha-norm bound.
    """
    return CoboundaryCochain(ZeroFormCochain(g))


def wedge_d(f, a):
    """The rough wedge df ^ A := d(f * A) - f * dA.

    Needs alpha + gamma > 1 and beta + gamma > 1; the result carries
    ((alpha + gamma - 1) ^ beta, beta + gamma - 1). For a 0-form the
    function's Hoelder exponent stands in for alpha, since the mass
    condition on points is vacuous. It rewrites A's vertex terms by
    df ^ u dv_1 ^ ... = u df ^ dv_1 ^ ....
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
    if a.k == 0 and not isinstance(a, ZeroFormCochain):
        raise TypeError("wedges with 0-forms need a ZeroFormCochain")
    terms = [(c, u, ((f,),) + vs) for c, u, vs in _terms(a, "wedge")]
    if a.k >= a.d:
        raise ValueError("wedge needs k < d")
    return SewnCochain(
        a.k + 1, a.d, min(alpha_t, a.beta), beta_t, terms, "wedge"
    )


def zust_form(g0, gs, a):
    """g0 * dg1 ^ ... ^ dgn ^ A by iterated wedges and a final product.

    The wedges are built from dgn inward, then the product; the first of
    them whose exponent check fails (wedge_d or product) raises
    ExponentViolationError with its inequality; the result sews Zust's germ.
    """
    cur = a
    for g in reversed(list(gs)):
        cur = wedge_d(g, cur)
    return product(g0, cur)


# ---------------------------------------------------------------------------
# pullback


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


def _composed(fn, f_map):
    """fn o F; F is Lipschitz, so fn's exponent holds, but not its constant."""
    if isinstance(fn, HolderFunction):
        return HolderFunction(lambda u: fn(f_map(u)), fn.gamma, None, f_map.m)
    return lambda u: fn(f_map(u))


def pullback(f_map, a):
    """F^*A for a C^{1,eta} map F: R^m -> R^d and a k-cochain A on R^d.

    Needs alpha (1 + eta) > 1 and carries (alpha, (alpha (1 + eta) - 1) ^
    beta). When A is a smooth form sum_I f_I dx^I and F has an analytic
    Jacobian, F^*A is the smooth form sum_J sum_I (f_I o F) det DF[I, J]
    du^J on R^m (change of variables), which needs no sewing. Otherwise
    it rewrites A's vertex terms, each point function h becoming h o F.
    """
    if a.alpha * (1 + f_map.eta) <= 1:
        raise ExponentViolationError(
            f"pullback needs alpha > 1/(1+eta): alpha={a.alpha}, "
            f"eta={f_map.eta}"
        )
    if f_map.d != a.d:
        raise ValueError("map target dimension must match the cochain")
    beta = min(a.alpha * (1 + f_map.eta) - 1, a.beta)
    # for k > m no du^J exists, and no k-simplex in R^m to evaluate on
    if (
        isinstance(a, SmoothFormCochain)
        and f_map._jac is not None
        and a.k <= f_map.m
    ):
        components = {
            J: _pulled_coefficient(f_map, a.components, J)
            for J in itertools.combinations(range(1, f_map.m + 1), a.k)
        }
        return SmoothFormCochain(
            components, f_map.m, a.alpha, beta, "pullback"
        )
    pulled = {}  # one composition per function, shared by its terms

    def pull(fns):
        return tuple(pulled.setdefault(fn, _composed(fn, f_map)) for fn in fns)

    terms = _terms(a, "pullback")
    terms = [(c, pull(u), tuple(map(pull, vs))) for c, u, vs in terms]
    return SewnCochain(a.k, f_map.m, a.alpha, beta, terms, "pullback")


# ---------------------------------------------------------------------------
# Stokes


def subdivided_boundary(omega, levels):
    """boundary(omega) with each face cut into its level-`levels` pieces.

    Every edgewise piece keeps its face's coefficient, so a (k+1)-simplex
    gives (k+2) 2^(k levels) terms. This is the boundary chain of omega's
    level-`levels` edgewise mesh: the interior faces of the mesh cancel in
    pairs. Level 0 is boundary(omega) itself, the only level of point faces.
    """
    faces = boundary(omega)
    if levels == 0:
        return faces
    return Chain(
        (c, Simplex(piece))
        for c, face in faces
        for piece in iterate_array(EDGEWISE, face.vertices[None], levels)
    )


def stokes_residual(a, omega, tol=1e-6):
    """|A(subdivided boundary of omega) - dA(omega)|.

    The left side evaluates A once on subdivided_boundary(omega,
    STOKES_LEVEL), level 0 for a 0-form, whose point faces do not split;
    by additivity this is the sum of dA over omega's level-STOKES_LEVEL
    mesh, and linear_sum splits tol over its pieces. The right side
    evaluates dA on omega, each face at tol/(k+2). For an additive A both
    are A(boundary omega): the residual is error-sized.
    """
    chain = subdivided_boundary(omega, STOKES_LEVEL if a.k else 0)
    left = a.eval_with_tail(chain, tol, best_effort=True)[0]
    right = coboundary(a).eval(omega, tol, best_effort=True)
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


def norm_estimate(a, alpha, beta, region, spec, tol=1e-7):
    """Empirical per-band sup of |A|/mass_value, |A|/diam^(k-1+alpha),
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
