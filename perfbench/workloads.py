"""The four workloads: how each builds its inputs, runs an op and checks it.

Every input is generated from the workload seed. Ops come in passes: a
pass is a fixed-size list of ops, and a timed run repeats passes with fresh
inputs. Every op is timed `repeats` times, once on each of as many
independently built states, and counts with its median timing.
`pass_seconds` is how long one timing of a pass keeps the ops busy at the
seed commit (shared 2-vCPU x86-64 VM); a run of `--seconds` does
round(seconds / (pass_seconds * repeats)) passes, so every run of a
workload times the same number of ops and the tail percentile means the
same thing on every commit. References are computed before a pass is
timed, from closed forms or from quadrature that does not go through
sewing.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    label: str
    args: object
    reference: object = None


def _rng(seed, *stream):
    return np.random.default_rng([int(seed), *stream])


def _composite_rule(panels, order=16):
    """Nodes and weights of composite Gauss-Legendre on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.arange(panels)[:, None] / panels
    nodes = edges + 0.5 * (x + 1.0) / panels
    return nodes.ravel(), np.tile(0.5 * w / panels, panels)


def _line_integral(integrand, a, b, panels):
    """int_0^1 integrand(a + t (b - a), b - a) dt at two panel counts: (value, |difference|)."""
    vals = []
    for n in panels:
        t, w = _composite_rule(n)
        x = a + t[:, None] * (b - a)
        vals.append(float(np.sum(w * integrand(x, b - a))))
    return vals[-1], abs(vals[-1] - vals[0])


def _value_check(value, tail, tol, ref_value, ref_tail):
    """Reason the returned (value, tail) misses its reference, or None."""
    if not (math.isfinite(value) and math.isfinite(tail)):
        return "non-finite output"
    if tail > tol:
        return "tail above tol"
    if abs(value - ref_value) > tol + ref_tail:
        return "value off reference"
    return None


class Workload:
    """Interface: build() is the timed set-up; make_pass() the untimed inputs."""

    name = ""
    pass_seconds = 1.0
    repeats = 3

    def build(self, rf):
        raise NotImplementedError

    def make_pass(self, rf, seed, index, state):
        """Ops of pass `index`; `state`, never the timed one, serves the references."""
        raise NotImplementedError

    def run(self, state, op):
        raise NotImplementedError

    def check(self, op, out):
        """None when the output is right, else why it is not."""
        raise NotImplementedError

    def summary(self, out):
        """(value, tail) compared against the committed seed-commit reference."""
        return float(out[0]), float(out[1])

    def summary_tol(self):
        return self.TOL


class GaussProduct(Workload):
    """Weierstrass(0.5) times a Gaussian 1-form on short seeded segments."""

    name = "gauss_product"
    # One segment starts in each cell of a 5 x 3 grid and a run does three
    # passes. A segment needs 2^j - 1 inner Gaussian evaluations, j from 5
    # to 11, and 6 segments need 511, so the median (rank 23 of 45) lies
    # among their 18 ops, which do the same work. Pool seeds 5 to 9 fail 4,
    # 2, 3, 1 and 2 of the 15 segments, and 6 is the first whose failure
    # rate (2 of 15) matches the 3 of 24 found while sizing. An op costs
    # about 0.5 s, so it is timed once.
    CELLS = (5, 3)
    pass_seconds = 7.0
    repeats = 1
    TOL = 1e-2
    LENGTH = 0.05
    JITTER = 1e-9
    # the fields and the segment pool are part of the workload
    W_SEED = 3
    FIELD_SEED = 4
    POOL_SEED = 6

    def build(self, rf):
        w = rf.forms.WeierstrassFunction(0.5, 2, seed=self.W_SEED)
        spec = rf.gaussian.SpectralFieldSpec(d=2, theta=0.7, N=32, seed=self.FIELD_SEED)
        a = rf.gaussian.sample_form(spec, 1)
        return {"w": w, "a": a, "product": rf.forms.product(w, a)}

    def make_pass(self, rf, seed, index, state):
        w, a = state["w"], state["a"]

        def integrand(x, du):
            density = sum(a.samples[I].eval(x) * du[I[0] - 1] for I in a.samples)
            return w(x) * density

        # An op's cost grows as 2^depth, and the depth sewing stops at (and
        # whether it fails) flips under a 2e-3 move of the segment, so
        # segments drawn per seed made runs differ by 2x. A fixed pool of
        # segments, one per grid cell, keeps the mix of easy, hard and
        # failing ops the same for every seed. The seed shuffles the order
        # and moves each segment by at most JITTER: far too little to change
        # its cost, enough to give every pass its own memo keys.
        pool = np.random.default_rng(self.POOL_SEED)
        edge = 0.8 / np.array(self.CELLS)
        grid = [(i, j) for i in range(self.CELLS[0]) for j in range(self.CELLS[1])]
        starts = [0.1 + edge * (np.array(c) + pool.random(2)) for c in grid]
        angles = 2.0 * math.pi * pool.random(len(grid))
        rng = _rng(seed, 1, index)
        ops = []
        for cell in rng.permutation(len(grid)):
            start = starts[cell] + rng.uniform(-self.JITTER, self.JITTER, size=2)
            angle = angles[cell] + rng.uniform(-self.JITTER, self.JITTER) / self.LENGTH
            end = start + self.LENGTH * np.array([math.cos(angle), math.sin(angle)])
            ref = _line_integral(integrand, start, end, (64, 128))
            ops.append(Op(f"{index}.{cell}", np.stack([start, end]), ref))
        return ops

    def run(self, state, op):
        # imported per call: a traced run must see the wrapped functions
        from roughforms.geometry import Simplex

        return state["product"].eval_with_tail(Simplex(op.args), self.TOL)

    def check(self, op, out):
        return _value_check(out[0], out[1], self.TOL, *op.reference)


def _weierstrass_gradient(g, x):
    """Gradient of a WeierstrassFunction from its definition and directions."""
    j = np.arange(g.LEVELS)
    weights = 2.0 ** (-g.gamma * j) * 2.0**j * 2.0 * math.pi
    phases = 2.0 * math.pi * 2.0**j * (x @ g.xi.T)
    return -(weights * np.sin(phases)) @ g.xi


class StokesMesh(Workload):
    """W(0.6) dW(0.7) on the boundaries of a level-3 edgewise mesh."""

    name = "stokes_mesh"
    pass_seconds = 8.0  # a pass is the 64 triangles of one level-3 mesh
    repeats = 2
    TOL = 1e-4
    TRIANGLE = np.array([[0.0, 0.0], [0.6, 0.1], [0.2, 0.5]])
    JITTER = 1e-9

    def build(self, rf):
        f = rf.forms.WeierstrassFunction(0.6, 2, seed=13)
        g = rf.forms.WeierstrassFunction(0.7, 2, seed=14)
        return {"f": f, "g": g, "product": rf.forms.product(f, rf.forms.increment_form(g))}

    def triangle(self, seed, index):
        # Rotated or moved copies of the triangle fail 0 to 6 of 64 ops and
        # change the cost mix from seed to seed, so every pass uses the
        # Stokes test triangle itself, moved by at most JITTER: far too
        # little to change any op's cost, enough to give every pass its own
        # memo keys.
        rng = _rng(seed, 2, index)
        return self.TRIANGLE + rng.uniform(-self.JITTER, self.JITTER, size=(3, 2))

    def sweep(self, rf):
        """Mesh indices bottom to top, left to right within a row.

        In the mesh's own order 31 of the 64 ops find at most one edge
        missing from the memo, so the median fell between the slowest of
        them and the next op, 30% apart, and moved by that much between
        runs. In this order the ops near the median lie about 4% apart.
        The order comes from the unmoved triangle, so every pass and seed
        meets the memo in the same way.
        """
        mesh = rf.subdivision.iterate(
            rf.subdivision.EDGEWISE, rf.geometry.Simplex(self.TRIANGLE), 3
        )
        centroids = np.round([tau.vertices.mean(axis=0) for tau in mesh], 9)
        return np.lexsort((centroids[:, 0], centroids[:, 1]))

    def make_pass(self, rf, seed, index, state):
        f, g = state["f"], state["g"]
        tri = rf.geometry.Simplex(self.triangle(seed, index))
        mesh = rf.subdivision.iterate(rf.subdivision.EDGEWISE, tri, 3)
        mesh = [mesh[i] for i in self.sweep(rf)]

        def integrand(x, du):
            return f(x) * (_weierstrass_gradient(g, x) @ du)

        edges = {}
        ops = []
        for i, tau in enumerate(mesh):
            value = tail = 0.0
            for coeff, edge in rf.geometry.boundary(tau):
                a, b = edge.vertices
                key = (a.tobytes(), b.tobytes())
                if key not in edges:
                    edges[key] = _line_integral(integrand, a, b, (128, 256))
                value += coeff * edges[key][0]
                tail += abs(coeff) * edges[key][1]
            ops.append(Op(f"{index}.{i}", tau, (value, tail)))
        return ops

    def run(self, state, op):
        from roughforms.geometry import boundary  # per call, as above

        return state["product"].eval_with_tail(boundary(op.args), self.TOL)

    def check(self, op, out):
        return _value_check(out[0], out[1], self.TOL, *op.reference)


def _smoothstep(u):
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(1 - u > 0, np.exp(-1.0 / np.maximum(1 - u, 1e-300)), 0.0)
    return a / (a + b)


def _bump(t):
    """Tensor bump: 1 on [-1/2, 1/2]^k, 0 outside (-2/3, 2/3)^k."""
    return np.prod(_smoothstep((2.0 / 3.0 - np.abs(t)) * 6.0), axis=-1)


class Whitney(Workload):
    """Weights of the Whitney partition of the unit triangle at level 7."""

    name = "whitney"
    OPS_PER_PASS = 32
    pass_seconds = 2.5
    # 1024 points make an op last about 80 ms, so the tail is not set by the
    # sub-second stalls of a shared vCPU, as it was with 64 points (12 ms)
    POINTS = 1024
    LEVEL = 7
    TOL = 1e-9

    def build(self, rf):
        tri = rf.geometry.Simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        return {"parts": rf.subdivision.whitney_partition(tri, self.LEVEL)}

    def make_pass(self, rf, seed, index, state):
        cubes = [cube for cube, _ in state["parts"]]
        frame = cubes[0].frame  # every cube of one decomposition shares it
        corners = np.array([c.base @ frame.T for c in cubes])
        sides = np.array([c.side for c in cubes])
        centers = corners + 0.5 * sides[:, None]
        rng = _rng(seed, 3, index)
        ops = []
        for i in rng.integers(len(cubes), size=self.OPS_PER_PASS):
            local = centers[i] + sides[i] * rng.uniform(-2 / 3, 2 / 3, size=(self.POINTS, 2))
            # bumps of every cube whose dilated support meets the points' box
            reach = 2 / 3 * sides[:, None]
            near = np.all(
                (local.min(axis=0) - centers < reach) & (centers - local.max(axis=0) < reach),
                axis=1,
            )
            bumps = _bump((local[None] - centers[near, None]) / sides[near, None, None])
            own = bumps[np.flatnonzero(np.flatnonzero(near) == i)[0]]
            # where the own bump underflows to 0 the weight is 0
            weight = np.divide(own, bumps.sum(axis=0), out=np.zeros(self.POINTS), where=own > 0)
            ops.append(Op(f"{index}.{i}", (int(i), local @ frame), weight))
        return ops

    def run(self, state, op):
        i, pts = op.args
        return state["parts"][i][1](pts)

    def check(self, op, out):
        out = np.asarray(out)
        if out.shape != op.reference.shape or not np.all(np.isfinite(out)):
            return "wrong shape or non-finite weights"
        if not np.all(np.abs(out - op.reference) <= self.TOL):
            return "value off reference"
        return None

    def summary(self, out):
        return float(np.sum(out)), 0.0

    def summary_tol(self):
        return self.TOL * self.POINTS


class CliMix(Workload):
    """One committed config per CLI subcommand, run and serialized."""

    name = "cli_mix"
    # a pass takes about 0.3 s; pass 0 also runs pullback_tight, for about
    # 2.5 s, which this figure spreads over the passes of a run
    pass_seconds = 0.5
    CONFIGS = HERE / "cli_mix.json"

    def build(self, rf):
        return {"ops": json.loads(self.CONFIGS.read_text())["ops"]}

    def make_pass(self, rf, seed, index, state):
        rng = _rng(seed, 4, index)
        ops = []
        for j in rng.permutation(len(state["ops"])):
            entry = state["ops"][j]
            if entry.get("first_pass_only") and index != 0:
                continue
            run_seed = int(seed) if entry.get("seeded") else None
            args = (entry["command"], copy.deepcopy(entry["config"]), run_seed)
            ops.append(Op(entry["name"], args))
        return ops

    def summary(self, out):
        return None

    def run(self, state, op):
        from roughforms import cli  # per call, as above

        command, config, seed = op.args
        result, passed, _ = cli.run_command(command, config, seed=seed)
        return result, passed, cli.dump_result(result)

    def check(self, op, out):
        result, passed, text = out
        if passed is False:
            return "cli passed == False"
        if json.loads(text)["command"] != op.args[0]:
            return "serialized result names another command"
        if "tol" in result and result.get("tail_bound", 0.0) > result["tol"]:
            return "tail above tol"
        return None


WORKLOADS = {w.name: w for w in (GaussProduct(), StokesMesh(), Whitney(), CliMix())}
