"""Spans and counters around roughforms' public functions, installed from outside.

The wrappers replace a function wherever a roughforms module holds it,
because `forms`, `embedding` and `cli` bind names at import time (`from
.sewing import sew`); methods are replaced on the class that defines them.
Spans stay in memory until the run ends. Everything is single-threaded,
so one stack tracks which span is open.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = (
    "bench",
    "sewing",
    "subdivision",
    "forms",
    "gaussian",
    "geometry",
    "embedding",
    "exprlang",
    "cli",
    "sampling",
)
EVAL_SIMPLEX_SPANS = (
    "forms.eval_simplex",
    "gaussian.eval_simplex",
    "embedding.eval_simplex",
)


class Tracer:
    """In-memory spans `[name, start, end, parent index, op id]` plus counters."""

    def __init__(self):
        self.spans = []
        self.top = []  # no span of the same name was open when it started
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._open = Counter()

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self.top.append(self._open[name] == 0)
        self._open[name] += 1
        self._stack.append(idx)
        return idx

    def close(self, idx):
        span = self.spans[idx]
        span[2] = perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    def inside(self, *names):
        return any(self._open[name] for name in names)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[idx]
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def _wrap(tracer, name, fn, hook=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(idx)
            if hook is not None:
                hook(args, kwargs, None, exc)
            raise
        tracer.close(idx)
        if hook is not None:
            hook(args, kwargs, out, None)
        return out

    return wrapper


def _points(x):
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Installed:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, tracer, rf):
        self.tracer = tracer
        self.rf = rf
        self._patches = []

    def __enter__(self):
        try:
            _install(self.tracer, self.rf, self._patch_function, self._patch_method)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self.tracer

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def _patch_function(self, module, attr, name, hook=None, wrap=None):
        orig = getattr(module, attr)
        wrapper = wrap(orig) if wrap else _wrap(self.tracer, name, orig, hook)
        found = False
        for mod in [getattr(self.rf, sub) for sub in self.rf.__all__]:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)
                    found = True
        if not found:
            raise RuntimeError(f"{module.__name__}.{attr} is not bound anywhere")

    def _patch_method(self, cls, attr, name, hook=None, wrap=None):
        orig = cls.__dict__[attr]
        wrapper = wrap(orig) if wrap else _wrap(self.tracer, name, orig, hook)
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, wrapper)


def _install(tracer, rf, patch_function, patch_method):
    counts = tracer.counts
    sewing, subdivision, forms = rf.sewing, rf.subdivision, rf.forms
    gaussian, geometry, embedding = rf.gaussian, rf.geometry, rf.embedding
    exprlang, cli, sampling = rf.exprlang, rf.cli, rf.sampling

    def on_sew(args, kwargs, out, exc):
        simplex = args[1] if len(args) > 1 else kwargs["simplex"]
        depth_max = kwargs.get("depth_max", args[4] if len(args) > 4 else None)
        if depth_max is None:
            depth_max = sewing.DEPTH_MAX_BY_K.get(simplex.k, 6)
        res = out if exc is None else getattr(exc, "partial", None)
        if isinstance(res, sewing.SewingResult):
            counts["sew_depth_sum"] += res.depth_used
            counts["sew_depth_n"] += 1
            counts["sewing.depth_cap_hits"] += res.depth_used == depth_max
        counts["sewing.budget_raised"] += isinstance(
            exc, rf.errors.BudgetExceededError
        )

    def on_germ(args, kwargs, out, exc):
        # FunctionGerm without a batch function delegates to Germ.eval_batch
        if not tracer.inside("sewing.germ"):
            counts["sewing.germ_batches"] += 1
            counts["sewing.germ_rows"] += len(args[1])

    def on_children(args, kwargs, out, exc):
        if out is not None:
            counts["subdivision.children_rows"] += out.shape[0]

    def on_eval(args, kwargs, out, exc):
        if isinstance(args[1], geometry.Simplex):
            counts["eval_simplex_calls"] += 1
        counts["forms.eval_nested"] += tracer.inside(*EVAL_SIMPLEX_SPANS)

    def on_eval_simplex(args, kwargs, out, exc):
        counts["forms.memo_miss"] += 1
        counts["forms.exhausted"] += bool(out is not None and out[2])

    def on_fn(args, kwargs, out, exc):
        counts["forms.fn_points"] += _points(args[1])

    def on_field(args, kwargs, out, exc):
        if out is not None:
            counts["gaussian.field_eval_points"] += out.shape[0]

    def on_evaluate(args, kwargs, out, exc):
        counts["exprlang.evaluate_points"] += _points(args[1])

    def count_simplex(orig):
        @functools.wraps(orig)
        def init(self, *args, **kwargs):
            counts["geometry.simplex_new"] += 1
            orig(self, *args, **kwargs)

        return init

    def wrap_partition(orig):
        @functools.wraps(orig)
        def partition(*args, **kwargs):
            parts = orig(*args, **kwargs)
            return [
                (cube, _wrap(tracer, "subdivision.partition_weight", weight))
                for cube, weight in parts
            ]

        return partition

    patch_function(sewing, "sew", "sewing.sew", on_sew)
    patch_method(sewing.Germ, "eval_batch", "sewing.germ", on_germ)
    patch_method(sewing.FunctionGerm, "eval_batch", "sewing.germ", on_germ)
    patch_method(
        subdivision.SubdivisionScheme,
        "children_array",
        "subdivision.children",
        on_children,
    )
    patch_function(subdivision, "whitney_cubes", "subdivision.whitney_cubes")
    patch_function(subdivision, "whitney_partition", None, wrap=wrap_partition)
    patch_method(forms.Cochain, "eval_with_tail", "forms.eval", on_eval)
    for cls in _subclasses(forms.Cochain):
        if "_eval_simplex" in cls.__dict__:
            layer = cls.__module__.rsplit(".", 1)[-1]
            patch_method(
                cls, "_eval_simplex", f"{layer}.eval_simplex", on_eval_simplex
            )
    patch_method(forms.HolderFunction, "__call__", "forms.fn", on_fn)
    patch_method(gaussian.FieldSample, "eval", "gaussian.field_eval", on_field)
    patch_function(gaussian, "sample_field", "gaussian.sample")
    patch_function(gaussian, "kolmogorov_fit", "gaussian.kolmogorov")
    patch_method(geometry.Simplex, "__init__", None, wrap=count_simplex)
    patch_function(geometry, "boundary", "geometry.boundary")
    patch_function(embedding, "pi_J", "embedding.pi_J")
    patch_function(embedding, "iota", "embedding.iota")
    patch_function(exprlang, "parse", "exprlang.parse")
    patch_function(exprlang, "evaluate", "exprlang.evaluate", on_evaluate)
    patch_function(cli, "validate_config", "cli.validate")
    patch_function(cli, "run_command", "cli.run")
    patch_function(cli, "dump_result", "cli.dump")
    patch_function(sampling, "sample_simplex", "sampling.sample")
    patch_function(sampling, "sample_band_simplices", "sampling.sample")


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def layer_metrics(tracer):
    """Per-layer counts, times and self-time shares of op time."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls = Counter()
    top_s = Counter()
    self_s = Counter()
    layer_self = Counter()
    op_s = 0.0
    for span, top, own in zip(spans, tracer.top, selfs):
        name, start, end, _, op = span
        calls[name] += 1
        self_s[name] += own
        if top:
            top_s[name] += end - start
        if op is not None:
            layer_self[name.split(".", 1)[0]] += own
            if name == "bench.op":
                op_s += end - start
    c = tracer.counts
    simplex_calls = c["eval_simplex_calls"]
    metrics = {
        "sewing.sew_calls": calls["sewing.sew"],
        "sewing.sew_self_s": self_s["sewing.sew"],
        "sewing.depth_mean": (
            c["sew_depth_sum"] / c["sew_depth_n"] if c["sew_depth_n"] else 0.0
        ),
        "sewing.depth_cap_hits": c["sewing.depth_cap_hits"],
        "sewing.budget_raised": c["sewing.budget_raised"],
        "sewing.germ_batches": c["sewing.germ_batches"],
        "sewing.germ_rows": c["sewing.germ_rows"],
        "sewing.germ_s": top_s["sewing.germ"],
        "subdivision.children_calls": calls["subdivision.children"],
        "subdivision.children_rows": c["subdivision.children_rows"],
        "subdivision.children_s": top_s["subdivision.children"],
        "subdivision.partition_weight_calls": calls["subdivision.partition_weight"],
        "subdivision.partition_weight_s": top_s["subdivision.partition_weight"],
        "subdivision.whitney_cubes_s": top_s["subdivision.whitney_cubes"],
        "forms.eval_calls": calls["forms.eval"],
        "forms.eval_nested": c["forms.eval_nested"],
        "forms.eval_self_s": self_s["forms.eval"],
        "forms.memo_miss": c["forms.memo_miss"],
        "forms.memo_hit_ratio": (
            1.0 - c["forms.memo_miss"] / simplex_calls if simplex_calls else 0.0
        ),
        "forms.exhausted": c["forms.exhausted"],
        "forms.fn_calls": calls["forms.fn"],
        "forms.fn_points": c["forms.fn_points"],
        "forms.fn_s": top_s["forms.fn"],
        "gaussian.cochain_evals": calls["gaussian.eval_simplex"],
        "gaussian.field_eval_calls": calls["gaussian.field_eval"],
        "gaussian.field_eval_points": c["gaussian.field_eval_points"],
        "gaussian.field_eval_s": top_s["gaussian.field_eval"],
        "gaussian.sample_s": top_s["gaussian.sample"],
        "gaussian.kolmogorov_s": top_s["gaussian.kolmogorov"],
        "geometry.simplex_new": c["geometry.simplex_new"],
        "geometry.boundary_calls": calls["geometry.boundary"],
        "embedding.pi_J_s": top_s["embedding.pi_J"],
        "embedding.iota_s": top_s["embedding.iota"],
        "exprlang.parse_calls": calls["exprlang.parse"],
        "exprlang.evaluate_calls": calls["exprlang.evaluate"],
        "exprlang.evaluate_points": c["exprlang.evaluate_points"],
        "exprlang.evaluate_s": top_s["exprlang.evaluate"],
        "cli.validate_s": top_s["cli.validate"],
        "cli.run_self_s": self_s["cli.run"],
        "cli.dump_s": top_s["cli.dump"],
        "sampling.sample_s": top_s["sampling.sample"],
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = layer_self[layer] / op_s if op_s else 0.0
    metrics["trace.spans"] = len(spans)
    return metrics


PER_LAYER_UNITS = {
    "_calls": "count",
    "_rows": "count",
    "_points": "count",
    "_s": "s",
    "_batches": "count",
    "_hits": "count",
    "_raised": "count",
    "_nested": "count",
    "_miss": "count",
    "_evals": "count",
    "_new": "count",
    "exhausted": "count",
    "spans": "count",
    "_ratio": "ratio",
    "depth_mean": "levels",
    "overhead": "ratio",
}


def unit_of(name):
    if name.startswith("share."):
        return "ratio"
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)
