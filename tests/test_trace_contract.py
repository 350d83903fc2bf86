"""The benchmark's tracer patches roughforms internals by name.

This guards the names and shapes it relies on: `sew` reached through
`forms`, `Germ.eval_batch` and `FunctionGerm.eval_batch` in their class
bodies, `SewnCochain._eval_simplex` returning an exhausted flag at
index 2, and `subdivision.whitney_partition` returning (Cube, weight)
pairs. It also checks that leaving the tracer restores every original.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import roughforms
from roughforms import forms, subdivision
from roughforms.geometry import Cube, Simplex
from roughforms.sewing import FunctionGerm

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def test_traced_product_counts_one_sew_and_one_batch_per_level():
    original = FunctionGerm.__dict__["eval_batch"]
    f = forms.WeierstrassFunction(0.6, 2, seed=13)
    a = forms.increment_form(forms.WeierstrassFunction(0.7, 2, seed=14))
    seg = Simplex(np.array([[0.1, 0.2], [0.3, 0.25]]))
    with tracing.Installed(tracing.Tracer(), roughforms) as tracer:
        value, tail = forms.product(f, a).eval_with_tail(seg, 1e-3)
    metrics = tracing.layer_metrics(tracer)
    assert tail <= 1e-3
    assert metrics["sewing.sew_calls"] == 1
    assert metrics["forms.memo_miss"] == 1
    assert metrics["forms.exhausted"] == 0
    depth = metrics["sewing.depth_mean"]
    assert metrics["sewing.germ_batches"] == pytest.approx(depth + 1)
    # f and g once per lattice point, 2^depth + 1 points on a segment
    assert metrics["forms.fn_points"] == 2 * (2**depth + 1)
    assert FunctionGerm.__dict__["eval_batch"] is original


def test_traced_partition_counts_weight_calls_and_keeps_pairs():
    original = subdivision.whitney_partition
    tri = Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    pts = np.array([[0.2, 0.3], [0.5, 0.1], [0.05, 0.05]])
    with tracing.Installed(tracing.Tracer(), roughforms) as tracer:
        parts = subdivision.whitney_partition(tri, 4)
        for _, weight in parts[:3]:
            weight(pts)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["subdivision.partition_weight_calls"] == 3
    assert all(
        isinstance(cube, Cube) and callable(weight) for cube, weight in parts
    )
    assert subdivision.whitney_partition is original
