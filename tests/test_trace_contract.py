"""The benchmark's tracer patches roughforms internals by name.

This guards the names and shapes it relies on: `sew` reached through
`forms`, `Germ.eval_batch` and `FunctionGerm.eval_batch` in their class
bodies, `SewnCochain._eval_simplex` returning an exhausted flag at
index 2, `sew` raising BudgetExceededError with a partial result at the
depth cap, and `subdivision.whitney_partition` returning (Cube, weight)
pairs. It also checks that leaving the tracer restores every original,
and that every workload of `perfbench/workloads.py` builds, makes its
first pass and passes its own check on its first op, so a change that
deletes or renames a name the benchmark calls fails here first.
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
from workloads import WORKLOADS  # noqa: E402


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


def test_traced_product_counts_a_sew_that_raises_at_the_depth_cap():
    original_sew = forms.sew
    original_batch = FunctionGerm.__dict__["eval_batch"]
    f = forms.WeierstrassFunction(0.6, 2, seed=13)
    a = forms.increment_form(forms.WeierstrassFunction(0.7, 2, seed=14))
    seg = Simplex(np.array([[0.1, 0.2], [0.3, 0.25]]))
    with tracing.Installed(tracing.Tracer(), roughforms) as tracer:
        _, tail = forms.product(f, a).eval_with_tail(
            seg, 1e-9, best_effort=True
        )
    metrics = tracing.layer_metrics(tracer)
    assert tail > 1e-9
    assert metrics["sewing.sew_calls"] == 1
    assert metrics["sewing.depth_cap_hits"] == 1
    assert metrics["sewing.budget_raised"] == 1
    assert metrics["forms.exhausted"] == 1
    assert forms.sew is original_sew
    assert FunctionGerm.__dict__["eval_batch"] is original_batch


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


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_passes_its_check_on_its_first_op(name):
    # as the worker does: the op runs on one state, the references of its
    # pass come from another
    workload = WORKLOADS[name]
    state, ref_state = workload.build(roughforms), workload.build(roughforms)
    op = workload.make_pass(roughforms, 0, 0, ref_state)[0]
    assert workload.check(op, workload.run(state, op)) is None
