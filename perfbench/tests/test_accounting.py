"""Tests of the benchmark's own accounting, driven by stub ops.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import accounting  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from accounting import OpRecord, ranked_times, repeated, summarize, tail_point  # noqa: E402


class _BudgetExceededError(Exception):
    pass


class _Errors:
    RoughFormsError = _BudgetExceededError


class _Roughforms:
    errors = _Errors


class _StubWorkload:
    """Ops whose CPU time and outcome are scripted in their args."""

    name = "stub"

    def run(self, state, op):
        state["clock"][0] += op.args["seconds"]
        if op.args.get("raise"):
            raise op.args["raise"]("stub failure")
        return op.args.get("value", 1.0), op.args.get("tail", 0.0)

    def check(self, op, out):
        return "tail above tol" if out[1] > 1e-2 else None

    def summary(self, out):
        return out


def _run_stubs(monkeypatch, scripts):
    clock = [0.0]
    monkeypatch.setattr(worker, "process_time", lambda: clock[0])
    monkeypatch.setattr(worker, "perf_counter", lambda: 2 * clock[0])
    runner = worker.Runner.__new__(worker.Runner)
    runner.rf = _Roughforms
    runner.workload = _StubWorkload()
    runner.committed = []
    ops = [
        type("Op", (), {"label": str(i), "args": args})
        for i, args in enumerate(scripts)
    ]
    return [runner.timed_op({"clock": clock}, op, i) for i, op in enumerate(ops)]


def test_failed_stub_ops_are_counted_and_ranked_slowest(monkeypatch):
    records = _run_stubs(
        monkeypatch,
        [
            {"seconds": 0.010},
            {"seconds": 0.001, "raise": MemoryError},
            {"seconds": 0.020},
            {"seconds": 0.002, "raise": _BudgetExceededError},
            {"seconds": 0.003, "tail": 0.5},
            {"seconds": 0.030},
        ],
    )
    assert [r.error for r in records] == [
        None,
        "MemoryError",
        None,
        "_BudgetExceededError",
        "tail above tol",
        None,
    ]
    # raising is allowed by the evaluation contract; a tail above tol is not
    assert [r.wrong for r in records] == [False, False, False, False, True, False]
    ranked = ranked_times(records)
    assert ranked[:3] == pytest.approx([0.010, 0.020, 0.030])
    assert ranked[3:] == pytest.approx([0.030, 0.030, 0.030])
    metrics, details = summarize(records, setup_s=1.0, peak_rss_mb=10.0)
    assert metrics["ok_frac"] == pytest.approx(0.5)
    assert details["fail_frac"] == pytest.approx(0.5)
    assert details["failures"] == {
        "MemoryError": 1,
        "_BudgetExceededError": 1,
        "tail above tol": 1,
    }
    # the median lands on a failure, which reads as slow as the slowest success
    assert metrics["op_cpu_p50_ms"] == pytest.approx(30.0)
    assert metrics["ops_per_cpu_s"] == pytest.approx(3 / 0.066)
    # wall time is recorded beside CPU time, not in its place
    assert details["ops_per_wall_s"] == pytest.approx(3 / 0.132)


def test_an_op_counts_with_its_median_timing_and_fails_if_any_timing_failed():
    assert repeated([OpRecord(0.3), OpRecord(0.1), OpRecord(0.2)]) == OpRecord(0.2)
    mixed = repeated([OpRecord(0.3), OpRecord(0.1, "tail above tol", wrong=True)])
    assert mixed == OpRecord(0.2, "tail above tol", wrong=True)
    raised = repeated([OpRecord(0.2, "MemoryError"), OpRecord(0.4, "MemoryError")])
    assert raised == OpRecord(pytest.approx(0.3), "MemoryError", wrong=False)


def test_every_op_is_timed_once_per_state_in_repeat_order(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(worker, "process_time", lambda: clock[0])
    monkeypatch.setattr(worker, "perf_counter", lambda: clock[0])
    seen = []

    class Passes(_StubWorkload):
        pass_seconds = 1.0

        def make_pass(self, rf, seed, index, state):
            return [type("Op", (), {"label": f"{index}.{i}", "args": i + 1}) for i in range(2)]

        def run(self, state, op):
            seen.append((state["name"], op.label))
            clock[0] += 0.01 * op.args * state["slowdown"]
            return 1.0, 0.0

    runner = worker.Runner.__new__(worker.Runner)
    runner.rf, runner.workload, runner.seed, runner.committed = _Roughforms, Passes(), 0, []
    states = [{"name": n, "slowdown": k} for n, k in zip("abc", (1, 5, 2))]
    # 6 seconds over 3 states of 1-second passes: two passes
    records = runner.timed_passes(states, None, seconds=6.0)
    assert seen == [(s, f"{p}.{i}") for s in "abc" for p in range(2) for i in range(2)]
    # the median of each op's three timings, not the fastest or the mean
    assert [r.cpu_s for r in records] == pytest.approx([0.02, 0.04, 0.02, 0.04])
    assert all(r.ok for r in records)


def test_a_failure_slower_than_every_success_keeps_its_time():
    records = [OpRecord(0.001), OpRecord(0.5, "MemoryError"), OpRecord(0.002)]
    assert ranked_times(records) == [0.001, 0.002, 0.5]


@pytest.mark.parametrize(
    "n, rank, percentile",
    [
        (5, 5, 100.0),
        (10, 10, 100.0),
        (11, 1, 100.0 / 11),
        (20, 10, 50.0),
        (100, 90, 90.0),
        (1000, 990, 99.0),
    ],
)
def test_tail_is_the_highest_percentile_with_ten_ops_beyond(n, rank, percentile):
    ranked = [float(i) for i in range(1, n + 1)]
    value, pct = tail_point(ranked)
    assert value == rank
    assert pct == pytest.approx(percentile)
    assert sum(v > value for v in ranked) == min(accounting.TAIL_BEYOND, n - rank)


def test_self_time_subtracts_the_union_of_child_spans():
    #   root 0..10 with children 1..4 and 3..6 (overlapping) and 8..9;
    #   child 1..4 has a grandchild 2..3 that must not count twice
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 3.0, 6.0, 0, None],
        ["c", 8.0, 9.0, 0, None],
        ["a.inner", 2.0, 3.0, 1, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])


def test_tracer_records_parents_and_first_spans_of_a_name():
    tracer = tracing.Tracer()
    outer = tracer.open("forms.eval")
    inner = tracer.open("forms.eval")
    tracer.close(inner)
    other = tracer.open("sewing.sew")
    tracer.close(other)
    tracer.close(outer)
    assert [s[3] for s in tracer.spans] == [-1, outer, outer]
    assert tracer.top == [True, False, True]
    assert not tracer.inside("forms.eval")


def test_wrappers_reach_names_bound_at_import_and_come_off_again():
    rf = pytest.importorskip("roughforms")
    sew = rf.sewing.sew
    tracer = tracing.Tracer()
    with tracing.Installed(tracer, rf):
        assert rf.forms.sew is rf.sewing.sew is not sew
        a = rf.forms.catalog_form("x_dy")
        a.eval_with_tail(rf.geometry.Simplex([[0.0, 0.0], [1.0, 1.0]]), 1e-6)
    assert rf.forms.sew is sew and rf.sewing.sew is sew
    names = {span[0] for span in tracer.spans}
    assert {"forms.eval", "forms.eval_simplex", "sewing.sew", "sewing.germ"} <= names
    assert tracer.counts["forms.memo_miss"] == 1
