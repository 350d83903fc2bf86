"""One workload in one process: set-up, warm-up, timed passes or a traced pass.

Started by run.py with PYTHONPATH pointing at the checkout's `src` and the
BLAS/OpenMP thread variables set to 1. It caps its own address space before
importing anything large, and prints one JSON object as its last line.

Ops and set-up are timed in CPU time of this process (`process_time`, user
and system): it runs one thread and waits on nothing, so CPU time is the
wall time less the stretches when the shared vCPU ran someone else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter, process_time

from accounting import OpRecord, repeated, summarize

AS_CAP_MB = 512
# fresh interpreters that import roughforms, beside the worker's own import
IMPORT_PROBES = 4
WARM_OPS = 3
IMPORT_PROBE = (
    "import time; t = time.process_time(); import roughforms; "
    "print(time.process_time() - t)"
)
# the warm-up pass index lies far from any timed pass
WARM_PASS = 1_000_000
TRACE_DIR = ".perfbench"  # relative to the checkout root, the working directory
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _cap_address_space():
    cap = AS_CAP_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def _import_seconds():
    """Import times of roughforms in fresh interpreters, for the set-up median."""
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
            timeout=60,
        )
        out.append(float(proc.stdout))
    return out


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    def __init__(self, rf, workload, seed):
        self.rf = rf
        self.workload = workload
        self.seed = seed
        self.committed = self._load_committed()

    def _load_committed(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
        with open(path) as fh:
            table = json.load(fh)
        return table.get(self.workload.name, {}).get(str(self.seed), [])

    def timed_op(self, state, op, position):
        """Run one op; returns its OpRecord."""
        errors = (MemoryError, self.rf.errors.RoughFormsError)
        cpu, wall = process_time(), perf_counter()
        try:
            out = self.workload.run(state, op)
        except Exception as exc:  # the op boundary keeps running and reports it
            out = exc
        cpu, wall = process_time() - cpu, perf_counter() - wall
        if isinstance(out, errors):
            return OpRecord(cpu, type(out).__name__, wall_s=wall)
        if isinstance(out, Exception):
            traceback.print_exception(out, file=sys.stderr)
            return OpRecord(cpu, type(out).__name__, wrong=True, wall_s=wall)
        reason = self.workload.check(op, out) or self._committed_check(op, out, position)
        return OpRecord(cpu, reason, wrong=reason is not None, wall_s=wall)

    def _committed_check(self, op, out, position):
        """Compare with the seed commit's output for the default and validation seeds."""
        if position is None or position >= len(self.committed):
            return None
        label, *recorded = self.committed[position]
        if label != op.label:
            return "committed reference is for another op"
        summary = self.workload.summary(out)
        if summary is None or len(recorded) != 2:  # no output, or it raised
            return None
        ref_value, ref_tail = recorded
        if abs(summary[0] - ref_value) > self.workload.summary_tol() + ref_tail:
            return "value off committed reference"
        return None

    def build_states(self, count):
        times, states = [], []
        for _ in range(count):
            start = process_time()
            states.append(self.workload.build(self.rf))
            times.append(process_time() - start)
        return times, states

    def warm_up(self, state, ref_state):
        ops = self.workload.make_pass(self.rf, self.seed, WARM_PASS, ref_state)
        for op in ops[:WARM_OPS]:
            self.timed_op(state, op, None)

    def timed_passes(self, states, ref_state, seconds):
        """One record per op, from its timings on each of `states`.

        Every state runs all passes in the same order, so each sees the
        same memo history, and an op's timings lie a whole repeat apart.
        """
        w = self.workload
        passes = max(1, round(seconds / (w.pass_seconds * len(states))))
        ops = [
            op for index in range(passes)
            for op in w.make_pass(self.rf, self.seed, index, ref_state)
        ]
        timings = [[] for _ in ops]
        for state in states:
            for position, op in enumerate(ops):
                timings[position].append(self.timed_op(state, op, position))
        return [repeated(t) for t in timings]


def _outcome(records):
    return {
        "correct": not any(r.wrong for r in records),
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _cap_address_space()
    start = process_time()
    import roughforms as rf

    import_s = process_time() - start
    import numpy as np

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    runner = Runner(rf, workload, args.seed)
    env = {
        "as_cap_mb": AS_CAP_MB,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }

    if not args.trace:
        # a warm-up state, a reference state and one state per repeat
        build_times, states = runner.build_states(workload.repeats + 2)
        import_times = [import_s] + _import_seconds()
        setup_s = statistics.median(import_times) + statistics.median(build_times)
        warm_state, ref_state, *timed_states = states
        runner.warm_up(warm_state, ref_state)
        records = runner.timed_passes(timed_states, ref_state, args.seconds)
        metrics, details = summarize(records, setup_s, _peak_rss_mb())
        result = dict(_outcome(records), metrics=metrics, details=details, env=env)
        print(json.dumps(result))
        return 0

    from tracing import Installed, Tracer, layer_metrics

    _, (warm_state, plain_state, ref_state) = runner.build_states(3)
    runner.warm_up(warm_state, ref_state)
    plain_ops = workload.make_pass(rf, args.seed, 0, ref_state)
    traced_ops = workload.make_pass(rf, args.seed, 0, ref_state)
    plain = [runner.timed_op(plain_state, op, i) for i, op in enumerate(plain_ops)]

    tracer = Tracer()
    traced = []
    with Installed(tracer, rf):
        idx = tracer.open("bench.setup")
        state = workload.build(rf)
        tracer.close(idx)
        for i, op in enumerate(traced_ops):
            tracer.op = i
            idx = tracer.open("bench.op")
            traced.append(runner.timed_op(state, op, i))
            tracer.close(idx)
        tracer.op = None

    metrics = layer_metrics(tracer)
    # the same ops ran both ways, so this is untraced over traced ops_per_cpu_s
    metrics["trace.overhead"] = sum(r.cpu_s for r in traced) / sum(r.cpu_s for r in plain)
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace_{workload.name}_seed{args.seed}.json")
    tracer.dump(path)
    details = {"spans_file": path}
    result = dict(_outcome(plain + traced), metrics=metrics, details=details, env=env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
