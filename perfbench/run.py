"""Benchmark runner for roughforms.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stokes_mesh --seed 0 --seconds 20 --trace 0

`--workload all` runs the four workloads one after another. Each workload
runs in its own child process (perfbench/worker.py) with one BLAS/OpenMP
thread and a capped address space. The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`, the end-to-end
metrics with `--trace 0` and the per-layer metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from accounting import END_TO_END_UNITS
from tracing import unit_of

HERE = Path(__file__).resolve().parent
WORKLOADS = ("gauss_product", "stokes_mesh", "whitney", "cli_mix")
# a run must end within 180 s; the child gets what is left of that
RUN_DEADLINE_S = 170.0


def _child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = "1"
    return env


def run_workload(name, seed, seconds, trace, src, deadline):
    """Run one workload in a child process; returns its result dict or None."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    # its own session, so a kill also reaches the worker's import probes
    with subprocess.Popen(
        cmd,
        env=_child_env(src),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"{name}: worker ran past the deadline and was killed", file=sys.stderr)
            return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _units(trace):
    return unit_of if trace else END_TO_END_UNITS.__getitem__


def report(name, result, trace):
    """Human-readable lines for one workload."""
    unit = _units(trace)
    d = result["details"]
    head = f"== {name}: {result['attempted']} ops, {result['failed']} failed"
    if not trace:
        head += f", tail at p{d['tail_percentile']:.1f} of {d['ops']} ops"
        head += f", fail_frac {d['fail_frac']:.4g}"
        head += f", ops_per_wall_s {d['ops_per_wall_s']:.4g}"
        if d["failures"]:
            head += f", failures {d['failures']}"
    print(head)
    for metric, value in result["metrics"].items():
        print(f"   {metric:38s} {value:14.6g} {unit(metric)}")
    print("   env " + json.dumps(result["env"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = perf_counter() + RUN_DEADLINE_S
    src = Path.cwd() / "src"
    if not (src / "roughforms" / "__init__.py").is_file():
        print("src/roughforms not found: run from the root of a roughforms checkout",
              file=sys.stderr)
        return 2
    # byte-compile once so the first run's import time matches later runs
    compileall.compile_dir(str(src / "roughforms"), quiet=1)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    unit = _units(args.trace)
    outcome = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        if args.workload == "all":
            deadline = perf_counter() + RUN_DEADLINE_S
        result = run_workload(name, args.seed, args.seconds, args.trace, src, deadline)
        if result is None:
            return 1
        report(name, result, args.trace)
        outcome["correct"] = outcome["correct"] and result["correct"]
        outcome["attempted"] += result["attempted"]
        outcome["failed"] += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, value in result["metrics"].items():
            outcome["metrics"][prefix + metric] = {"value": value, "unit": unit(metric)}
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
