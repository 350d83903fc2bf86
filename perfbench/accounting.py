"""Op accounting: ranking, percentiles and the end-to-end metrics.

Kept free of numpy and roughforms so the tests can drive it with stub ops.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

# the tail percentile is the highest one with this many ops beyond it
TAIL_BEYOND = 10


@dataclass
class OpRecord:
    """One timed op.

    `cpu_s` is the CPU time, user and system, that the worker process spent
    in the op, and `wall_s` its wall time. The worker runs one thread and
    waits on nothing, so the two differ by the time the shared vCPU was
    given to someone else, which CPU time leaves out.
    `error` names why the op failed: the exception type it raised, or the
    output check it missed. `wrong` marks a failure that returned a wrong
    answer (a value off its reference, a tail above its tol, a CLI
    `passed == False`), as opposed to raising, which the evaluation
    contract allows.
    """

    cpu_s: float
    error: str | None = None
    wrong: bool = False
    wall_s: float = 0.0

    @property
    def ok(self):
        return self.error is None


def repeated(timings):
    """One op's record from the timings of its repeats.

    Its times are the median timing: a shared vCPU runs a single timing
    up to a third faster or half slower than usual for seconds at a time,
    and the median of timings spread over the run keeps neither excursion.
    The op fails if any timing failed, with the first failure's reason.
    """
    cpu_s = statistics.median(t.cpu_s for t in timings)
    wall_s = statistics.median(t.wall_s for t in timings)
    failed = [t for t in timings if not t.ok]
    if not failed:
        return OpRecord(cpu_s, wall_s=wall_s)
    wrong = any(t.wrong for t in failed)
    return OpRecord(cpu_s, failed[0].error, wrong=wrong, wall_s=wall_s)


def ranked_times(records):
    """CPU times in rank order, failed ops after every success.

    A failed op's value is its own time raised to the slowest success,
    so the ranked list stays sorted and a failure never reads faster than
    an answer that arrived.
    """
    ok = sorted(r.cpu_s for r in records if r.ok)
    slowest = ok[-1] if ok else 0.0
    failed = sorted(max(r.cpu_s, slowest) for r in records if not r.ok)
    return ok + failed


def tail_point(ranked):
    """(time, percentile) at the highest percentile with TAIL_BEYOND ops beyond.

    With n ops that is the (TAIL_BEYOND + 1)-th slowest, at percentile
    100 (n - TAIL_BEYOND) / n. Fewer ops than that give the slowest op at
    percentile 100.
    """
    n = len(ranked)
    if n <= TAIL_BEYOND:
        return ranked[-1], 100.0
    return ranked[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def summarize(records, setup_s, peak_rss_mb):
    """End-to-end metrics plus the details printed beside them."""
    if not records:
        raise ValueError("no ops were run")
    ranked = ranked_times(records)
    tail, pct = tail_point(ranked)
    passed = sum(r.ok for r in records)
    busy = sum(r.cpu_s for r in records)
    wall = sum(r.wall_s for r in records)
    failures = {}
    for r in records:
        if not r.ok:
            failures[r.error] = failures.get(r.error, 0) + 1
    metrics = {
        "setup_s": setup_s,
        "op_cpu_p50_ms": 1e3 * statistics.median(ranked),
        "op_cpu_tail_ms": 1e3 * tail,
        "ops_per_cpu_s": passed / busy,
        "ok_frac": passed / len(records),
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "ops": len(records),
        "tail_percentile": pct,
        "fail_frac": 1.0 - passed / len(records),
        "failures": failures,
        # the same throughput over wall time, which the shared vCPU makes noisy
        "ops_per_wall_s": passed / wall if wall else None,
    }
    return metrics, details


END_TO_END_UNITS = {
    "setup_s": "s",
    "op_cpu_p50_ms": "ms",
    "op_cpu_tail_ms": "ms",
    "ops_per_cpu_s": "ops/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
