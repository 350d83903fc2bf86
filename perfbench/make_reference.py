"""Record the program's outputs as committed references for the timed runs.

Run from the root of a checkout, at the commit whose outputs should become
the reference:

    PYTHONPATH=src python3 perfbench/make_reference.py

For the default seed and the validation seed it runs the first passes of
each workload that has a numeric output, on a fresh state, and writes one
row per op to perfbench/reference.json: its label with its value and tail,
or with the error it raised.
cli_mix needs no entry: its configs carry their own `expect` blocks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import roughforms as rf

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SEEDS = (0, 1)  # the default seed and the validation seed
PASSES = {"gauss_product": 3, "stokes_mesh": 4, "whitney": 9}


def record(workload, seed, passes):
    state = workload.build(rf)
    ref_state = workload.build(rf)
    entries = []
    for index in range(passes):
        for op in workload.make_pass(rf, seed, index, ref_state):
            try:
                out = workload.run(state, op)
            except (MemoryError, rf.errors.RoughFormsError) as exc:
                entries.append([op.label, type(exc).__name__])
                continue
            entries.append([op.label, *workload.summary(out)])
    return entries


def main():
    table = {
        name: {str(seed): record(WORKLOADS[name], seed, passes) for seed in SEEDS}
        for name, passes in PASSES.items()
    }
    rows = (
        f' "{name}": {{\n'
        + ",\n".join(
            f'  "{seed}": {json.dumps(entries, separators=(",", ":"))}'
            for seed, entries in by_seed.items()
        )
        + "\n }"
        for name, by_seed in table.items()
    )
    (HERE / "reference.json").write_text("{\n" + ",\n".join(rows) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
