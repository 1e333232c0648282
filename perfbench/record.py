"""Regenerate ``expected.json``, the recorded outputs the workloads
check against.

    python3 perfbench/record.py

Run it only when a change is meant to alter the program's outputs, and
say so in that change: the table is what makes every other change prove
it did not.  It covers every seed-selected input: the 16 audit cases of
each of the ``ORDER_POOL`` random orders, and the sweep, packet and
batch outputs of each of the reproduce ``POOL`` entries.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import numpy as np  # noqa: E402

import audit  # noqa: E402
import reproduce  # noqa: E402
from harness import NULL_TRACER  # noqa: E402
from repro.ordering import topology_order  # noqa: E402


def record_audit() -> dict:
    cases = {}
    for seed in range(audit.ORDER_POOL):
        inp = audit.setup(seed)
        for case in inp.cases:
            if case.key in cases:
                continue
            got = audit.certify_case(inp.spec, case, NULL_TRACER)
            assert got["enumerated"] == got["symbolic"], case.key
            cases[case.key] = {
                "verdict": got["verdict"],
                "max_link_load": max(got["symbolic"]),
                "maxima_sha": audit.maxima_digest(got["symbolic"])}
    return {"cases": {k: cases[k] for k in sorted(cases)}}


def _packet(res) -> dict:
    return {"makespan": res.makespan,
            "normalized_bandwidth": res.normalized_bandwidth}


def record_reproduce() -> dict:
    sweeps, fallback = {}, {}
    for seed in range(reproduce.POOL):
        inp = reproduce.setup(seed)
        sweeper = reproduce.sweep.ParallelSweeper(jobs=1)
        sweeps[str(seed)] = {
            label: reproduce.array_digest(sweeper.order_sweep(
                tables, cps, num_orders=reproduce.SWEEP_ORDERS,
                seed=reproduce.DEFAULT_SEED + seed).avg_max)
            for label, tables, cps in inp.cells}
        fallback[str(seed)] = _packet(reproduce.packet_run(
            inp, inp.fallback_cps, inp.fallback_placement,
            reproduce.FALLBACK_SIZE, "", NULL_TRACER))
    inp = reproduce.setup(0)
    n = inp.tables324.fabric.num_endports
    fast = _packet(reproduce.packet_run(
        inp, inp.fast_cps, topology_order(n), reproduce.FAST_SIZE, "",
        NULL_TRACER))
    # the batch record in grid order (the identity permutation)
    inp.grid_perm = np.arange(len(inp.grid_perm))
    scheds = [reproduce.FaultSchedule.random(
        inp.tables324.fabric, seed=s, horizon=reproduce.HORIZON,
        mtbf=reproduce.MTBF) for s in range(reproduce.GRID_SCHEDULES)]
    spec = reproduce.ordering_batch(
        inp.tables324, inp.grid_cps, inp.grid_placements,
        reproduce.GRID_SIZE, credit_limit=reproduce.CREDIT_LIMIT,
        faults=[scheds[i % reproduce.GRID_SCHEDULES]
                for i in range(len(inp.grid_perm))],
        sweep_delay=reproduce.SWEEP_DELAY)
    res = reproduce.run_batch(spec)
    batch = {"makespans_sha": reproduce.array_digest(res.makespans()),
             "fast_path": res.stats.fast_path,
             "fallback_fault": res.stats.fallback_fault}
    return {"sweeps": sweeps, "packet_fast": fast,
            "packet_fallback": fallback, "batch": batch}


def main() -> None:
    table = {"audit": record_audit(), "reproduce": record_reproduce()}
    path = BENCH_DIR / "expected.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
