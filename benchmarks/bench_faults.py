"""Fault-plane overhead bench: an empty schedule must cost nothing.

The fault engine's contract is that robustness is pay-as-you-go: a
``PacketSimulator`` constructed with an empty :class:`FaultSchedule`
takes the same vectorized fast path as one built without a fault plane
at all.  This bench pins both halves of that contract on the n16 PGFT:

* results are **bit-identical** (same makespan, same per-message
  timestamps) with and without the empty schedule;
* the empty-schedule run is within **5%** of the fault-free fast path.

The timing is a paired design: clean and empty-schedule runs alternate
(which one goes first alternates too), and the gate is the median of
the per-pair time ratios.  The two runs of a pair see the same host
speed, so drift or a burst of contention cancels inside each pair and
the median discards the few pairs a change of speed splits, where two
back-to-back best-of-N blocks could each catch a different host speed.

The session conftest writes the measured ratio to
``artifacts/BENCH_bench_faults.json``.
"""

import statistics
import time

from repro.collectives import shift
from repro.faults import FaultSchedule
from repro.ordering import topology_order
from repro.sim import PacketSimulator, cps_workload

STAGES = 12
SIZE_KB = 64
MAX_OVERHEAD = 1.05   # empty schedule within 5% of the fast path
TIMING_PAIRS = 41


def _workload(tables):
    n = tables.fabric.num_endports
    cps = shift(n, displacements=range(1, STAGES + 1))
    return cps_workload(cps, topology_order(n), n, SIZE_KB * 1024.0)


def _run(tables, wl, faults=None):
    return PacketSimulator(
        tables, credit_limit=4, engine="vector", faults=faults
    ).run_sequences(wl)


def _paired_times(fn_a, fn_b, pairs=TIMING_PAIRS):
    """Wall times of ``fn_a`` and ``fn_b`` over interleaved pairs, the
    first of each pair alternating between them."""
    times = ([], [])
    for i in range(pairs):
        for k in ((0, 1) if i % 2 == 0 else (1, 0)):
            fn = fn_b if k else fn_a
            t0 = time.perf_counter()
            fn()
            times[k].append(time.perf_counter() - t0)
    return times


def test_empty_schedule_free_n16(benchmark, tables16):
    wl = _workload(tables16)

    clean = _run(tables16, wl)
    faulty = benchmark.pedantic(
        _run, args=(tables16, wl, FaultSchedule()), rounds=3, iterations=1)

    # Bit-identity: the empty schedule must not perturb a single float.
    assert faulty.makespan == clean.makespan
    assert faulty.engine_stats.fast_path == clean.engine_stats.fast_path
    key = lambda r: sorted(  # noqa: E731
        (m.src, m.dst, m.size, m.start, m.inject, m.finish)
        for m in r.messages)
    assert key(faulty) == key(clean)

    clean_s, faulty_s = _paired_times(
        lambda: _run(tables16, wl),
        lambda: _run(tables16, wl, FaultSchedule()))
    t_clean = statistics.median(clean_s)
    t_faulty = statistics.median(faulty_s)
    ratio = statistics.median(f / c for c, f in zip(clean_s, faulty_s))

    benchmark.extra_info["t_clean_ms"] = round(t_clean * 1e3, 3)
    benchmark.extra_info["t_empty_schedule_ms"] = round(t_faulty * 1e3, 3)
    benchmark.extra_info["overhead_ratio"] = round(ratio, 4)
    benchmark.extra_info["fast_path"] = bool(faulty.engine_stats.fast_path)

    assert ratio <= MAX_OVERHEAD, (
        f"empty FaultSchedule costs {100 * (ratio - 1):.1f}% "
        f"(> {100 * (MAX_OVERHEAD - 1):.0f}%) over the fault-free fast path")
