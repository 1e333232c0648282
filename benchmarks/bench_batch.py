"""Mega-batch engine bench: a 1k-scenario fault/ordering grid on n324.

The batch engine (``repro.sim.batch``) exists to make *scenario
grids* -- placement sweeps, chaos campaigns, fault spaces -- priceable
as a handful of NumPy programs instead of one Python-driven simulation
per scenario.  This bench pins the claim at paper scale: a grid of
1024 scenarios (16 rotated placements x 64 seeded fault schedules, a
4-stage shift window at 2 KB on the 324-port RLFT) runs

* per scenario: ``HealingController`` + ``PacketSimulator`` with the
  fault plane enabled -- the exact loop the chaos and fault-space
  drivers used to run;
* batched: one :func:`repro.sim.ordering_batch` spec through
  :func:`repro.sim.run_batch`.

The fault schedules are filtered so every fault window opens after
the collective drains; the batch side must resolve **every** element
on the analytic fast path, each element must be **bit-identical** to
its per-scenario run, and the batch must be **>= 50x faster**.  The
session conftest writes the numbers to ``artifacts/BENCH_batch.json``.

Under shift every rotation of a placement is one port-level workload,
so the rotated grids price one workload and repeat it.  The
leaf-permuted grid gives every element its own contention-free
workload (the hosts of every leaf permuted alike, at random per
element) and records what a grid without repeats costs per element;
it checks bit-identity and has no speed gate.
"""

import time

import numpy as np

from repro.collectives.cps import CPS, shift
from repro.faults import FaultSchedule
from repro.faults.controller import HealingController
from repro.ordering import topology_order
from repro.sim import PacketSimulator, cps_workload, ordering_batch, run_batch

SIZE = 2048.0
STAGES = 4
SWEEP_DELAY = 50.0
MTBF = 25.0
HORIZON = 300.0
GRID = 1024
NUM_ORDERS = 16
NUM_SCHEDULES = 64
LOOP_SAMPLES = 6
MIN_SPEEDUP = 50.0
MIN_WINDOW_START = 20.0


def _schedules(fab):
    """The first ``NUM_SCHEDULES`` seeds whose every fault window (dead
    or flaky) opens at ``MIN_WINDOW_START`` or later -- late enough to
    stay clear of the collective's few-microsecond drain."""
    out, seed = [], 0
    while len(out) < NUM_SCHEDULES:
        s = FaultSchedule.random(fab, seed=seed, horizon=HORIZON, mtbf=MTBF)
        seed += 1
        starts = [iv[2] for iv in s.down_intervals(fab)] + \
                 [iv[2] for iv in s.flaky_intervals(fab)]
        if all(st >= MIN_WINDOW_START for st in starts):
            out.append(s)
    return out


def _loop_once(tables, cps, placement, sched):
    n = tables.fabric.num_endports
    wl = cps_workload(cps, placement, n, SIZE)
    healing = HealingController(tables, sched, sweep_delay=SWEEP_DELAY)
    return PacketSimulator(tables, credit_limit=4, engine="vector",
                           faults=sched, healing=healing).run_sequences(wl)


def test_batch_fault_grid_speedup_n324(benchmark, tables324):
    fab = tables324.fabric
    n = fab.num_endports
    cps = CPS(name=f"shift{STAGES}", num_ranks=n,
              stages=shift(n).stages[:STAGES])
    base = topology_order(n)
    orders = np.stack([np.roll(base, k) for k in range(NUM_ORDERS)])
    placements = np.tile(orders, (GRID // NUM_ORDERS, 1))[:GRID]
    scheds = _schedules(fab)
    faults = [scheds[i % NUM_SCHEDULES] for i in range(GRID)]
    spec = ordering_batch(tables324, cps, placements, SIZE,
                          credit_limit=4, faults=faults,
                          sweep_delay=SWEEP_DELAY)

    res = benchmark.pedantic(run_batch, args=(spec,), rounds=3,
                             iterations=1)
    t_batch = benchmark.stats.stats.mean

    # Every element must resolve analytically; a single demotion means
    # the grid no longer measures the tensorized path.
    assert res.stats.fast_path == GRID, res.stats

    # Bit-identity against the per-scenario loop: every sampled element
    # in full (records included), every element's makespan.
    t0 = time.perf_counter()
    sample = range(0, GRID, GRID // LOOP_SAMPLES)
    for i in sample:
        ref = _loop_once(tables324, cps, placements[i], faults[i])
        got = res.elements[i].packet_result()
        assert got.makespan == ref.makespan
        assert np.array_equal(got.latencies, ref.latencies)
        assert got.messages == ref.messages
    t_loop = (time.perf_counter() - t0) / len(list(sample))

    per_elem = t_batch / GRID
    speedup = t_loop / per_elem
    benchmark.extra_info["endports"] = n
    benchmark.extra_info["grid"] = GRID
    benchmark.extra_info["orders"] = NUM_ORDERS
    benchmark.extra_info["schedules"] = NUM_SCHEDULES
    benchmark.extra_info["mtbf_us"] = MTBF
    benchmark.extra_info["batch_ms_per_elem"] = round(per_elem * 1e3, 3)
    benchmark.extra_info["loop_ms_per_elem"] = round(t_loop * 1e3, 1)
    benchmark.extra_info["speedup_vs_loop"] = round(speedup, 1)
    benchmark.extra_info["events_saved"] = int(res.stats.events_saved)
    assert speedup >= MIN_SPEEDUP, (
        f"batch engine only {speedup:.1f}x faster than the per-scenario "
        f"loop ({per_elem * 1e3:.2f} ms vs {t_loop * 1e3:.1f} ms per "
        f"element); target {MIN_SPEEDUP:.0f}x"
    )


def test_batch_distinct_workload_fault_grid_n324(benchmark, tables324):
    """The fault grid with no repeated workload: every element its own
    leaf-permuted topology order.  Bit-identity against the
    per-scenario loop; the per-element cost is recorded, not gated."""
    fab = tables324.fabric
    n = fab.num_endports
    cps = CPS(name=f"shift{STAGES}", num_ranks=n,
              stages=shift(n).stages[:STAGES])
    leaf = fab.peer_node[fab.port_start[:n]]
    hosts = int(np.count_nonzero(leaf == leaf[0]))
    base = topology_order(n)
    rng = np.random.default_rng(0)
    ranks = np.arange(n)
    placements = np.stack([
        base[hosts * (ranks // hosts) + rng.permutation(hosts)[ranks % hosts]]
        for _ in range(GRID)])
    scheds = _schedules(fab)
    faults = [scheds[i % NUM_SCHEDULES] for i in range(GRID)]
    spec = ordering_batch(tables324, cps, placements, SIZE,
                          credit_limit=4, faults=faults,
                          sweep_delay=SWEEP_DELAY)
    assert len({el.dst.tobytes() for el in spec.elements}) == GRID

    res = benchmark.pedantic(run_batch, args=(spec,), rounds=3,
                             iterations=1)
    t_batch = benchmark.stats.stats.mean
    assert res.stats.fast_path == GRID, res.stats

    t0 = time.perf_counter()
    sample = range(0, GRID, GRID // LOOP_SAMPLES)
    for i in sample:
        ref = _loop_once(tables324, cps, placements[i], faults[i])
        got = res.elements[i].packet_result()
        assert got.makespan == ref.makespan
        assert np.array_equal(got.latencies, ref.latencies)
        assert got.messages == ref.messages
    t_loop = (time.perf_counter() - t0) / len(sample)

    benchmark.extra_info["endports"] = n
    benchmark.extra_info["grid"] = GRID
    benchmark.extra_info["distinct_workloads"] = GRID
    benchmark.extra_info["schedules"] = NUM_SCHEDULES
    benchmark.extra_info["batch_ms_per_elem"] = round(
        t_batch / GRID * 1e3, 3)
    benchmark.extra_info["loop_ms_per_elem"] = round(t_loop * 1e3, 1)
    benchmark.extra_info["speedup_vs_loop"] = round(
        t_loop / (t_batch / GRID), 1)


def test_batch_fault_free_ordering_grid_n324(benchmark, tables324):
    """The fault-free placement sweep (fig3's inner loop): the win is
    smaller -- no healing controller to amortise -- but still real."""
    n = tables324.fabric.num_endports
    cps = CPS(name=f"shift{STAGES}", num_ranks=n,
              stages=shift(n).stages[:STAGES])
    base = topology_order(n)
    placements = np.stack([np.roll(base, k % n) for k in range(GRID)])
    spec = ordering_batch(tables324, cps, placements, SIZE, credit_limit=4)

    res = benchmark.pedantic(run_batch, args=(spec,), rounds=3,
                             iterations=1)
    t_batch = benchmark.stats.stats.mean
    assert res.stats.fast_path == GRID, res.stats

    t0 = time.perf_counter()
    for i in range(0, GRID, GRID // LOOP_SAMPLES):
        wl = cps_workload(cps, placements[i], n, SIZE)
        ref = PacketSimulator(tables324, credit_limit=4,
                              engine="vector").run_sequences(wl)
        got = res.elements[i].packet_result()
        assert got.makespan == ref.makespan
        assert np.array_equal(got.latencies, ref.latencies)
    t_loop = (time.perf_counter() - t0) / LOOP_SAMPLES

    speedup = t_loop / (t_batch / GRID)
    benchmark.extra_info["endports"] = n
    benchmark.extra_info["grid"] = GRID
    benchmark.extra_info["batch_ms_per_elem"] = round(
        t_batch / GRID * 1e3, 3)
    benchmark.extra_info["loop_ms_per_elem"] = round(t_loop * 1e3, 2)
    benchmark.extra_info["speedup_vs_loop"] = round(speedup, 1)
    assert speedup >= 2.0, (
        f"fault-free batch only {speedup:.1f}x vs the unbatched loop")
