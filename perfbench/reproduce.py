"""``reproduce`` workload: a researcher regenerates the paper's sweeps
and packet runs.

One client, closed loop, three phases:

* a Figure-3/Table-3 random-order HSD sweep -- ``ParallelSweeper(jobs=1)``
  without a cache over the eight Table-2 CPS on n324 plus shift on
  n1944;
* the section-VII packet runs on n324 -- an ordered 16-stage x 256 KB
  shift that the vector engine resolves on its fast path, and a 4-stage
  x 32 KB shift under a random placement whose link conflicts send it to
  the event core;
* a 256-scenario n324 fault grid (16 rotated placements x 16 unfiltered
  ``FaultSchedule.random`` schedules) through ``run_batch``; the
  schedules whose windows touch the collective demote their elements.

``analysis.hsd``, ``sim.*``, ``faults`` and ``runtime.sweep`` do the
work; ``check`` and ``serve`` do almost none.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from statistics import median
from typing import Any

import numpy as np

import repro.faults.controller as controller
import repro.runtime.sweep as sweep
from repro.collectives import CPS_NAMES, by_name, shift
from repro.collectives.cps import CPS
from repro.experiments.common import DEFAULT_SEED, sampled_shift
from repro.fabric import build_fabric
from repro.faults import FaultSchedule
from repro.ordering import random_order, topology_order
from repro.routing import route_dmodk
from repro.sim import PacketSimulator, cps_workload, ordering_batch, run_batch
from repro.topology import paper_topologies

from harness import (
    NULL_TRACER,
    Outcome,
    Speedometer,
    Tracer,
    cold_setup_seconds,
    instrumented,
    latency_summary,
    load_expected,
    peak_rss_mb,
)

#: recorded random-order sweeps and placements; the run seed picks one
POOL = 8
SWEEP_ORDERS = 64              # random orders per sweep cell
MAX_SHIFT_STAGES = 64
FAST_STAGES, FAST_SIZE = 16, 256 * 1024.0
FALLBACK_STAGES, FALLBACK_SIZE = 4, 32 * 1024.0
CREDIT_LIMIT = 4
MAX_EVENTS = 50_000_000
GRID_ORDERS = GRID_SCHEDULES = 16
GRID_STAGES, GRID_SIZE = 4, 2048.0
SWEEP_DELAY, MTBF, HORIZON = 50.0, 25.0, 300.0
GRID_CHECKS = 4                # batch elements re-run solo per run
#: fast-path packet runs per run, per second of --seconds
FAST_RUNS_PER_SECOND = 1.2
FALLBACK_RUNS = 2
BATCH_ROUNDS = 4               # batch grids priced per run
#: a grid is scaled by the kernel samples within GRID_WINDOW_S of it,
#: GRID_TICKS of them right before and right after
GRID_TICKS = 3
GRID_WINDOW_S = 3.0

PHASES = ("reproduce.hsd", "reproduce.packet", "reproduce.batch")
LAYER_SPANS = {
    "analysis.batched_hsd": "analysis.batched_hsd_s",
    "runtime.sweep": "runtime.sweep_overhead_s",
    "sim.workload_build": "sim.workload_build_s",
    "sim.packet_fast": "sim.packet_fast_s",
    "sim.packet_fallback": "sim.packet_fallback_s",
    "faults.schedule_gen": "faults.schedule_gen_s",
    "sim.batch.spec": "sim.batch.spec_s",
    "sim.batch.run": "sim.batch.run_s",
    "faults.healing": "faults.healing_s",
}


def pool_index(seed: int) -> int:
    return seed % POOL


def array_digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()
                          ).hexdigest()[:16]


def sweep_cps(name: str, n: int) -> CPS:
    return sampled_shift(n, MAX_SHIFT_STAGES) if name == "shift" \
        else by_name(name, n)


@dataclass
class Inputs:
    seed: int
    cells: list[tuple[str, Any, CPS]]      # (label, tables, cps)
    tables324: Any
    fast_cps: CPS
    fallback_cps: CPS
    fallback_placement: np.ndarray
    grid_cps: CPS
    grid_placements: np.ndarray
    grid_perm: np.ndarray
    rng: np.random.Generator               # picks the solo-checked elements


def setup(seed: int) -> Inputs:
    topos = paper_topologies()
    t324 = route_dmodk(build_fabric(topos["n324"]))
    t1944 = route_dmodk(build_fabric(topos["n1944"]))
    n = t324.fabric.num_endports
    cells = [(f"n324/{name}", t324, sweep_cps(name, n))
             for name in sorted(CPS_NAMES)]
    cells.append(("n1944/shift", t1944,
                  sweep_cps("shift", t1944.fabric.num_endports)))
    base = topology_order(n)
    orders = np.stack([np.roll(base, k) for k in range(GRID_ORDERS)])
    return Inputs(
        seed=seed, cells=cells, tables324=t324,
        fast_cps=shift(n, displacements=range(1, FAST_STAGES + 1)),
        fallback_cps=shift(n, displacements=range(1, FALLBACK_STAGES + 1)),
        fallback_placement=random_order(n, seed=1 + pool_index(seed)),
        grid_cps=CPS(name=f"shift{GRID_STAGES}", num_ranks=n,
                     stages=shift(n).stages[:GRID_STAGES]),
        grid_placements=np.repeat(orders, GRID_SCHEDULES, axis=0),
        # the grid is fixed so its demotion count -- its work -- is the
        # same for every seed; the seed orders the elements
        grid_perm=np.random.default_rng(seed).permutation(
            GRID_ORDERS * GRID_SCHEDULES),
        rng=np.random.default_rng([seed, 1]))


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def hsd_phase(inp: Inputs, out: Outcome, expected: dict[str, Any],
              tracer: Tracer) -> tuple[float, int]:
    """All sweep cells; returns (wall seconds, placements evaluated)."""
    want = expected["sweeps"][str(pool_index(inp.seed))]
    sweeper = sweep.ParallelSweeper(jobs=1)
    placements = 0
    t0 = time.perf_counter()
    with tracer.span("reproduce.hsd"), instrumented(tracer, [
            (sweep.ParallelSweeper, "order_sweep", "runtime.sweep"),
            (sweep, "batched_sequence_hsd", "analysis.batched_hsd")]):
        for label, tables, cps in inp.cells:
            res = sweeper.order_sweep(tables, cps, num_orders=SWEEP_ORDERS,
                                      seed=DEFAULT_SEED + pool_index(inp.seed))
            placements += SWEEP_ORDERS
            out.check(array_digest(res.avg_max) == want[label],
                      f"sweep {label}: avg_max digest "
                      f"{array_digest(res.avg_max)} != {want[label]}")
    return time.perf_counter() - t0, placements


def packet_run(inp: Inputs, cps: CPS, placement: np.ndarray, size: float,
               span: str, tracer: Tracer):
    n = inp.tables324.fabric.num_endports
    with tracer.span("sim.workload_build"):
        wl = cps_workload(cps, placement, n, size)
    sim = PacketSimulator(inp.tables324, credit_limit=CREDIT_LIMIT,
                          max_events=MAX_EVENTS, engine="vector")
    with tracer.span(span):
        return sim.run_sequences(wl)


def check_packet(out: Outcome, res, want: dict[str, Any], label: str,
                 fast: bool) -> None:
    stats = res.engine_stats
    out.check(res.makespan == want["makespan"]
              and res.normalized_bandwidth == want["normalized_bandwidth"]
              and stats.fast_path == fast and stats.fallback != fast,
              f"{label}: makespan {res.makespan!r} bw "
              f"{res.normalized_bandwidth!r} fast={stats.fast_path} "
              f"!= {want}")


def _timed(speed: Speedometer | None, fn, *args):
    """``fn(*args)`` and its seconds: at the reference speed with
    ``speed``, else wall seconds."""
    if speed is not None:
        return speed.time(fn, *args)
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def packet_phase(inp: Inputs, out: Outcome, expected: dict[str, Any],
                 fast_runs: int, fallback_runs: int, tracer: Tracer,
                 speed: Speedometer | None = None):
    """Returns per-run seconds (at the reference speed with ``speed``)
    and the last result of each kind."""
    n = inp.tables324.fabric.num_endports
    fast_t, fallback_t = [], []
    fast = fallback = None
    with tracer.span("reproduce.packet"):
        for _ in range(fast_runs):
            fast, seconds = _timed(speed, packet_run, inp, inp.fast_cps,
                                   topology_order(n), FAST_SIZE,
                                   "sim.packet_fast", tracer)
            fast_t.append(seconds)
            check_packet(out, fast, expected["packet_fast"], "fast", True)
        want = expected["packet_fallback"][str(pool_index(inp.seed))]
        for _ in range(fallback_runs):
            fallback, seconds = _timed(speed, packet_run, inp,
                                       inp.fallback_cps,
                                       inp.fallback_placement,
                                       FALLBACK_SIZE, "sim.packet_fallback",
                                       tracer)
            fallback_t.append(seconds)
            check_packet(out, fallback, want, "fallback", False)
    return fast_t, fallback_t, fast, fallback


def _price_grid(inp: Inputs, tracer: Tracer):
    tables = inp.tables324
    perm = inp.grid_perm
    with tracer.span("reproduce.batch"):
        with tracer.span("faults.schedule_gen"):
            scheds = [FaultSchedule.random(tables.fabric, seed=s,
                                           horizon=HORIZON, mtbf=MTBF)
                      for s in range(GRID_SCHEDULES)]
        faults = [scheds[i % GRID_SCHEDULES] for i in perm]
        with tracer.span("sim.batch.spec"):
            spec = ordering_batch(tables, inp.grid_cps,
                                  inp.grid_placements[perm], GRID_SIZE,
                                  credit_limit=CREDIT_LIMIT, faults=faults,
                                  sweep_delay=SWEEP_DELAY)
        with tracer.span("sim.batch.run"), instrumented(tracer, [
                (controller.HealingController, "__init__",
                 "faults.healing")]):
            return spec, run_batch(spec)


def batch_phase(inp: Inputs, out: Outcome, expected: dict[str, Any],
                tracer: Tracer, speed: Speedometer | None = None):
    """Generate the schedules, build the spec and price the grid;
    returns its time -- wall seconds, or a :class:`Timed` to scale at
    the end of the run with ``speed`` -- and the result."""
    tables = inp.tables324
    perm = inp.grid_perm
    if speed is None:
        (spec, res), elapsed = _timed(None, _price_grid, inp, tracer)
    else:
        (spec, res), elapsed = speed.measure(_price_grid, inp, tracer,
                                             ticks=GRID_TICKS)
    want = expected["batch"]
    unpermuted = np.empty(len(perm))
    unpermuted[perm] = res.makespans()
    stats = res.stats
    out.check(array_digest(unpermuted) == want["makespans_sha"]
              and stats.fast_path == want["fast_path"]
              and stats.fallback_fault == want["fallback_fault"]
              and stats.errors == 0,
              f"batch grid: {stats} makespans {array_digest(unpermuted)} "
              f"!= {want}")
    # sampled elements equal their solo runs: demoted and fast ones
    rng = inp.rng
    demoted = [e.index for e in res.elements if e.status == "fallback"]
    fast = [e.index for e in res.elements if e.status == "fast"]
    picks = list(rng.choice(demoted, size=min(len(demoted),
                                              GRID_CHECKS // 2),
                            replace=False)) if demoted else []
    picks += list(rng.choice(fast, size=GRID_CHECKS - len(picks),
                             replace=False))
    for i in picks:
        el = spec.elements[int(i)]
        healing = controller.HealingController(
            tables, el.faults, sweep_delay=SWEEP_DELAY,
            strategy=el.repair_strategy)
        solo = PacketSimulator(tables, credit_limit=CREDIT_LIMIT,
                               engine="vector", faults=el.faults,
                               healing=healing).run_sequences(
            el.materialize_sequences(tables.fabric.num_endports))
        got = res.elements[int(i)].packet_result()
        out.check(got.makespan == solo.makespan
                  and np.array_equal(got.latencies, solo.latencies)
                  and got.messages == solo.messages,
                  f"batch element {int(i)} differs from its solo run")
    return elapsed, res


# ----------------------------------------------------------------------
def run(seed: int, seconds: int, tracer: Tracer) -> Outcome:
    out = Outcome()
    expected = load_expected()["reproduce"]
    inp = setup(seed)
    # warm-up: lazy imports and first-touch allocations stay untimed
    packet_run(inp, inp.fast_cps, topology_order(
        inp.tables324.fabric.num_endports), FAST_SIZE, "", NULL_TRACER)

    if tracer.enabled:
        walls = []
        for tr in (NULL_TRACER, tracer):
            t0 = time.perf_counter()
            hsd_s, placements = hsd_phase(inp, out, expected, tr)
            fast_t, fallback_t, fast, fallback = packet_phase(
                inp, out, expected, 1, 1, tr)
            batch_s, res = batch_phase(inp, out, expected, tr)
            walls.append(time.perf_counter() - t0)
        out.metric("trace.overhead_s", walls[1] - walls[0])
        out.metric("analysis.hsd_placements_per_s", placements / hsd_s)
        stats = fast.engine_stats
        out.metric("sim.packets", stats.packets)
        out.metric("sim.events_saved", stats.events_saved)
        out.metric("sim.packet_fast_mpkts_per_s",
                   stats.packets / fast_t[0] / 1e6)
        out.metric("sim.conflicts", fallback.engine_stats.conflicts)
        out.metric("sim.packet_fallback_kpkts_per_s",
                   fallback.engine_stats.packets / fallback_t[0] / 1e3)
        for name in ("fast_path", "fallback_route", "fallback_budget",
                     "fallback_conflict", "fallback_fault"):
            out.metric(f"sim.batch.{name}", getattr(res.stats, name))
        return out

    speed = Speedometer()
    setup_s = cold_setup_seconds("reproduce", seed, speed)
    hsd_s, placements = hsd_phase(inp, out, expected, NULL_TRACER)
    n_fast = max(20, round(FAST_RUNS_PER_SECOND * seconds))
    rounds = max(BATCH_ROUNDS, round(seconds / 7))
    # packet runs and batch grids alternate so that each samples the
    # whole run
    fast_t, fallback_t, batch_t = [], [], []
    fallback = None
    for r in range(rounds):
        ft, fb, fast, fb_res = packet_phase(
            inp, out, expected, n_fast // rounds + (r < n_fast % rounds),
            int(r < FALLBACK_RUNS), NULL_TRACER, speed)
        fast_t += ft
        fallback_t += fb
        fallback = fb_res or fallback
        batch_s, res = batch_phase(inp, out, expected, NULL_TRACER, speed)
        batch_t.append(batch_s)
    lat = latency_summary(fast_t)
    # median of per-grid rates: one grid caught in a stall moves it less
    grid_rate = median(len(res) / speed.seconds(t, GRID_WINDOW_S)
                       for t in batch_t)
    print(f"reproduce: hsd {placements / hsd_s:.1f} placements/s (wall); "
          f"packet fast n={lat['n']} p50 {lat['p50']:.4f}s "
          f"p{lat['tail_p']:.1f} {lat['tail']:.4f}s "
          f"({fast.engine_stats.packets / lat['p50'] / 1e6:.2f} Mpkts/s); "
          f"fallback {min(fallback_t):.3f}s "
          f"({fallback.engine_stats.conflicts} conflicts); "
          f"{rounds} batch grids of {len(res)} scenarios, median "
          f"{len(res) / grid_rate:.3f}s, {res.stats} "
          f"(times at the reference speed; host speed "
          f"{speed.factor():.2f}x the reference)")
    out.metric("setup_s", setup_s)
    out.metric("peak_rss_mb", peak_rss_mb())
    out.metric("latency_p50_ms", lat["p50"] * 1e3)
    out.metric("latency_tail_ms", lat["tail"] * 1e3)
    out.metric("throughput_per_s", grid_rate)
    return out
