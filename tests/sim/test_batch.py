"""Mega-batch engine vs solo runs: bit-identical per element.

The batch engine (``repro.sim.batch``) folds many scenarios into one
wave calendar but promises the *same* per-element results as running
``PacketSimulator(engine="vector")`` (a batch of one) once per scenario
-- fast path, demoted, or error alike -- and the same observable
results as the event-driven core, ``PacketSimulator(engine="reference")``.
The suite mixes fast and demoted elements in one batch (conflicts, fault
overlaps, route anomalies, event budgets, credit regimes, empty
workloads) and checks full result equality: makespan, latency array,
per-message records, and engine stats.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.cps import CPS, ring, shift
from repro.fabric import build_fabric
from repro.faults import FaultEvent, FaultSchedule
from repro.ordering import random_order, topology_order
from repro.routing import route_dmodk
from repro.sim import (
    INHERIT,
    BatchSpec,
    PacketSimulator,
    ScenarioSpec,
    SimulationError,
    cps_workload,
    cps_workload_arrays,
    ordering_batch,
    run_batch,
)
from repro.topology import pgft

SIZE = 8 * 1024.0


@pytest.fixture(scope="module")
def tables16():
    return route_dmodk(build_fabric(pgft(2, [4, 4], [1, 4], [1, 1])))


def unbatched(tables, el, *, credit_limit=None, max_events=5_000_000,
              engine="vector"):
    n = tables.fabric.num_endports
    cl = credit_limit if isinstance(el.credit_limit, type(INHERIT)) \
        else el.credit_limit
    from repro.sim.batch import _lazy_healing

    sim = PacketSimulator(tables, credit_limit=cl, max_events=max_events,
                          engine=engine, faults=el.faults,
                          healing=_lazy_healing(tables, el))
    return sim.run_sequences(el.materialize_sequences(n))


def assert_result_identical(got, ref):
    assert got.makespan == ref.makespan
    assert np.array_equal(got.latencies, ref.latencies)
    assert got.total_bytes == ref.total_bytes
    assert got.messages == ref.messages
    gs, rs = got.engine_stats, ref.engine_stats
    assert (gs.engine, gs.fast_path, gs.fallback, gs.conflicts,
            gs.messages, gs.packets, gs.events_saved) == \
        (rs.engine, rs.fast_path, rs.fallback, rs.conflicts,
         rs.messages, rs.packets, rs.events_saved)


def assert_batch_matches(spec: BatchSpec):
    """Every element of a batch equals its one-scenario-at-a-time run,
    and its observable results equal the event core's."""
    res = run_batch(spec)
    assert len(res) == len(spec.elements)
    for i, e in enumerate(res.elements):
        el = spec.elements[i]
        try:
            ref = unbatched(spec.tables, el,
                            credit_limit=spec.credit_limit,
                            max_events=spec.max_events)
        except SimulationError as err:
            assert e.status == "error"
            with pytest.raises(SimulationError) as exc:
                e.packet_result()
            assert str(exc.value) == str(err)
            assert math.isnan(e.makespan)
            continue
        got = e.packet_result()
        assert_result_identical(got, ref)
        # the cheap array metrics agree with the materialised result
        assert e.makespan == ref.makespan
        assert np.array_equal(e.latencies, ref.latencies)
        core = unbatched(spec.tables, el, credit_limit=spec.credit_limit,
                         max_events=spec.max_events, engine="reference")
        assert got.messages == core.messages
        assert got.makespan == core.makespan
        assert np.array_equal(got.latencies, core.latencies)
        assert got.total_bytes == core.total_bytes
    return res


def seqs_for(tables, cps, order, size=SIZE):
    n = tables.fabric.num_endports
    return cps_workload(cps, order, n, size)


def test_mixed_batch_fast_and_demoted(tables16):
    """One batch holding every resolution mode the engine knows."""
    tables = tables16
    fab = tables.fabric
    n = fab.num_endports
    ordered = seqs_for(tables, shift(n), topology_order(n))
    conflicted = seqs_for(tables, shift(n), random_order(n, seed=3))
    # a fault window squarely inside the run: forces the fault fallback
    used_gport = int(fab.port_start[0])
    hot = FaultSchedule(events=(
        FaultEvent(time=0.0, kind="link_down", gport=used_gport),))
    # a fault far beyond the run: stays on the analytic fast path
    cold = FaultSchedule(events=(
        FaultEvent(time=1e9, kind="link_down", gport=used_gport),))
    spec = BatchSpec(tables=tables, elements=[
        ScenarioSpec(sequences=ordered, label="fast"),
        ScenarioSpec(sequences=conflicted, label="conflict"),
        ScenarioSpec(sequences=ordered, faults=hot, label="fault"),
        ScenarioSpec(sequences=ordered, faults=cold, label="fault-free"),
        ScenarioSpec(sequences=[[] for _ in range(n)], label="empty"),
        ScenarioSpec(sequences=ordered, credit_limit=1, label="credit1"),
    ], credit_limit=4)
    res = assert_batch_matches(spec)
    statuses = {e.label: e.status for e in res.elements}
    assert statuses["fast"] == "fast"
    assert statuses["conflict"] == "fallback"
    assert res.elements[1].reason == "conflict"
    assert statuses["fault"] == "fallback"
    assert res.elements[2].reason == "fault"
    assert statuses["fault-free"] == "fast"
    assert statuses["empty"] == "fast"
    # credit1 stalls on its single credit and demotes via conflict too
    assert res.stats.total == 6
    assert res.stats.fast_path == 3
    assert res.stats.fallback_conflict == 2
    assert res.stats.fallback_fault == 1


def test_route_anomaly_demotes_only_owner(tables16):
    """Dead-cable routes demote their element; the rest stay batched."""
    fab = build_fabric(pgft(2, [4, 4], [1, 4], [1, 1]))
    base = route_dmodk(fab)
    # Kill a switch-to-switch cable but keep the *stale* tables: routes
    # through it walk into a dead cable, exactly the per-row anomaly.
    up = np.flatnonzero(fab.port_goes_up() &
                        (fab.port_owner >= fab.num_endports))
    dead = build_fabric(pgft(2, [4, 4], [1, 4], [1, 1])) \
        .with_failed_cables(np.asarray([int(up[0])]))
    from repro.fabric import ForwardingTables

    stale = ForwardingTables(fabric=dead, switch_out=base.switch_out,
                             host_up=base.host_up)
    n = dead.num_endports
    all2 = seqs_for(stale, shift(n), topology_order(n))
    one = [[(1, SIZE)] if p == 0 else [] for p in range(n)]
    spec = BatchSpec(tables=stale, elements=[
        ScenarioSpec(sequences=all2, label="through-dead"),
        ScenarioSpec(sequences=one, label="leaf-local"),
    ])
    res = run_batch(spec)
    assert res.elements[0].status in ("fallback", "error")
    if res.elements[0].status == "fallback":
        assert res.elements[0].reason == "route"
    assert res.elements[1].status == "fast"
    ref = unbatched(stale, spec.elements[1])
    assert_result_identical(res.elements[1].packet_result(), ref)


def test_budget_demotion(tables16):
    n = tables16.fabric.num_endports
    ordered = seqs_for(tables16, shift(n), topology_order(n))
    tiny = [[(n - 1 - p if p != n - 1 - p else (p + 1) % n, 1024.0)]
            for p in range(n)]
    spec = BatchSpec(tables=tables16, elements=[
        ScenarioSpec(sequences=ordered, label="big"),
        ScenarioSpec(sequences=tiny, label="small"),
    ], max_events=40)
    res = assert_batch_matches(spec)
    assert res.elements[0].status in ("fallback", "error")
    assert res.elements[0].reason == "budget"


def test_credit_grouping_matches_per_element(tables16):
    n = tables16.fabric.num_endports
    wl = seqs_for(tables16, ring(n), topology_order(n))
    spec = BatchSpec(tables=tables16, elements=[
        ScenarioSpec(sequences=wl, credit_limit=c, label=f"c{c}")
        for c in (1, 2, None, 2, 1, 8)
    ] + [ScenarioSpec(sequences=wl, label="inherit")], credit_limit=4)
    assert_batch_matches(spec)


def test_occupancy_exposed_only_on_fast_path(tables16):
    n = tables16.fabric.num_endports
    spec = BatchSpec(tables=tables16, elements=[
        ScenarioSpec(sequences=seqs_for(tables16, shift(n),
                                        topology_order(n))),
        ScenarioSpec(sequences=seqs_for(tables16, shift(n),
                                        random_order(n, seed=3))),
    ], credit_limit=4)
    res = run_batch(spec)
    la, ea, xa = res.elements[0].occupancy()
    assert len(la) == len(ea) == len(xa) > 0
    assert (ea <= xa).all()
    assert res.elements[1].status == "fallback"
    with pytest.raises(ValueError, match="no analytic occupancy"):
        res.elements[1].occupancy()


def test_spec_validation(tables16):
    with pytest.raises(ValueError, match="exactly one"):
        ScenarioSpec()
    with pytest.raises(ValueError, match="exactly one"):
        ScenarioSpec(sequences=[[]], dst=np.zeros((1, 1), dtype=np.int64),
                     size=np.zeros((1, 1)), nmsg=np.zeros(1, dtype=np.int64))
    with pytest.raises(ValueError, match="without faults"):
        ScenarioSpec(sequences=[[]], sweep_delay=5.0)
    with pytest.raises(ValueError, match="need 16 sequences"):
        run_batch(BatchSpec(tables=tables16,
                            elements=[ScenarioSpec(sequences=[[]])]))
    assert len(run_batch(BatchSpec(tables=tables16, elements=[]))) == 0


def test_cps_workload_arrays_matches_lists(tables16):
    n = tables16.fabric.num_endports
    placements = np.stack([topology_order(n), random_order(n, seed=1),
                           np.roll(topology_order(n), 3)])
    for cps in (shift(n), ring(n)):
        dst3, size3, nmsg2 = cps_workload_arrays(cps, placements, n, SIZE)
        for t in range(placements.shape[0]):
            ref = cps_workload(cps, placements[t], n, SIZE)
            for p in range(n):
                got = [(int(dst3[t, p, k]), float(size3[t, p, k]))
                       for k in range(int(nmsg2[t, p]))]
                assert got == [(d, s) for d, s in ref[p]], (t, p)


def test_cps_workload_arrays_rejects_multi_send():
    # a hand-built stage where rank 0 sends twice
    n = 4
    st_ = shift(n).stages[0]
    twice = CPS(name="twice", num_ranks=n, stages=(st_, st_))
    pairs = np.asarray([[0, 1], [0, 2]] + [[-1, -1]] * 2)
    bad = CPS(name="bad", num_ranks=n, stages=(
        type(st_)(label="x", pairs=pairs),))
    with pytest.raises(ValueError, match="more than one message"):
        cps_workload_arrays(bad, np.arange(n)[None, :], n, SIZE)
    # but one send per stage across two stages is fine (K == 2)
    dst3, _s, nmsg2 = cps_workload_arrays(
        twice, np.arange(n)[None, :], n, SIZE)
    assert dst3.shape[2] == 2
    assert int(nmsg2.max()) == 2


def test_ordering_batch_grid(tables16):
    n = tables16.fabric.num_endports
    placements = np.stack([np.roll(topology_order(n), k)
                           for k in range(4)] + [random_order(n, seed=3)])
    spec = ordering_batch(tables16, shift(n), placements, SIZE,
                          credit_limit=4)
    assert len(spec.elements) == 5
    res = assert_batch_matches(spec)
    # the ordered rolls stay analytic; the random row conflicts
    assert [e.status for e in res.elements[:4]] == ["fast"] * 4
    assert res.elements[4].status == "fallback"


def test_ordering_batch_with_faults_and_sweep_delay(tables16):
    n = tables16.fabric.num_endports
    fab = tables16.fabric
    placements = np.stack([topology_order(n), np.roll(topology_order(n), 2)])
    used = int(fab.port_start[0])
    scheds = [
        FaultSchedule(events=(
            FaultEvent(time=0.0, kind="link_down", gport=used),)),
        FaultSchedule(events=(
            FaultEvent(time=1e9, kind="link_down", gport=used),)),
    ]
    spec = ordering_batch(tables16, shift(n), placements, SIZE,
                          credit_limit=4, faults=scheds, sweep_delay=25.0)
    res = assert_batch_matches(spec)
    assert res.elements[0].status == "fallback"
    assert res.elements[0].reason == "fault"
    assert res.elements[1].status == "fast"


class TestBatchOfOneProperty:
    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 2, 4]),
           st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_batch_of_one_is_bit_identical(self, seed, credit, use_arrays):
        tables = route_dmodk(build_fabric(pgft(2, [4, 4], [1, 4], [1, 1])))
        n = tables.fabric.num_endports
        rng = np.random.default_rng(seed)
        # random workload: each port sends 0-3 messages of varied size
        seqs = []
        for p in range(n):
            k = int(rng.integers(0, 4))
            seqs.append([(int(rng.integers(0, n)),
                          float(rng.choice([512.0, 2048.0, 8192.0])))
                         for _ in range(k)])
        if use_arrays:
            kmax = max((len(s) for s in seqs), default=0)
            dst = np.zeros((n, max(kmax, 1)), dtype=np.int64)
            size = np.zeros((n, max(kmax, 1)))
            nmsg = np.zeros(n, dtype=np.int64)
            for p, s in enumerate(seqs):
                nmsg[p] = len(s)
                for k, (d, sz) in enumerate(s):
                    dst[p, k] = d
                    size[p, k] = sz
            el = ScenarioSpec(dst=dst, size=size, nmsg=nmsg)
        else:
            el = ScenarioSpec(sequences=seqs)
        res = run_batch(BatchSpec(tables=tables, elements=[el],
                                  credit_limit=credit))
        ref = PacketSimulator(tables, credit_limit=credit,
                              engine="vector").run_sequences(seqs)
        got = res.elements[0].packet_result()
        assert_result_identical(got, ref)



def test_kernel_prices_each_distinct_workload_once(tables16, monkeypatch):
    """A 1 024-element grid of 16 distinct placements, each repeated in
    every chunk of the batch, advances only 16 x N rows per wave."""
    import repro.sim.batch as batch

    n = tables16.fabric.num_endports
    stages = 4
    cps = CPS(name="shift4", num_ranks=n, stages=shift(n).stages[:stages])
    # topology order with the hosts of every leaf permuted alike: the
    # traffic stays contention-free, and (unlike rotations, which shift
    # maps onto one port-level workload) each placement is its own
    # workload
    perms = itertools.islice(itertools.permutations(range(4)), 16)
    orders = np.stack([[4 * (r // 4) + p[r % 4] for r in range(n)]
                       for p in perms])
    dst3, _size, _nmsg = cps_workload_arrays(cps, orders, n, SIZE)
    assert len({d.tobytes() for d in dst3}) == 16
    grid = 1024
    assert grid > batch._CHUNK_ELEMS
    used = int(tables16.fabric.port_start[0])
    scheds = [None] + [FaultSchedule(events=(
        FaultEvent(time=t, kind="link_down", gport=used),))
        for t in (0.0, 1e9)]
    spec = ordering_batch(tables16, cps, np.tile(orders, (grid // 16, 1)),
                          SIZE, credit_limit=4,
                          faults=[scheds[i // 16 % 3] for i in range(grid)])
    rows = []
    advance = batch._advance_wave

    def spy(cal, limit, f0, *args):
        rows.append(len(f0))
        return advance(cal, limit, f0, *args)

    monkeypatch.setattr(batch, "_advance_wave", spy)
    res = run_batch(spec)
    monkeypatch.undo()
    assert rows == [16 * n] * stages
    # each repeat reads its workload's timestamps and demotes only on
    # its own schedule
    for i, e in enumerate(res.elements):
        first = res.elements[i % 16]
        if i // 16 % 3 == 1:
            assert e.reason == "fault", i
        else:
            assert e.status == "fast", i
            assert e.makespan == first.makespan
            assert np.array_equal(e.latencies, first.latencies)
    for i in (0, 17, 1023):
        assert_result_identical(res.elements[i].packet_result(),
                                unbatched(tables16, spec.elements[i],
                                          credit_limit=4))


def test_event_core_runs_each_distinct_demoted_scenario_once(tables16,
                                                             monkeypatch):
    """A grid of rotated topology orders (one port-level workload under
    shift) and a random order (its own workload, which conflicts) x
    schedules x sweep delays runs the event core once per distinct
    demoted (workload, schedule, healing settings) key, and every
    demoted element still equals its solo run."""
    n = tables16.fabric.num_endports
    used = int(tables16.fabric.port_start[0])
    scheds = [None] + [FaultSchedule(events=(
        FaultEvent(time=t, kind="link_down", gport=used),))
        for t in (0.0, 1e9, 0.5)]
    orders = [np.roll(topology_order(n), k) for k in range(4)] \
        + [random_order(n, seed=3)]
    cells = list(itertools.product(range(len(orders)), range(len(scheds)),
                                   (None, 25.0)))
    spec = ordering_batch(tables16, shift(n),
                          np.stack([orders[o] for o, _, _ in cells]), SIZE,
                          credit_limit=4,
                          faults=[scheds[s] for _, s, _ in cells])
    spec.elements = [
        dataclasses.replace(el, sweep_delay=None if el.faults is None
                            else delay)
        for el, (_, _, delay) in zip(spec.elements, cells)]
    calls = []
    core = PacketSimulator._run_event_core

    def spy(self, sequences):
        calls.append(id(self.faults))
        return core(self, sequences)

    monkeypatch.setattr(PacketSimulator, "_run_event_core", spy)
    res = run_batch(spec)
    monkeypatch.undo()
    demoted = [i for i, e in enumerate(res.elements)
               if e.status != "fast"]
    keys = {(spec.elements[i].dst.tobytes(), id(spec.elements[i].faults),
             spec.elements[i].sweep_delay) for i in demoted}
    # 8 conflicting random-order elements (7 keys: without a schedule
    # both delays are None) and 16 rotated ones under the two schedules
    # that hit the run (4 keys)
    assert (len(demoted), len(keys)) == (24, 11)
    assert len(calls) == len(keys)
    for i in demoted:
        got = res.elements[i].packet_result()
        ref = unbatched(tables16, spec.elements[i], credit_limit=4)
        assert_result_identical(got, ref)
        assert got.fault_report == ref.fault_report


def test_workload_key_collisions_do_not_merge_workloads(tables16,
                                                        monkeypatch):
    """With every workload hashed to one key, elements still group by
    their bytes (signed zeros apart) or their shared ``sequences``, and
    every element equals its solo run."""
    import repro.sim.batch as batch

    n = tables16.fabric.num_endports
    arrays = cps_workload_arrays(
        shift(n), np.stack([topology_order(n), random_order(n, seed=3)]),
        n, SIZE)
    ordered, shuffled = ([a[t] for a in arrays] for t in (0, 1))
    dst, size, nmsg = ordered
    signed = size.copy()
    signed[0, 0] = 0.0
    negative = signed.copy()
    negative[0, 0] = -0.0
    seqs = cps_workload(shift(n), topology_order(n), n, SIZE)
    elements = [
        ScenarioSpec(dst=dst, size=size, nmsg=nmsg),               # 0
        ScenarioSpec(dst=shuffled[0], size=shuffled[1],
                     nmsg=shuffled[2]),                            # 1
        ScenarioSpec(dst=dst.copy(), size=size.copy(),
                     nmsg=nmsg.copy()),                            # 0
        ScenarioSpec(sequences=seqs),                              # 2
        ScenarioSpec(dst=dst, size=signed, nmsg=nmsg),             # 3
        ScenarioSpec(dst=dst, size=negative, nmsg=nmsg),           # 4
        ScenarioSpec(sequences=seqs),                              # 2
        ScenarioSpec(dst=dst, size=signed.copy(), nmsg=nmsg),      # 3
        ScenarioSpec(sequences=list(seqs)),                        # 5
    ]
    monkeypatch.setattr(batch, "_workload_digest", lambda el: 0)
    assert batch._distinct_workloads(elements, list(range(9))) == \
        [[0, 2], [1], [3, 6], [4, 7], [5], [8]]
    assert_batch_matches(BatchSpec(tables=tables16, elements=elements,
                                   credit_limit=4))
