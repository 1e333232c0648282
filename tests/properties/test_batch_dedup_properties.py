"""A workload shared by many batch elements is priced once, and every
element still equals its solo run.

:func:`repro.sim.run_batch` keys each element by its workload -- array
elements by the bytes of ``dst``/``size``/``nmsg``, sequence elements by
the identity of their ``sequences`` list -- and advances each distinct
workload through the wave kernel and the conflict screen once; each
element then applies its own fault schedule and healing to the shared
occupancy.  Over small fabrics (healthy tables and stale tables over a
missing cable), batches here repeat each workload three ways -- the same
array objects, equal-content copies and one shared ``sequences`` list --
and pair every repeat with its own fault schedule, sweep delay and credit
limit.  A second family repeats each workload with everything an
event-core run reads -- schedule, healing settings (or one shared
explicit controller), credit limit -- or differs in exactly one of sweep
delay, repair strategy and credit limit, over stale tables and small
event budgets, so that repeats demote or raise together and share one
event-core run.  Every element must equal its solo ``PacketSimulator(
engine="vector")`` run -- records, latencies, makespan, engine
statistics and fault report, floats compared by their bits -- or raise
the same error text, :class:`BatchStats` must equal the per-element
counts, and no two elements may share a ``messages`` list or a
``latencies`` array.
"""

import dataclasses
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import shift
from repro.fabric import ForwardingTables, build_fabric
from repro.faults import FaultEvent, FaultSchedule, HealingController
from repro.faults.schedule import FLAKY, LINK_DOWN, LINK_UP, SWITCH_DOWN
from repro.ordering import random_order, topology_order
from repro.routing import route_dmodk
from repro.sim import (
    INHERIT,
    BatchSpec,
    PacketSimulator,
    ScenarioSpec,
    SimulationError,
    cps_workload,
    run_batch,
)
from repro.topology import pgft

SPECS = (pgft(2, [4, 4], [1, 4], [1, 1]), pgft(2, [4, 4], [1, 2], [1, 2]))
SIZES = (0.0, 17.0, 2048.0, 2049.0, 8192.0)
REPEATS = ("same", "copy", "shared")
LIMITS = (INHERIT, INHERIT, None, 1, 2, 4)
SWEEP_DELAYS = (None, 0.0, 0.5, 3.0)


def _stale(spec):
    """Tables routed on the healthy fabric, over a copy of it with one
    switch-to-switch cable missing: routes through it demote."""
    fab = build_fabric(spec)
    base = route_dmodk(fab)
    up = np.flatnonzero(fab.port_goes_up()
                        & (fab.port_owner >= fab.num_endports))
    dead = build_fabric(spec).with_failed_cables(np.asarray([int(up[0])]))
    return ForwardingTables(fabric=dead, switch_out=base.switch_out,
                            host_up=base.host_up)


TABLES = tuple(route_dmodk(build_fabric(s)) for s in SPECS) \
    + tuple(_stale(s) for s in SPECS)


def _cables(fab):
    """Directed gports with a cable, one per cable."""
    peer = fab.port_peer
    gps = np.flatnonzero(peer >= 0)
    return gps[gps < peer[gps]].tolist()


def _arrays(seqs):
    """The array form ``(dst, size, nmsg)`` of per-port sequences."""
    n = len(seqs)
    k = max(1, max(len(s) for s in seqs))
    dst = np.zeros((n, k), dtype=np.int64)
    size = np.zeros((n, k))
    nmsg = np.asarray([len(s) for s in seqs], dtype=np.int64)
    for p, seq in enumerate(seqs):
        for j, (d, sz) in enumerate(seq):
            dst[p, j] = d
            size[p, j] = sz
    return dst, size, nmsg


@st.composite
def workloads(draw, n):
    """Per-port sequences: a few shift stages under an ordered or a
    random placement (random ones conflict), or free-form traffic."""
    kind = draw(st.sampled_from(("ordered", "ordered", "random", "free")))
    if kind == "free":
        return [draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.sampled_from(SIZES)),
                              max_size=3)) for _ in range(n)]
    stages = draw(st.integers(1, 3))
    start = draw(st.integers(0, n - 1 - stages))
    cps = dataclasses.replace(shift(n),
                              stages=shift(n).stages[start:start + stages])
    order = np.roll(topology_order(n), draw(st.integers(0, n - 1))) \
        if kind == "ordered" \
        else random_order(n, seed=draw(st.integers(0, 2**16)))
    return cps_workload(cps, order, n,
                        draw(st.sampled_from((2048.0, 4096.0, 5000.0))))


@st.composite
def schedules(draw, fab):
    """An empty schedule or up to three faults that may land inside a
    run (fault demotions) or long after it (fast path)."""
    cables = _cables(fab)
    N = fab.num_endports
    times = st.sampled_from((0.0, 0.5, 2.0, 6.0, 1e4))
    events = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from((LINK_DOWN, FLAKY, SWITCH_DOWN)))
        t = draw(times)
        if kind == SWITCH_DOWN:
            events.append(FaultEvent(t, SWITCH_DOWN, node=draw(
                st.integers(N, fab.num_nodes - 1))))
            continue
        gp = draw(st.sampled_from(cables))
        if kind == FLAKY:
            events.append(FaultEvent(t, FLAKY, gport=gp, until=t + 3.0,
                                     loss=draw(st.sampled_from((0.5, 1.0)))))
            continue
        events.append(FaultEvent(t, LINK_DOWN, gport=gp))
        if draw(st.booleans()):
            events.append(FaultEvent(t + 2.0, LINK_UP, gport=gp))
    return FaultSchedule(tuple(sorted(events, key=lambda e: e.time)),
                         seed=draw(st.integers(0, 2**16)))


def _repeat(workload, arrays, repeat, **kw):
    """A batch element over ``workload`` in ``repeat`` form: the shared
    ``sequences`` list, the same ``arrays`` or copies of them."""
    if repeat == "shared":
        return ScenarioSpec(sequences=workload, **kw)
    dst, size, nmsg = arrays
    if repeat == "copy":
        dst, size, nmsg = dst.copy(), size.copy(), nmsg.copy()
    return ScenarioSpec(dst=dst, size=size, nmsg=nmsg, **kw)


def _element(draw, workload, arrays, repeat, pool):
    """One batch element over ``workload`` in ``repeat`` form, with its
    own fault schedule (from the batch's ``pool``), sweep delay and
    credit limit."""
    faults = draw(st.sampled_from(pool))
    sweep = None if faults is None else draw(st.sampled_from(SWEEP_DELAYS))
    return _repeat(
        workload, arrays, repeat, faults=faults, sweep_delay=sweep,
        repair_strategy=draw(st.sampled_from(("naive", "balanced"))),
        credit_limit=draw(st.sampled_from(LIMITS)), label=repeat)


@st.composite
def batches(draw):
    # healthy tables three times in four: stale ones mostly demote
    tables = draw(st.sampled_from(TABLES[:2] * 3 + TABLES[2:]))
    fab = tables.fabric
    n = fab.num_endports
    # schedules are shared across workloads, as in a placements x
    # schedules grid
    pool = [None] + draw(st.lists(schedules(fab), min_size=1, max_size=3))
    elements = []
    for _ in range(draw(st.integers(1, 3))):
        workload = draw(workloads(n))
        arrays = _arrays(workload)
        for repeat in draw(st.lists(st.sampled_from(REPEATS), min_size=2,
                                    max_size=5)):
            elements.append(_element(draw, workload, arrays, repeat, pool))
    order = draw(st.permutations(range(len(elements))))
    return BatchSpec(tables=tables, elements=[elements[i] for i in order],
                     credit_limit=draw(st.sampled_from((None, 1, 2, 4))),
                     max_events=draw(st.sampled_from(
                         (5_000_000,) * 4 + (40, 400))))


def _bits(value):
    """``value`` with every float (NumPy scalars included) replaced by
    its exact hex form, through dataclasses, tuples and lists."""
    if isinstance(value, float):
        return float(value).hex()
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            _bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return value


def _outcome(run):
    """Everything a run returns, floats as their bits."""
    try:
        res = run()
    except SimulationError as err:
        return "error", str(err)
    return ("ok", _bits(res.messages), res.latencies.tobytes(),
            _bits((res.makespan, res.total_bytes, res.num_ports,
                   res.active_ports, res.engine_stats, res.fault_report)))


def _solo(spec: BatchSpec, i: int):
    el = spec.elements[i]
    cl = spec.credit_limit if el.credit_limit is INHERIT \
        else el.credit_limit
    healing = el.healing if el.sweep_delay is None else HealingController(
        spec.tables, el.faults, sweep_delay=el.sweep_delay,
        strategy=el.repair_strategy)
    sim = PacketSimulator(spec.tables, spec.calibration, credit_limit=cl,
                          max_events=spec.max_events, engine="vector",
                          faults=el.faults, healing=healing)
    return sim.run_sequences(
        el.materialize_sequences(spec.tables.fabric.num_endports))


def _assert_batch_equals_solo_runs(spec: BatchSpec):
    res = run_batch(spec)
    assert len(res) == len(spec.elements)
    for i, e in enumerate(res.elements):
        assert _outcome(e.packet_result) == \
            _outcome(lambda: _solo(spec, i)), (i, e.status, e.reason)
    s = res.stats
    count = [e.status for e in res.elements].count
    reasons = [e.reason for e in res.elements]
    assert s.total == len(spec.elements)
    assert s.fast_path == count("fast")
    assert s.errors == count("error")
    for reason in ("route", "budget", "conflict", "fault"):
        assert getattr(s, f"fallback_{reason}") == reasons.count(reason)
    assert s.fallback == s.total - s.fast_path
    assert s.events_saved == sum(
        e.packet_result().engine_stats.events_saved
        for e in res.elements if e.status == "fast")
    # no aliasing: appending to one element's messages leaves every
    # other element's unchanged, and no two share latency storage
    done = [e.packet_result() for e in res.elements if e.status != "error"]
    for r in done:
        r.messages.append(None)
    assert all(r.messages.count(None) == 1 for r in done)
    assert not any(np.shares_memory(a.latencies, b.latencies)
                   for a, b in itertools.combinations(done, 2))
    return res


#: what a repeat may change from its workload's base settings
VARIES = ("nothing", "nothing", "sweep_delay", "repair_strategy",
          "credit_limit")


@st.composite
def demoting_repeats(draw):
    """Repeats of each workload that share their schedule, healing
    settings (or one explicit controller) and credit limit, or differ in
    exactly one of sweep delay, repair strategy and credit limit; stale
    tables, schedules that hit the run and small budgets make many of
    them demote or raise."""
    tables = draw(st.sampled_from(TABLES))
    fab = tables.fabric
    n = fab.num_endports
    pool = [None] + draw(st.lists(schedules(fab), min_size=1, max_size=2))
    elements = []
    for _ in range(draw(st.integers(1, 2))):
        workload = draw(workloads(n))
        arrays = _arrays(workload)
        faults = draw(st.sampled_from(pool))
        base = dict(faults=faults, sweep_delay=None, healing=None,
                    repair_strategy=draw(st.sampled_from(
                        ("naive", "balanced"))),
                    credit_limit=draw(st.sampled_from(LIMITS)))
        if faults is not None:
            base["sweep_delay"] = draw(st.sampled_from(SWEEP_DELAYS))
            if base["sweep_delay"] is not None and draw(st.booleans()):
                base["healing"] = HealingController(
                    tables, faults, sweep_delay=base.pop("sweep_delay"),
                    strategy=base["repair_strategy"])
        for _ in range(draw(st.integers(2, 4))):
            kw = dict(base)
            vary = draw(st.sampled_from(VARIES))
            if vary == "sweep_delay" and faults is not None:
                kw["healing"] = None
                kw["sweep_delay"] = draw(st.sampled_from(SWEEP_DELAYS))
            elif vary == "repair_strategy":
                kw["repair_strategy"] = draw(st.sampled_from(
                    ("naive", "balanced")))
            elif vary == "credit_limit":
                kw["credit_limit"] = draw(st.sampled_from(LIMITS))
            elements.append(_repeat(workload, arrays,
                                    draw(st.sampled_from(REPEATS)), **kw))
    order = draw(st.permutations(range(len(elements))))
    return BatchSpec(tables=tables, elements=[elements[i] for i in order],
                     credit_limit=draw(st.sampled_from((None, 1, 2, 4))),
                     max_events=draw(st.sampled_from(
                         (5_000_000,) * 2 + (40, 400))))


class TestSharedWorkloads:
    @given(batches())
    @settings(max_examples=120, deadline=None)
    def test_every_element_equals_its_solo_run(self, spec):
        _assert_batch_equals_solo_runs(spec)

    @given(demoting_repeats())
    @settings(max_examples=80, deadline=None)
    def test_demoted_repeats_equal_their_solo_runs(self, spec):
        _assert_batch_equals_solo_runs(spec)

    def test_repeats_differing_in_one_setting_stay_apart(self):
        """Pairs of repeats under one schedule that hits the run, each
        pair differing from the first in only its sweep delay, repair
        strategy or credit limit: the four solo runs differ from each
        other, so a merged event-core run would show."""
        tables = TABLES[0]
        n = tables.fabric.num_endports
        dst, size, nmsg = _arrays(cps_workload(shift(n), topology_order(n),
                                               n, 4096.0))
        faults = FaultSchedule((FaultEvent(0.0, LINK_DOWN, gport=28),))
        variants = (dict(sweep_delay=0.5),
                    dict(sweep_delay=3.0),
                    dict(sweep_delay=0.5, repair_strategy="balanced"),
                    dict(sweep_delay=0.5, credit_limit=1))
        spec = BatchSpec(tables=tables, credit_limit=2, elements=[
            ScenarioSpec(dst=dst.copy(), size=size.copy(), nmsg=nmsg.copy(),
                         faults=faults, **kw)
            for kw in variants for _ in range(2)])
        solo = {_outcome(lambda: _solo(spec, i)) for i in range(0, 8, 2)}
        assert len(solo) == 4
        res = _assert_batch_equals_solo_runs(spec)
        assert res.stats.fallback_fault == 8

    def test_every_demotion_reason_among_repeats(self):
        """One batch on stale tables where repeats of the same workloads
        take every resolution: fast, route, budget, conflict, fault."""
        tables = TABLES[2]
        fab = tables.fabric
        n = fab.num_endports
        empty = [[] for _ in range(n)]
        # leaf-local traffic (ports 0-3 share a leaf): no cable crossed
        one = [list(s) for s in empty]
        one[0] = [(1, 2048.0)]
        other = [list(s) for s in empty]
        other[5] = [(6, 2048.0)]                       # clear of host 0
        chain = [list(s) for s in empty]
        for p in range(4):
            chain[p] = [((p + 1) % 4, 8192.0)] * 4     # 128 arrivals
        incast = [list(s) for s in empty]
        for p in range(3):
            incast[p] = [(3, 8192.0)]                  # one ejection link
        across = cps_workload(shift(n), topology_order(n), n, 2048.0)
        host0 = int(fab.port_start[0])
        hot = FaultSchedule((FaultEvent(0.0, LINK_DOWN, gport=host0),))
        cold = FaultSchedule((FaultEvent(1e4, LINK_DOWN, gport=host0),))
        elements = []
        for seqs, faults in ((one, None), (one, hot), (one, cold),
                             (other, hot), (chain, None), (incast, cold),
                             (across, None), (across, cold)):
            dst, size, nmsg = _arrays(seqs)
            elements += [
                ScenarioSpec(dst=dst, size=size, nmsg=nmsg, faults=faults),
                ScenarioSpec(dst=dst.copy(), size=size.copy(),
                             nmsg=nmsg.copy(), faults=faults,
                             credit_limit=2),
                # a repair sweep long after the run: no live swap
                ScenarioSpec(sequences=seqs, faults=faults,
                             sweep_delay=None if faults is None else 1e3),
            ]
        spec = BatchSpec(tables=tables, elements=elements, credit_limit=2,
                         max_events=64)
        res = _assert_batch_equals_solo_runs(spec)
        s = res.stats
        assert min(s.fast_path, s.fallback_route, s.fallback_budget,
                   s.fallback_conflict, s.fallback_fault) > 0, s
        # the three repeats of a workload and schedule resolve alike
        reasons = [e.reason for e in res.elements]
        for k in range(0, len(elements), 3):
            assert len(set(reasons[k:k + 3])) == 1
        # one schedule: it hits host 0's workload, not the other one
        assert reasons[3] == "fault" and reasons[9] == ""
