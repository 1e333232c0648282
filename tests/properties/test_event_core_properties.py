"""The lean event core equals its event-queue reference, bit for bit.

:func:`repro.faults.packetsim.run_faulty` runs one flat loop over its
own calendar with list-based port state and fused transmit completions;
``tests/packetsim_reference.py`` keeps the :class:`EventQueue` body it
replaced.  Over generated small PGFT/RLFT fabrics, message sequences
(multi-packet, zero-size and self-sends), credit limits and fault
schedules -- link-downs in flight, flaky windows, switch deaths and
live healing swaps, at ``t0``/``attempt`` offsets -- both must return
the same records, latencies, engine statistics and
:class:`FaultRunReport` -- every float compared by its bits (the
reference leaks NumPy ``float64`` scalars into some records; the lean
core keeps plain floats of the same value) -- or raise
:class:`SimulationError` with the same text.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import shift
from repro.fabric import build_fabric
from repro.faults import FaultEvent, FaultSchedule, HealingController
from repro.faults.packetsim import run_faulty
from repro.faults.schedule import FLAKY, LINK_DOWN, LINK_UP, SWITCH_DOWN
from repro.ordering import random_order
from repro.routing import route_dmodk
from repro.sim import QDR_PCIE_GEN2, PacketSimulator, SimulationError, cps_workload
from repro.topology import paper_topologies, pgft, rlft_max

from .. import packetsim_reference as ref


def _unvalidated(cal, **changes):
    """``cal`` with ``changes``, skipping ``LinkCalibration``'s checks.

    The constructor rejects negative latencies; the event core's
    past-event guard and its tolerance are only reachable through them,
    and both engines must still agree there.
    """
    cal = copy.copy(cal)
    for name, value in changes.items():
        object.__setattr__(cal, name, value)
    return cal


TABLES = tuple(route_dmodk(build_fabric(spec)) for spec in (
    pgft(2, [4, 4], [1, 2], [1, 2]),
    pgft(3, [2, 2, 2], [1, 2, 2], [1, 1, 1]),
    rlft_max(2, 2),
    rlft_max(4, 2),
))
CALS = (
    QDR_PCIE_GEN2,
    dataclasses.replace(QDR_PCIE_GEN2, name="small-mtu", mtu=1024,
                        switch_latency=0.35, host_overhead=0.2),
    # a wire latency just below zero schedules arrivals within the
    # past-event tolerance; a clearly negative one trips the guard
    _unvalidated(QDR_PCIE_GEN2, name="tolerated-past", wire_latency=-1e-10),
    _unvalidated(QDR_PCIE_GEN2, name="past", wire_latency=-0.5),
)
SIZES = (0.0, 1.0, 17.0, 1000, 1024.0, 2048.0, 2049.0, 3000, 5000.0,
         8192.0)
LIMITS = (None, 1, 2, 4)


def _cables(fab):
    """Directed gports with a cable, one per cable."""
    peer = fab.port_peer
    gps = np.flatnonzero(peer >= 0)
    return gps[gps < peer[gps]].tolist()


@st.composite
def runs(draw):
    tables = draw(st.sampled_from(TABLES))
    fab = tables.fabric
    N = fab.num_endports
    cal = draw(st.sampled_from(CALS[:2]) if draw(st.integers(0, 9))
               else st.sampled_from(CALS))
    seqs = [draw(st.lists(st.tuples(st.integers(0, N - 1),
                                    st.sampled_from(SIZES)),
                          max_size=3))
            for _ in range(N)]
    cables = _cables(fab)
    times = st.floats(0.0, 12.0, allow_nan=False).map(lambda t: round(t, 2))
    events = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from((LINK_DOWN, FLAKY, SWITCH_DOWN)))
        t = draw(times)
        if kind == SWITCH_DOWN:
            events.append(FaultEvent(t, SWITCH_DOWN, node=draw(
                st.integers(N, fab.num_nodes - 1))))
            continue
        gp = draw(st.sampled_from(cables))
        span = draw(st.sampled_from((0.5, 2.0, 6.0)))
        if kind == FLAKY:
            events.append(FaultEvent(t, FLAKY, gport=gp, until=t + span,
                                     loss=draw(st.sampled_from(
                                         (0.25, 0.5, 1.0)))))
            continue
        events.append(FaultEvent(t, LINK_DOWN, gport=gp))
        if draw(st.booleans()):
            events.append(FaultEvent(t + span, LINK_UP, gport=gp))
    faults = FaultSchedule(tuple(sorted(events, key=lambda e: e.time)),
                           seed=draw(st.integers(0, 2**16)))
    heal = draw(st.sampled_from((None, "naive", "balanced")))
    controller = None if heal is None else HealingController(
        tables, faults, sweep_delay=draw(st.sampled_from((0.0, 0.5, 3.0))),
        strategy=heal)
    sim = PacketSimulator(
        tables, calibration=cal, credit_limit=draw(st.sampled_from(LIMITS)),
        max_events=draw(st.sampled_from((5_000_000,) * 5 + (3, 40))),
        engine="reference")
    t0 = draw(st.sampled_from((0.0, 0.7, 3.0)))
    attempt = draw(st.integers(0, 3))
    return sim, seqs, faults, controller, t0, attempt


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


def _outcome(engine, sim, seqs, faults, controller, t0, attempt):
    """Everything a run returns, floats as their bits."""
    try:
        res, rep = engine(sim, seqs, faults, controller, t0=t0,
                          attempt=attempt)
    except SimulationError as err:
        return "error", str(err)
    assert res.fault_report is rep
    assert res.latencies.dtype == np.float64
    return ("ok", _bits(res.messages), res.latencies.tobytes(),
            _bits((res.makespan, res.total_bytes, res.num_ports,
                   res.active_ports, res.engine_stats, rep)))


def _assert_core_equals_reference(*args):
    assert (_outcome(run_faulty, *args)
            == _outcome(ref.run_faulty, *args))


class TestLeanEventCore:
    @given(runs())
    @settings(max_examples=400, deadline=None)
    def test_equals_event_queue_reference(self, args):
        _assert_core_equals_reference(*args)

    def test_budget_exhausted_message(self):
        tables = TABLES[0]
        N = tables.fabric.num_endports
        sim = PacketSimulator(tables, max_events=10, engine="reference")
        seqs = [[((p + 5) % N, 8192.0)] for p in range(N)]
        with pytest.raises(SimulationError, match="budget exhausted"):
            run_faulty(sim, seqs, FaultSchedule())
        _assert_core_equals_reference(sim, seqs, FaultSchedule(), None,
                                      0.0, 0)

    def test_past_event_message(self):
        tables = TABLES[0]
        N = tables.fabric.num_endports
        sim = PacketSimulator(tables, calibration=CALS[3],
                              engine="reference")
        seqs = [[((p + 5) % N, 4096.0)] for p in range(N)]
        with pytest.raises(SimulationError, match="in the past"):
            run_faulty(sim, seqs, FaultSchedule())
        _assert_core_equals_reference(sim, seqs, FaultSchedule(), None,
                                      0.0, 0)

    def test_tolerated_past_events(self):
        # Arrivals scheduled 1e-10 us in the past fire before the rest
        # of the current time, under contention and every credit limit.
        tables = TABLES[3]
        N = tables.fabric.num_endports
        seqs = [[((p + k) % N, 3000.0) for k in (1, 5, 17)]
                for p in range(N)]
        for limit in LIMITS:
            sim = PacketSimulator(tables, calibration=CALS[2],
                                  credit_limit=limit, engine="reference")
            _assert_core_equals_reference(sim, seqs, FaultSchedule(), None,
                                          0.0, 0)

    def test_past_event_between_completion_parts(self):
        # Shrunk counterexample: freeing an output transmits a parked
        # packet whose arrival lands in the past; it must fire before
        # the credit of the completion it came from is returned.
        tables = TABLES[0]
        seqs = [[] for _ in range(tables.fabric.num_endports)]
        seqs[7] = [(9, 2048.0)]
        seqs[14] = [(9, 2049.0)]
        seqs[15] = [(1, 1.0)]
        sim = PacketSimulator(tables, calibration=CALS[2], credit_limit=2,
                              engine="reference")
        _assert_core_equals_reference(sim, seqs, FaultSchedule(), None,
                                      0.0, 0)

    def test_live_swaps_under_random_damage(self):
        # Dense faults and healing on the 32-port RLFT, every credit
        # regime: swaps land while queues are full.
        tables = TABLES[3]
        N = tables.fabric.num_endports
        seqs = [[((p + k) % N, 6144.0) for k in (1, 7, 13)]
                for p in range(N)]
        for seed in range(6):
            faults = FaultSchedule.random(tables.fabric, seed=seed,
                                          horizon=20.0, mtbf=4.0)
            for strategy in ("naive", "balanced"):
                hc = HealingController(tables, faults, sweep_delay=1.0,
                                       strategy=strategy)
                for limit in LIMITS:
                    sim = PacketSimulator(tables, credit_limit=limit,
                                          engine="reference")
                    _assert_core_equals_reference(sim, seqs, faults, hc,
                                                  0.0, seed)


@pytest.mark.slow
def test_n324_random_order_run():
    """The contended n324 run of section VII: random order, 4 x 32 KB."""
    tables = route_dmodk(build_fabric(paper_topologies()["n324"]))
    n = tables.fabric.num_endports
    seqs = cps_workload(shift(n, displacements=range(1, 5)),
                        random_order(n, seed=1), n, 32 * 1024.0)
    sim = PacketSimulator(tables, credit_limit=4, max_events=50_000_000,
                          engine="reference")
    _assert_core_equals_reference(sim, seqs, FaultSchedule(), None, 0.0, 0)
