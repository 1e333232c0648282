"""Every result's table metrics equal the per-record rule, bit for bit.

:class:`~repro.sim.records.RecordTable` computes makespan, bytes,
active ports and latencies on its columns, and
:class:`~repro.sim.records.RunResult` derives the bandwidth and latency
summaries from them.  ``tests/records_reference.py`` keeps the rule
they replaced (``PacketSimulator._finalize``'s Python passes over the
record list).  Over generated workloads -- self-sends, empty and
integer-sized messages included -- fluid ``async`` and ``barrier``
runs, packet fast-path runs, demoted runs, batch elements and faulty
runs with lost messages must report what the reference computes from
their own records, every float compared by its bits; a fault report's
counts and delivered bytes must equal the same rule over the delivered
records.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import shift
from repro.fabric import build_fabric
from repro.faults import FaultEvent, FaultSchedule
from repro.faults.schedule import LINK_DOWN
from repro.ordering import random_order, topology_order
from repro.routing import route_dmodk
from repro.sim import (
    BatchSpec,
    FluidSimulator,
    PacketSimulator,
    ScenarioSpec,
    cps_workload,
    run_batch,
)
from repro.topology import pgft

from ..records_reference import finalize

TABLES = route_dmodk(build_fabric(pgft(2, [4, 4], [1, 4], [1, 1])))
N = TABLES.fabric.num_endports
SIZES = (0.0, 0.3, 17.0, 1000, 2048.0, 2048.7, 2049.0, 8192.0)


def _bits(value):
    """``value`` with every float replaced by its exact hex form."""
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return value


def _metrics(res):
    return (_bits((res.makespan, res.total_bytes, res.num_ports,
                   res.active_ports, res.aggregate_bandwidth,
                   res.per_port_bandwidth, res.normalized_bandwidth,
                   res.mean_latency, res.max_latency)),
            res.latencies.dtype, res.latencies.tobytes())


def _assert_matches_reference(sim, res, seqs):
    ref = finalize(sim, res.messages, seqs, None)
    assert _metrics(res) == _metrics(ref)
    rep = getattr(res, "fault_report", None)
    if rep is not None:
        real = [m for m in res.messages if m.size > 0 and m.src != m.dst]
        delivered = [m for m in real if m.finish >= 0]
        assert (rep.total_messages, rep.delivered_messages) == \
            (len(real), len(delivered))
        assert _bits(rep.delivered_bytes) == \
            _bits(float(sum(m.size for m in delivered)))
        assert rep.end == rep.t0 + res.makespan


sequences = st.lists(
    st.lists(st.tuples(st.integers(0, N - 1), st.sampled_from(SIZES)),
             max_size=3),
    min_size=N, max_size=N)


@given(sequences, st.sampled_from(("async", "barrier")))
@settings(max_examples=40, deadline=None)
def test_fluid_runs_match_reference(seqs, mode):
    sim = FluidSimulator(TABLES)
    res = sim.run_sequences(seqs, mode=mode)
    _assert_matches_reference(sim, res, seqs)
    # the fluid model's own byte count: every message, in port order
    assert res.total_bytes == sum(s for q in seqs for _, s in q)


@given(st.sampled_from((None, 4)),
       st.sampled_from((2048.0, 3000, 8192.0)), st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_fast_and_demoted_packet_runs_match_reference(limit, size, seed):
    incast = [[(0, size)] if p else [] for p in range(N)]
    for seqs, fast in (
            (cps_workload(shift(N), topology_order(N), N, size), True),
            (cps_workload(shift(N), random_order(N, seed=seed), N, size),
             None),
            (incast, False)):
        for engine in ("vector", "reference"):
            sim = PacketSimulator(TABLES, credit_limit=limit, engine=engine)
            res = sim.run_sequences(seqs)
            if engine == "vector" and fast is not None:
                assert res.engine_stats.fast_path == fast
            _assert_matches_reference(sim, res, seqs)


@given(sequences, st.sampled_from((None, 2)))
@settings(max_examples=25, deadline=None)
def test_batch_elements_match_reference(seqs, limit):
    sim = PacketSimulator(TABLES, credit_limit=limit)
    clean = FaultSchedule()
    doomed = _uplink_down(0)
    res = run_batch(BatchSpec(
        tables=TABLES, credit_limit=limit, elements=[
            ScenarioSpec(sequences=seqs),
            ScenarioSpec(sequences=seqs, faults=clean),
            ScenarioSpec(sequences=seqs, faults=doomed),
            ScenarioSpec(sequences=seqs, faults=doomed)]))
    for e in res.elements:
        _assert_matches_reference(sim, e.packet_result(), seqs)


def _uplink_down(port: int) -> FaultSchedule:
    """Host ``port``'s uplink cable down for the whole run."""
    gp = int(TABLES.fabric.port_start[port])
    return FaultSchedule((FaultEvent(0.0, LINK_DOWN, gport=gp),))


@given(sequences, st.sampled_from((None, 2)))
@settings(max_examples=25, deadline=None)
def test_faulty_runs_with_losses_match_reference(seqs, limit):
    seqs = [list(q) for q in seqs]
    seqs[0].append((N - 1, 4096.0))  # at least one lost message
    for engine in ("vector", "reference"):
        sim = PacketSimulator(TABLES, credit_limit=limit, engine=engine,
                              faults=_uplink_down(0))
        res = sim.run_sequences(seqs)
        assert res.fault_report.lost
        assert (res.records.finish < 0).any()
        _assert_matches_reference(sim, res, seqs)


def test_reference_sees_float_sizes():
    """Integer sizes are stored as floats, so integer-sized workloads
    report the same values as float ones, as floats."""
    seqs = [[] for _ in range(N)]
    seqs[0] = [(5, 1000), (6, 3000)]
    res = PacketSimulator(TABLES, engine="reference").run_sequences(seqs)
    assert [type(m.size) for m in res.messages] == [float, float]
    assert _bits(res.total_bytes) == _bits(4000.0)
    floats = [[(d, float(s)) for d, s in q] for q in seqs]
    same = PacketSimulator(TABLES, engine="reference").run_sequences(floats)
    assert _metrics(res) == _metrics(same)
    assert np.array_equal(res.records.size, same.records.size)
