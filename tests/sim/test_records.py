"""The record table: read-only columns, and record objects only on read."""

import dataclasses

import numpy as np
import pytest

from repro.collectives import shift
from repro.faults import FaultEvent, FaultSchedule
from repro.faults.schedule import LINK_DOWN
from repro.ordering import random_order, topology_order
from repro.sim import (
    QDR_PCIE_GEN2,
    BatchSpec,
    FluidSimulator,
    MessageRecord,
    PacketSimulator,
    RecordTable,
    RunResult,
    ScenarioSpec,
    cps_workload,
    run_batch,
)

SIZE = 8 * 1024.0


@pytest.fixture
def built(monkeypatch):
    """Counts every :class:`MessageRecord` constructed."""
    count = []
    post_init = MessageRecord.__post_init__

    def counting(self):
        count.append(1)
        post_init(self)

    monkeypatch.setattr(MessageRecord, "__post_init__", counting)
    return count


def _read_metrics(res):
    return (res.makespan, res.total_bytes, res.active_ports,
            res.normalized_bandwidth, res.latencies, res.mean_latency,
            res.max_latency)


def _assert_lazy(res, built):
    _read_metrics(res)
    assert not built
    n = len(res.records.src)
    assert len(res.messages) == n > 0
    assert len(built) == n
    assert res.messages is res.messages  # built once per result
    assert len(built) == n


def test_fast_path_run_builds_records_only_when_read(fig1_tables, built):
    wl = cps_workload(shift(16), topology_order(16), 16, SIZE)
    res = PacketSimulator(fig1_tables, credit_limit=4).run_sequences(wl)
    assert res.engine_stats.fast_path
    _assert_lazy(res, built)


def test_batch_element_builds_records_only_when_read(fig1_tables, built):
    fast = cps_workload(shift(16), topology_order(16), 16, SIZE)
    slow = cps_workload(shift(16), random_order(16, seed=1), 16, SIZE)
    res = run_batch(BatchSpec(
        tables=fig1_tables, credit_limit=4,
        elements=[ScenarioSpec(sequences=fast), ScenarioSpec(sequences=slow),
                  ScenarioSpec(sequences=slow)]))
    assert res.statuses() == ["fast", "fallback", "fallback"]
    res.makespans()
    for e in res.elements:
        _ = e.latencies
        _assert_lazy(e.packet_result(), built)
        built.clear()


def test_event_core_and_fluid_build_records_only_when_read(fig1_tables,
                                                           built):
    wl = cps_workload(shift(16), random_order(16, seed=1), 16, SIZE)
    down = FaultSchedule((FaultEvent(
        0.0, LINK_DOWN, gport=int(fig1_tables.fabric.port_start[0])),))
    for res in (
            PacketSimulator(fig1_tables, engine="reference").run_sequences(wl),
            PacketSimulator(fig1_tables, faults=down).run_sequences(wl),
            FluidSimulator(fig1_tables).run_sequences(wl),
            FluidSimulator(fig1_tables).run_sequences(wl, mode="barrier")):
        _assert_lazy(res, built)
        built.clear()


def test_columns_are_read_only(fig1_tables):
    wl = cps_workload(shift(16), topology_order(16), 16, SIZE)
    res = PacketSimulator(fig1_tables).run_sequences(wl)
    with pytest.raises(ValueError):
        res.records.finish[0] = 0.0
    # a result's latency array is its own
    res.latencies[0] = -1.0
    again = dataclasses.replace(res)
    assert (again.latencies >= 0).all()


def test_lost_rows_count_toward_no_metric():
    res = RunResult(RecordTable.from_rows([
        (0, 1, 100.0, 0.0, 1.0, 3.0),
        (0, 2, 50.0, 3.0, 4.0, -1.0),   # lost
        (1, 1, 10.0, 0.0, 1.0, 1.0),    # to itself
    ]), num_ports=4, calibration=QDR_PCIE_GEN2)
    assert res.makespan == 3.0
    assert res.total_bytes == 110.0
    assert res.active_ports == 2
    assert np.array_equal(res.latencies, [3.0])
    assert [m.finish for m in res.messages] == [3.0, -1.0, 1.0]
