"""Per-link byte accounting and utilisation reports."""

import pytest

from repro.collectives import shift
from repro.fabric import build_fabric
from repro.ordering import random_order, topology_order
from repro.routing import route_dmodk
from repro.sim import (
    QDR_PCIE_GEN2,
    FluidSimulator,
    cps_workload,
    link_byte_loads,
    utilization_report,
)
from repro.topology import pgft


@pytest.fixture(scope="module")
def tables():
    return route_dmodk(build_fabric(pgft(2, [4, 4], [1, 2], [1, 2])))


class TestByteLoads:
    def test_single_message_loads_its_path(self, tables):
        seqs = [[] for _ in range(16)]
        seqs[0] = [(9, 1000.0)]
        loads = link_byte_loads(tables, seqs)
        from repro.routing import trace_route

        path = trace_route(tables, 0, 9)
        assert (loads[path] == 1000.0).all()
        assert loads.sum() == 1000.0 * len(path)

    def test_empty_workload(self, tables):
        loads = link_byte_loads(tables, [[] for _ in range(16)])
        assert loads.sum() == 0

    def test_self_and_zero_messages_ignored(self, tables):
        seqs = [[] for _ in range(16)]
        seqs[2] = [(2, 5000.0), (3, 0.0)]
        assert link_byte_loads(tables, seqs).sum() == 0

    def test_host_links_carry_full_volume(self, tables):
        wl = cps_workload(shift(16), topology_order(16), 16, 1024.0)
        loads = link_byte_loads(tables, wl)
        fab = tables.fabric
        # Every host injects 15 KB over its single up-link.
        for p in range(16):
            assert loads[fab.port_start[p]] == 15 * 1024.0


class TestUtilizationReport:
    def test_ordered_traffic_uniform(self, tables):
        wl = cps_workload(shift(16), topology_order(16), 16, 65536.0)
        res = FluidSimulator(tables).run_sequences(wl)
        text = utilization_report(tables, wl, res.makespan, QDR_PCIE_GEN2)
        assert "utilisation" in text
        # Top link utilisation stays below 100 %.
        top = float(text.splitlines()[1].strip().split("%")[0]) / 100
        assert 0.3 < top <= 1.0

    def test_random_traffic_shows_hot_links(self, tables):
        wl_r = cps_workload(shift(16), random_order(16, seed=1), 16, 65536.0)
        res = FluidSimulator(tables).run_sequences(wl_r)
        text = utilization_report(tables, wl_r, res.makespan, QDR_PCIE_GEN2)
        lines = text.splitlines()[1:]
        vals = [float(l.strip().split("%")[0]) for l in lines]
        assert vals == sorted(vals, reverse=True)
