"""Credit flow control in the packet simulator."""

import pytest

from repro.collectives import shift
from repro.fabric import build_fabric
from repro.ordering import random_order, topology_order
from repro.routing import route_dmodk
from repro.sim import PacketSimulator, cps_workload
from repro.topology import pgft


@pytest.fixture(scope="module")
def tables():
    return route_dmodk(build_fabric(pgft(2, [4, 4], [1, 2], [1, 2])))


class TestCreditSemantics:
    def test_rejects_bad_limit(self, tables):
        with pytest.raises(ValueError, match="credit_limit"):
            PacketSimulator(tables, credit_limit=0)

    def test_single_flow_unaffected_by_credits(self, tables):
        # A lone flow never exhausts even a one-packet buffer *in steady
        # state pipelining is throttled to one packet in flight*: with
        # credit 2+ the flow runs at full speed.
        seqs = [[] for _ in range(16)]
        seqs[0] = [(8, 16384.0)]
        free = PacketSimulator(tables).run_sequences(seqs)
        credited = PacketSimulator(tables, credit_limit=2).run_sequences(seqs)
        assert credited.latencies[0] == pytest.approx(free.latencies[0],
                                                      rel=0.05)

    def test_contention_free_traffic_unaffected(self, tables):
        wl = cps_workload(shift(16), topology_order(16), 16, 65536.0)
        free = PacketSimulator(tables).run_sequences(wl)
        credited = PacketSimulator(tables, credit_limit=4).run_sequences(wl)
        assert credited.normalized_bandwidth == pytest.approx(
            free.normalized_bandwidth, rel=0.02)

    def test_backpressure_hurts_congested_traffic(self, tables):
        wl = cps_workload(shift(16), random_order(16, seed=1), 16, 262144.0)
        free = PacketSimulator(tables).run_sequences(wl)
        tight = PacketSimulator(tables, credit_limit=2).run_sequences(wl)
        assert tight.normalized_bandwidth < free.normalized_bandwidth

    def test_monotone_in_buffer_size(self, tables):
        wl = cps_workload(shift(16), random_order(16, seed=1), 16, 131072.0)
        bws = []
        for credits in (2, 8, None):
            res = PacketSimulator(tables, credit_limit=credits).run_sequences(wl)
            bws.append(res.normalized_bandwidth)
        assert bws[0] <= bws[1] * 1.02
        assert bws[1] <= bws[2] * 1.02

    def test_no_deadlock_on_updown_routing(self, tables):
        # Credits + cyclic dependencies can deadlock; up*/down* routing
        # must not.  All messages must complete even with 1 credit.
        wl = cps_workload(shift(16), random_order(16, seed=3), 16, 16384.0)
        res = PacketSimulator(tables, credit_limit=1).run_sequences(wl)
        assert res.total_bytes > 0
        assert res.makespan > 0

    def test_bytes_conserved(self, tables):
        wl = cps_workload(shift(16), random_order(16, seed=2), 16, 40000.0)
        free = PacketSimulator(tables).run_sequences(wl)
        tight = PacketSimulator(tables, credit_limit=3).run_sequences(wl)
        assert tight.total_bytes == free.total_bytes


class TestFigure2Slope:
    def test_bandwidth_decreases_with_message_size(self, tables):
        # The paper's Figure 2 shape, produced by credit back-pressure.
        bws = []
        for kb in (8, 64, 256):
            wl = cps_workload(shift(16), random_order(16, seed=1), 16,
                              kb * 1024.0)
            res = PacketSimulator(tables, credit_limit=4,
                                  max_events=20_000_000).run_sequences(wl)
            bws.append(res.normalized_bandwidth)
        assert bws[-1] < bws[0]
