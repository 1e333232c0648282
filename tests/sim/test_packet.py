"""Packet simulator: latency arithmetic and agreement with the fluid model."""

import pytest

from repro.collectives import shift
from repro.ordering import random_order, topology_order
from repro.sim import (
    QDR_PCIE_GEN2,
    FluidSimulator,
    PacketSimulator,
    cps_workload,
)

CAL = QDR_PCIE_GEN2


class TestSinglePacket:
    def test_cut_through_latency(self, fig1_tables):
        # One MTU cross-leaf (4 links, 3 switch hops... 2 switches + NIC):
        seqs = [[] for _ in range(16)]
        seqs[0] = [(8, 2048.0)]
        res = PacketSimulator(fig1_tables).run_sequences(seqs)
        expect = (
            CAL.host_overhead
            + 2048.0 / CAL.host_bandwidth       # bottleneck serialisation
            + 3 * CAL.switch_latency            # leaf, spine, leaf
            + 4 * CAL.wire_latency
        )
        # Cut-through: no per-hop serialisation beyond the bottleneck.
        assert res.latencies[0] == pytest.approx(expect, abs=0.2)

    def test_same_leaf_shorter_than_cross_leaf(self, fig1_tables):
        seqs = [[] for _ in range(16)]
        seqs[0] = [(1, 2048.0)]
        same = PacketSimulator(fig1_tables).run_sequences(seqs).latencies[0]
        seqs[0] = [(8, 2048.0)]
        cross = PacketSimulator(fig1_tables).run_sequences(seqs).latencies[0]
        assert same < cross


class TestMultiPacket:
    def test_segmentation_pipeline(self, fig1_tables):
        # 8 MTUs: latency ~ overhead + size/bottleneck + hop latencies.
        size = 8 * 2048.0
        seqs = [[] for _ in range(16)]
        seqs[0] = [(8, size)]
        res = PacketSimulator(fig1_tables).run_sequences(seqs)
        expect = CAL.host_overhead + size / CAL.host_bandwidth
        assert res.latencies[0] == pytest.approx(expect, abs=1.0)

    def test_sub_mtu_message(self, fig1_tables):
        seqs = [[] for _ in range(16)]
        seqs[0] = [(8, 100.0)]
        res = PacketSimulator(fig1_tables).run_sequences(seqs)
        assert res.latencies[0] < 2.0


class TestAgainstFluid:
    """The two simulators must agree when there is no contention."""

    @pytest.mark.parametrize("size", [16384.0, 262144.0])
    def test_contention_free_shift_agreement(self, fig1_tables, size):
        wl = cps_workload(shift(16), topology_order(16), 16, size)
        bw_pkt = PacketSimulator(fig1_tables).run_sequences(wl).normalized_bandwidth
        bw_fld = FluidSimulator(fig1_tables).run_sequences(wl).normalized_bandwidth
        assert bw_pkt == pytest.approx(bw_fld, rel=0.03)

    def test_random_order_contention_visible(self, fig1_tables):
        wl_t = cps_workload(shift(16), topology_order(16), 16, 65536.0)
        wl_r = cps_workload(shift(16), random_order(16, seed=1), 16, 65536.0)
        sim = PacketSimulator(fig1_tables)
        bw_t = sim.run_sequences(wl_t).normalized_bandwidth
        bw_r = PacketSimulator(fig1_tables).run_sequences(wl_r).normalized_bandwidth
        assert bw_r < bw_t
        # Contention also shows up as latency.
        lat_t = sim.run_sequences(wl_t).mean_latency
        lat_r = PacketSimulator(fig1_tables).run_sequences(wl_r).mean_latency
        assert lat_r > lat_t


class TestGuards:
    def test_sequence_count_checked(self, fig1_tables):
        with pytest.raises(ValueError):
            PacketSimulator(fig1_tables).run_sequences([[]])

    def test_event_budget(self, fig1_tables):
        wl = cps_workload(shift(16), topology_order(16), 16, 1 << 20)
        from repro.sim import SimulationError

        with pytest.raises(SimulationError):
            PacketSimulator(fig1_tables, max_events=100).run_sequences(wl)

    def test_empty_run(self, fig1_tables):
        res = PacketSimulator(fig1_tables).run_sequences([[] for _ in range(16)])
        assert res.makespan == 0.0
        assert res.mean_latency == 0.0
