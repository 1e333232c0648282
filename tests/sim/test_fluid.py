"""Fluid simulator: analytic cross-checks on small scenarios."""

import pytest

from repro.collectives import ring, shift
from repro.fabric import build_fabric
from repro.ordering import random_order, topology_order
from repro.routing import route_dmodk
from repro.sim import (
    QDR_PCIE_GEN2,
    FluidSimulator,
    cps_workload,
    permutation_workload,
)
from repro.topology import pgft


@pytest.fixture
def sim16(fig1_tables):
    return FluidSimulator(fig1_tables)


CAL = QDR_PCIE_GEN2


class TestSingleFlow:
    def test_uncontended_transfer_time(self, sim16):
        seqs = [[] for _ in range(16)]
        seqs[0] = [(8, 32500.0)]  # 10 us at PCIe speed
        res = sim16.run_sequences(seqs)
        assert res.makespan == pytest.approx(CAL.host_overhead + 10.0)

    def test_zero_size_message(self, sim16):
        seqs = [[] for _ in range(16)]
        seqs[0] = [(8, 0.0)]
        res = sim16.run_sequences(seqs)
        assert res.makespan == pytest.approx(CAL.host_overhead)

    def test_message_records(self, sim16):
        seqs = [[] for _ in range(16)]
        seqs[0] = [(8, 3250.0), (9, 3250.0)]
        res = sim16.run_sequences(seqs)
        assert len(res.messages) == 2
        first, second = sorted(res.messages, key=lambda m: m.start)
        assert first.finish == pytest.approx(CAL.host_overhead + 1.0)
        # Second message starts its overhead when the first finished.
        assert second.inject == pytest.approx(first.finish + CAL.host_overhead)


class TestSharing:
    def test_two_flows_share_one_link(self):
        # Two hosts on the same leaf send to hosts on one other leaf of a
        # 2-leaf fabric with a single spine path of capacity 4000.
        spec = pgft(2, [2, 2], [1, 1], [1, 2])
        tables = route_dmodk(build_fabric(spec))
        sim = FluidSimulator(tables)
        seqs = [[] for _ in range(4)]
        # Routing sends dst 2 and dst 3 over different parallel cables, so
        # force sharing through the hosts' *ejection* into one port:
        seqs[0] = [(2, 32500.0)]
        seqs[1] = [(2, 32500.0)]  # same destination: share PCIe ejection
        res = sim.run_sequences(seqs)
        # 2 x 32500 B through one 3250 B/us port: 20 us + overhead.
        assert res.makespan == pytest.approx(CAL.host_overhead + 20.0, rel=1e-6)

    def test_max_min_fairness_three_flows(self):
        # One link with 3 flows and another with 1: rates 1/3 and 2/3-ish.
        spec = pgft(2, [3, 3], [1, 3], [1, 1])
        tables = route_dmodk(build_fabric(spec))
        sim = FluidSimulator(tables)
        seqs = [[] for _ in range(9)]
        # All three hosts of leaf 0 send to host 3 (one ejection port).
        for h in range(3):
            seqs[h] = [(3, 3250.0)]
        res = sim.run_sequences(seqs)
        assert res.makespan == pytest.approx(CAL.host_overhead + 3.0, rel=1e-6)

    def test_congestion_free_shift_full_bandwidth(self, fig1_tables):
        wl = cps_workload(shift(16), topology_order(16), 16, 325000.0)
        res = FluidSimulator(fig1_tables).run_sequences(wl)
        # 15 messages of 100 us each, plus overheads: efficiency > 98%.
        ideal = 15 * (CAL.host_overhead + 100.0)
        assert res.makespan == pytest.approx(ideal, rel=0.02)

    def test_random_order_slower_than_topo(self, fig1_tables):
        wl_topo = cps_workload(shift(16), topology_order(16), 16, 65536.0)
        wl_rand = cps_workload(shift(16), random_order(16, seed=2), 16, 65536.0)
        t_topo = FluidSimulator(fig1_tables).run_sequences(wl_topo).makespan
        t_rand = FluidSimulator(fig1_tables).run_sequences(wl_rand).makespan
        assert t_rand > t_topo * 1.2


class TestBarrierMode:
    def test_barrier_stage_times(self, fig1_tables):
        wl = cps_workload(ring(16, repeats=3), topology_order(16), 16, 32500.0)
        res = FluidSimulator(fig1_tables).run_sequences(wl, mode="barrier")
        assert len(res.stage_times) == 3
        for t in res.stage_times:
            assert t == pytest.approx(CAL.host_overhead + 10.0, rel=1e-6)

    def test_barrier_equals_async_when_contention_free(self, fig1_tables):
        # With HSD = 1 all ports stay in lockstep, so the barrier is free.
        wl = cps_workload(shift(16), topology_order(16), 16, 65536.0)
        t_async = FluidSimulator(fig1_tables).run_sequences(wl, mode="async").makespan
        t_barrier = FluidSimulator(fig1_tables).run_sequences(wl, mode="barrier").makespan
        assert t_barrier == pytest.approx(t_async, rel=1e-6)

    def test_barrier_and_async_comparable_under_contention(self, fig1_tables):
        # No strict ordering exists (async drift can hurt or help); both
        # must land in the same ballpark.
        wl = cps_workload(shift(16), random_order(16, seed=0), 16, 65536.0)
        t_async = FluidSimulator(fig1_tables).run_sequences(wl, mode="async").makespan
        t_barrier = FluidSimulator(fig1_tables).run_sequences(wl, mode="barrier").makespan
        assert 0.5 < t_barrier / t_async < 2.0

    def test_unknown_mode(self, fig1_tables):
        with pytest.raises(ValueError, match="mode"):
            FluidSimulator(fig1_tables).run_sequences([[]] * 16, mode="warp")


class TestResultMetrics:
    def test_normalized_bandwidth_bounds(self, fig1_tables):
        wl = cps_workload(shift(16), topology_order(16), 16, 1 << 20)
        res = FluidSimulator(fig1_tables).run_sequences(wl)
        assert 0.9 < res.normalized_bandwidth <= 1.0

    def test_sequence_length_checked(self, fig1_tables):
        with pytest.raises(ValueError, match="sequence"):
            FluidSimulator(fig1_tables).run_sequences([[]])

    def test_empty_workload(self, fig1_tables):
        res = FluidSimulator(fig1_tables).run_sequences([[] for _ in range(16)])
        assert res.makespan == 0.0
        assert res.normalized_bandwidth == 0.0


class TestAdversarialRing:
    def test_ring_adversary_bandwidth_collapse(self):
        from repro.ordering import adversarial_ring_order

        spec = pgft(2, [4, 8], [1, 4], [1, 1])
        tables = route_dmodk(build_fabric(spec))
        N = spec.num_endports
        order = adversarial_ring_order(spec)
        from repro.collectives.schedule import stage_flows

        src, dst = stage_flows(ring(N).stages[0], order)
        wl = permutation_workload(src, dst, N, 262144.0, repeats=4)
        res = FluidSimulator(tables).run_sequences(wl)
        # 4 flows forced onto single up links: about 1/4 of wire speed.
        assert res.normalized_bandwidth < 0.45
