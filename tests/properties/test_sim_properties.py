"""Property-based tests over the simulators.

Conservation and consistency laws that must hold for *any* workload:
bytes are conserved, makespans are bounded below by the analytic ideal,
the two simulators agree when there is no contention, and adding
contention never speeds anything up.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import build_fabric
from repro.routing import route_dmodk
from repro.sim import (
    QDR_PCIE_GEN2,
    FluidSimulator,
    PacketSimulator,
    ideal_sequence_time,
)
from repro.topology import pgft

SPEC = pgft(2, [4, 4], [1, 4], [1, 1])
N = SPEC.num_endports
TABLES = route_dmodk(build_fabric(SPEC))


@st.composite
def workloads(draw, max_msgs=3):
    """Random small per-port message sequences."""
    seqs = []
    for p in range(N):
        k = draw(st.integers(0, max_msgs))
        seq = []
        for _ in range(k):
            dst = draw(st.integers(0, N - 1).filter(lambda d: d != p))
            size = draw(st.sampled_from([2048.0, 16384.0, 65536.0]))
            seq.append((dst, size))
        seqs.append(seq)
    return seqs


class TestFluidLaws:
    @given(workloads())
    @settings(max_examples=40, deadline=None)
    def test_bytes_conserved(self, seqs):
        res = FluidSimulator(TABLES).run_sequences(seqs)
        assert res.total_bytes == sum(s for q in seqs for _, s in q)

    @given(workloads())
    @settings(max_examples=40, deadline=None)
    def test_makespan_at_least_ideal(self, seqs):
        res = FluidSimulator(TABLES).run_sequences(seqs)
        ideal = ideal_sequence_time(seqs, QDR_PCIE_GEN2)
        assert res.makespan >= ideal - 1e-6

    @given(workloads())
    @settings(max_examples=30, deadline=None)
    def test_barrier_vs_async_both_complete(self, seqs):
        a = FluidSimulator(TABLES).run_sequences(seqs, mode="async")
        b = FluidSimulator(TABLES).run_sequences(seqs, mode="barrier")
        assert a.total_bytes == b.total_bytes
        if a.makespan:
            assert b.makespan > 0

    @given(workloads())
    @settings(max_examples=25, deadline=None)
    def test_messages_ordered_per_port(self, seqs):
        sim = FluidSimulator(TABLES)
        res = sim.run_sequences(seqs)
        by_port: dict[int, list] = {}
        for m in res.messages:
            by_port.setdefault(m.src, []).append(m)
        for p, msgs in by_port.items():
            msgs.sort(key=lambda m: m.start)
            # Each message starts only after the previous one finished.
            for a, b in zip(msgs, msgs[1:]):
                assert b.start >= a.finish - 1e-9
            # And the sequence order matches the workload order.
            assert [m.dst for m in msgs] == [d for d, s in seqs[p] if True]


class TestPacketLaws:
    @given(workloads(max_msgs=2))
    @settings(max_examples=20, deadline=None)
    def test_bytes_conserved(self, seqs):
        res = PacketSimulator(TABLES).run_sequences(seqs)
        assert res.total_bytes == sum(s for q in seqs for _, s in q)

    @given(workloads(max_msgs=2))
    @settings(max_examples=15, deadline=None)
    def test_latency_at_least_zero_load(self, seqs):
        res = PacketSimulator(TABLES).run_sequences(seqs)
        if len(res.latencies):
            floor = QDR_PCIE_GEN2.host_overhead
            assert res.latencies.min() >= floor

    @given(workloads(max_msgs=2), st.sampled_from([2, 8]))
    @settings(max_examples=15, deadline=None)
    def test_credits_never_lose_bytes(self, seqs, credits):
        res = PacketSimulator(TABLES, credit_limit=credits,
                              max_events=20_000_000).run_sequences(seqs)
        assert res.total_bytes == sum(s for q in seqs for _, s in q)


class TestCrossModel:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_agree_on_contention_free_permutations(self, seed):
        # A random constant-displacement permutation is congestion-free
        # (theorem 1): both simulators must report the same bandwidth.
        rng = np.random.default_rng(seed)
        s = int(rng.integers(1, N))
        src = np.arange(N)
        dst = (src + s) % N
        seqs = [[(int(d), 65536.0)] for d in dst]
        f = FluidSimulator(TABLES).run_sequences(seqs)
        p = PacketSimulator(TABLES).run_sequences(seqs)
        assert p.normalized_bandwidth == pytest.approx(
            f.normalized_bandwidth, rel=0.05)
