"""Fault-honoring packet engine: bit-identity, drops, recovery, healing."""

import numpy as np
import pytest

from repro.fabric import ForwardingTables, build_fabric
from repro.faults import FaultEvent, FaultSchedule, HealingController, run_faulty
from repro.faults.schedule import FLAKY, LINK_DOWN, LINK_UP, SWITCH_DOWN
from repro.routing import route_dmodk
from repro.routing.validate import trace_route
from repro.sim import PacketSimulator, SimulationError
from repro.topology import pgft


def _ring_seqs(n, size=4096.0):
    """Every port sends one message to its right neighbour."""
    return [[((p + 1) % n, size)] for p in range(n)]


def _msg_key(res):
    return sorted((m.src, m.dst, m.size, m.start, m.inject, m.finish)
                  for m in res.messages)


def _cut_gport(tables, src, dst):
    """A switch-to-switch cable on the route src -> dst (repairable)."""
    fab = tables.fabric
    N = fab.num_endports
    for gp in trace_route(tables, src, dst):
        peer = int(fab.port_peer[gp])
        if fab.port_owner[gp] >= N and fab.port_owner[peer] >= N:
            return gp
    raise AssertionError(f"route {src}->{dst} never crosses a sw-sw cable")


class TestEmptyScheduleBitIdentity:
    """Acceptance: empty FaultSchedule leaves results bit-identical."""

    def test_reference_engine(self, fig1_tables):
        n = fig1_tables.fabric.num_endports
        seqs = _ring_seqs(n)
        clean = PacketSimulator(fig1_tables, engine="reference")
        faulty = PacketSimulator(fig1_tables, engine="reference",
                                 faults=FaultSchedule())
        a, b = clean.run_sequences(seqs), faulty.run_sequences(seqs)
        assert a.makespan == b.makespan
        assert _msg_key(a) == _msg_key(b)
        assert np.array_equal(np.sort(a.latencies), np.sort(b.latencies))

    def test_vector_engine_keeps_fast_path(self, fig1_tables):
        n = fig1_tables.fabric.num_endports
        seqs = _ring_seqs(n)
        clean = PacketSimulator(fig1_tables, engine="vector")
        faulty = PacketSimulator(fig1_tables, engine="vector",
                                 faults=FaultSchedule())
        a, b = clean.run_sequences(seqs), faulty.run_sequences(seqs)
        assert b.engine_stats.fast_path == a.engine_stats.fast_path
        assert a.makespan == b.makespan
        assert _msg_key(a) == _msg_key(b)

    def test_run_faulty_empty_matches_reference(self, fig1_tables):
        n = fig1_tables.fabric.num_endports
        seqs = _ring_seqs(n)
        ref = PacketSimulator(fig1_tables, engine="reference").run_sequences(seqs)
        sim = PacketSimulator(fig1_tables, engine="reference")
        res, rep = run_faulty(sim, seqs, FaultSchedule())
        assert res.makespan == ref.makespan
        assert _msg_key(res) == _msg_key(ref)
        assert rep.lost == () and rep.delivered_fraction == 1.0
        assert rep.dropped_packets == 0


class TestVectorFallback:
    def test_overlapping_fault_forces_fallback(self, fig1_tables):
        n = fig1_tables.fabric.num_endports
        seqs = _ring_seqs(n)
        gp = _cut_gport(fig1_tables, 3, 4)
        # A window covering the whole run on a cable the traffic uses.
        faults = FaultSchedule(events=(
            FaultEvent(time=0.0, kind=FLAKY, gport=gp, until=1e6, loss=1.0),))
        sim = PacketSimulator(fig1_tables, engine="vector", faults=faults)
        res = sim.run_sequences(seqs)
        assert res.engine_stats.fallback
        assert res.fault_report is not None
        assert res.fault_report.dropped_packets > 0

    def test_disjoint_fault_keeps_fast_path(self, fig1_tables):
        n = fig1_tables.fabric.num_endports
        seqs = _ring_seqs(n)
        gp = _cut_gport(fig1_tables, 3, 4)
        # The fault fires long after every message has landed.
        faults = FaultSchedule(events=(
            FaultEvent(time=1e6, kind=LINK_DOWN, gport=gp),))
        sim = PacketSimulator(fig1_tables, engine="vector", faults=faults)
        clean = PacketSimulator(fig1_tables, engine="vector")
        a, b = clean.run_sequences(seqs), sim.run_sequences(seqs)
        if a.engine_stats.fast_path:
            assert b.engine_stats.fast_path
        assert a.makespan == b.makespan
        assert _msg_key(a) == _msg_key(b)


class TestDrops:
    def test_permanent_cut_loses_crossing_messages(self, fig1_tables):
        n = fig1_tables.fabric.num_endports
        seqs = _ring_seqs(n)
        gp = _cut_gport(fig1_tables, 3, 4)
        faults = FaultSchedule(events=(
            FaultEvent(time=0.0, kind=LINK_DOWN, gport=gp),))
        sim = PacketSimulator(fig1_tables, engine="reference")
        res, rep = run_faulty(sim, seqs, faults)
        assert rep.lost
        assert any(m.src == 3 and m.dst == 4 for m in rep.lost)
        assert 0.0 < rep.delivered_fraction < 1.0
        # Lost messages are flagged, never silently dropped.
        lost_pairs = {(m.src, m.dst) for m in rep.lost}
        flagged = {(m.src, m.dst) for m in res.messages if m.finish < 0}
        assert flagged == lost_pairs

    def test_accounting_invariant(self, fig1_tables):
        """delivered + lost == attempted, for arbitrary schedules."""
        fab = fig1_tables.fabric
        n = fab.num_endports
        seqs = _ring_seqs(n)
        sim = PacketSimulator(fig1_tables, engine="reference")
        for seed in range(10):
            faults = FaultSchedule.random(fab, seed=seed, horizon=20.0,
                                          mtbf=4.0)
            _, rep = run_faulty(sim, seqs, faults)
            assert rep.delivered_messages + len(rep.lost) == rep.total_messages
            assert rep.dropped_packets >= len(rep.lost)

    def test_recovered_cable_carries_retry(self, fig1_tables):
        """A retry launched after link_up goes through untouched."""
        n = fig1_tables.fabric.num_endports
        seqs = _ring_seqs(n)
        gp = _cut_gport(fig1_tables, 3, 4)
        faults = FaultSchedule(events=(
            FaultEvent(time=0.0, kind=LINK_DOWN, gport=gp),
            FaultEvent(time=100.0, kind=LINK_UP, gport=gp),
        ))
        sim = PacketSimulator(fig1_tables, engine="reference")
        _, first = run_faulty(sim, seqs, faults, t0=0.0, attempt=0)
        assert first.lost
        retry_seqs = [[] for _ in range(n)]
        for m in first.lost:
            retry_seqs[m.src].append((m.dst, m.size))
        _, second = run_faulty(sim, retry_seqs, faults, t0=150.0, attempt=1)
        assert second.lost == ()
        assert second.delivered_fraction == 1.0

    def test_switch_death_purges_and_drops(self, fig1_tables):
        fab = fig1_tables.fabric
        n = fab.num_endports
        seqs = _ring_seqs(n)
        leaf = n  # first switch: every ring message crosses its leaf
        faults = FaultSchedule(events=(
            FaultEvent(time=0.0, kind=SWITCH_DOWN, node=leaf),))
        sim = PacketSimulator(fig1_tables, engine="reference")
        res, rep = run_faulty(sim, seqs, faults)
        assert rep.lost
        # The run terminates (no wedged queue) and accounts for all.
        assert rep.delivered_messages + len(rep.lost) == rep.total_messages

    def test_flaky_certain_loss(self, fig1_tables):
        n = fig1_tables.fabric.num_endports
        seqs = _ring_seqs(n)
        gp = _cut_gport(fig1_tables, 3, 4)
        faults = FaultSchedule(events=(
            FaultEvent(time=0.0, kind=FLAKY, gport=gp, until=1e6, loss=1.0),))
        sim = PacketSimulator(fig1_tables, engine="reference")
        _, rep = run_faulty(sim, seqs, faults)
        assert any(m.src == 3 and m.dst == 4 for m in rep.lost)

    def test_flaky_seeded_determinism(self, fig1_tables):
        n = fig1_tables.fabric.num_endports
        seqs = _ring_seqs(n)
        gp = _cut_gport(fig1_tables, 3, 4)
        faults = FaultSchedule(events=(
            FaultEvent(time=0.0, kind=FLAKY, gport=gp, until=1e6, loss=0.5),),
            seed=99)
        sim = PacketSimulator(fig1_tables, engine="reference")
        res_a, rep_a = run_faulty(sim, seqs, faults, t0=3.0, attempt=2)
        res_b, rep_b = run_faulty(sim, seqs, faults, t0=3.0, attempt=2)
        assert rep_a == rep_b
        assert _msg_key(res_a) == _msg_key(res_b)


class TestHealing:
    def test_repair_rescues_post_sweep_traffic(self, fig1_tables):
        fab = fig1_tables.fabric
        n = fab.num_endports
        gp = _cut_gport(fig1_tables, 3, 4)
        faults = FaultSchedule(events=(
            FaultEvent(time=0.0, kind=LINK_DOWN, gport=gp),))
        hc = HealingController(fig1_tables, faults, sweep_delay=10.0)
        sim = PacketSimulator(fig1_tables, engine="reference")
        seqs = _ring_seqs(n)
        # Before the sweep: the 3 -> 4 message dies on the cut.
        _, before = run_faulty(sim, seqs, faults, controller=hc, t0=0.0)
        assert before.lost
        # After the sweep: repaired tables route around the cut.
        _, after = run_faulty(sim, seqs, faults, controller=hc, t0=50.0)
        assert after.lost == ()
        assert after.delivered_fraction == 1.0

    def test_mid_run_swap_recorded(self, fig1_tables):
        """A sweep landing inside the run's event window is reported."""
        fab = fig1_tables.fabric
        n = fab.num_endports
        gp = _cut_gport(fig1_tables, 3, 4)
        faults = FaultSchedule(events=(
            FaultEvent(time=0.0, kind=LINK_DOWN, gport=gp),))
        hc = HealingController(fig1_tables, faults, sweep_delay=1.0)
        sim = PacketSimulator(fig1_tables, engine="reference")
        # Large messages keep the run alive past the sweep at t=1.
        seqs = _ring_seqs(n, size=65536.0)
        _, rep = run_faulty(sim, seqs, faults, controller=hc, t0=0.0)
        assert rep.repairs
        assert rep.repairs[0].sweep_time == 1.0


class TestValidation:
    def test_sequence_count_checked(self, fig1_tables):
        sim = PacketSimulator(fig1_tables, engine="reference")
        with pytest.raises(ValueError, match="sequences"):
            run_faulty(sim, [[]], FaultSchedule())

    def test_healing_requires_faults(self, fig1_tables):
        hc = HealingController(fig1_tables, FaultSchedule())
        with pytest.raises(ValueError, match="without a fault schedule"):
            PacketSimulator(fig1_tables, healing=hc)


def _stale_tables():
    """The 16-port RLFT with one leaf-to-spine cable cut but the
    pre-cut tables kept: some routes walk into the missing cable."""
    spec = pgft(2, [4, 4], [1, 4], [1, 1])
    fab = build_fabric(spec)
    base = route_dmodk(fab)
    up = np.flatnonzero(fab.port_goes_up()
                        & (fab.port_owner >= fab.num_endports))
    dead = build_fabric(spec).with_failed_cables(np.asarray([int(up[0])]))
    return ForwardingTables(fabric=dead, switch_out=base.switch_out,
                            host_up=base.host_up)


class TestDeadCable:
    """A cable the fabric lacks is a link that is down from t=0."""

    def _all_to_all(self, n):
        return [[((p + k) % n, 8192.0) for k in range(1, n)]
                for p in range(n)]

    @pytest.mark.parametrize("engine", ["vector", "reference"])
    def test_loss_without_schedule_raises(self, engine):
        tables = _stale_tables()
        seqs = self._all_to_all(tables.fabric.num_endports)
        sim = PacketSimulator(tables, engine=engine)
        with pytest.raises(SimulationError, match=r"message \d+->\d+ .*"
                                                  r"lost: link down"):
            sim.run_sequences(seqs)

    @pytest.mark.parametrize("engine", ["vector", "reference"])
    def test_loss_under_schedule_is_reported(self, engine):
        tables = _stale_tables()
        n = tables.fabric.num_endports
        seqs = self._all_to_all(n)
        res = PacketSimulator(tables, engine=engine,
                              faults=FaultSchedule()).run_sequences(seqs)
        rep = res.fault_report
        assert rep is not None
        assert rep.total_messages == n * (n - 1)
        assert 0 < len(rep.lost) < rep.total_messages
        assert {m.reason for m in rep.lost} == {"link down"}
        assert rep.delivered_messages + len(rep.lost) == rep.total_messages
        flagged = {(m.src, m.dst) for m in res.messages if m.finish < 0}
        assert flagged == {(m.src, m.dst) for m in rep.lost}


class TestOneResultBuilder:
    """Fault-free and fault-plane runs account bytes the same way."""

    def test_self_sends_counted_under_a_harmless_schedule(self):
        tables = route_dmodk(build_fabric(pgft(2, [4, 4], [1, 4], [1, 1])))
        n = tables.fabric.num_endports
        seqs = [[(p, 4096.0), ((p + 1) % n, 4096.0)] for p in range(n)]
        gp = _cut_gport(tables, 3, 4)
        harmless = FaultSchedule(events=(
            FaultEvent(time=0.0, kind=FLAKY, gport=gp, until=1e6,
                       loss=1e-12),))
        clean = PacketSimulator(tables).run_sequences(seqs)
        flaky = PacketSimulator(tables, faults=harmless).run_sequences(seqs)
        assert flaky.engine_stats.fallback  # the event core ran
        assert clean.fault_report is None
        assert flaky.fault_report is not None
        assert flaky.fault_report.lost == ()
        assert flaky.total_bytes == clean.total_bytes == 2 * n * 4096.0
        assert flaky.normalized_bandwidth == clean.normalized_bandwidth
        assert flaky.makespan == clean.makespan
        assert flaky.messages == clean.messages
