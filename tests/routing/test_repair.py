"""Failure injection and forwarding-table repair."""

import numpy as np
import pytest

from repro.analysis import sequence_hsd
from repro.collectives import shift
from repro.fabric import ForwardingTables, build_fabric
from repro.ordering import topology_order
from repro.routing import (
    assert_deadlock_free,
    bfs_distances,
    check_reachability,
    route_dmodk,
)
from repro.routing.repair import (
    repair_distances,
    repair_tables,
    repair_tables_balanced,
    score_repair,
    worst_link_multiplicity,
)
from repro.topology import paper_topologies, rlft_max


@pytest.fixture(scope="module")
def healthy():
    spec = rlft_max(4, 2)  # 32 end-ports
    fab = build_fabric(spec)
    return spec, fab, route_dmodk(fab)


def _switch_uplinks(fab):
    return np.flatnonzero(fab.port_goes_up()
                          & (fab.port_owner >= fab.num_endports))


class TestFailureInjection:
    def test_both_ends_die(self, healthy):
        _, fab, _ = healthy
        gp = int(_switch_uplinks(fab)[0])
        peer = int(fab.port_peer[gp])
        degraded = fab.with_failed_cables([gp])
        assert degraded.port_peer[gp] == -1
        assert degraded.port_peer[peer] == -1

    def test_original_untouched(self, healthy):
        _, fab, _ = healthy
        gp = int(_switch_uplinks(fab)[0])
        fab.with_failed_cables([gp])
        assert fab.port_peer[gp] >= 0

    def test_idempotent(self, healthy):
        _, fab, _ = healthy
        gp = int(_switch_uplinks(fab)[0])
        d1 = fab.with_failed_cables([gp])
        d2 = d1.with_failed_cables([gp])
        assert np.array_equal(d1.port_peer, d2.port_peer)

    def test_dead_ports_listed(self, healthy):
        _, fab, _ = healthy
        gp = int(_switch_uplinks(fab)[0])
        degraded = fab.with_failed_cables([gp])
        dead = set(degraded.dead_ports())
        assert gp in dead and int(fab.port_peer[gp]) in dead


class TestRepair:
    def test_no_failures_is_noop(self, healthy):
        _, fab, base = healthy
        rep = repair_tables(base, fab)
        assert rep.repaired_entries == 0
        assert rep.ok
        assert np.array_equal(rep.tables.switch_out, base.switch_out)

    @pytest.mark.parametrize("nfail", [1, 2, 4])
    def test_repair_restores_reachability(self, healthy, nfail):
        spec, fab, base = healthy
        rng = np.random.default_rng(nfail)
        dead = rng.choice(_switch_uplinks(fab), size=nfail, replace=False)
        degraded = fab.with_failed_cables(dead)
        rep = repair_tables(base, degraded)
        assert rep.ok
        check_reachability(rep.tables)

    def test_repaired_tables_stay_deadlock_free(self, healthy):
        _, fab, base = healthy
        dead = _switch_uplinks(fab)[[0, 7]]
        degraded = fab.with_failed_cables(dead)
        rep = repair_tables(base, degraded)
        assert_deadlock_free(rep.tables)

    def test_degradation_is_local(self, healthy):
        # One failed cable: HSD worst grows to exactly 2 (the detour
        # shares one live link), not fabric-wide.
        spec, fab, base = healthy
        n = spec.num_endports
        dead = [int(_switch_uplinks(fab)[0])]
        rep = repair_tables(base, fab.with_failed_cables(dead))
        hsd = sequence_hsd(rep.tables, shift(n), topology_order(n))
        assert hsd.worst == 2

    def test_degradation_monotone(self, healthy):
        spec, fab, base = healthy
        n = spec.num_endports
        rng = np.random.default_rng(9)
        ups = _switch_uplinks(fab)
        picked = rng.permutation(ups)
        prev = 1.0
        for nfail in (1, 4, 8):
            rep = repair_tables(base, fab.with_failed_cables(picked[:nfail]))
            assert rep.ok
            hsd = sequence_hsd(rep.tables, shift(n), topology_order(n))
            assert hsd.avg_max >= prev - 1e-9
            prev = hsd.avg_max

    def test_lost_host_reported(self, healthy):
        _, fab, base = healthy
        host_port = int(fab.port_start[3])
        rep = repair_tables(base, fab.with_failed_cables([host_port]))
        assert 3 in rep.unreachable
        assert not rep.ok

    def test_fabric_mismatch_rejected(self, healthy):
        _, fab, base = healthy
        other = build_fabric(rlft_max(3, 2))
        with pytest.raises(ValueError, match="match"):
            repair_tables(base, other)

    def test_unknown_strategy_rejected(self, healthy):
        _, fab, base = healthy
        with pytest.raises(ValueError, match="strategy"):
            repair_tables(base, fab, strategy="optimal")


class TestRepairEdgeCases:
    def _leaf_and_spine(self, fab):
        levels = fab.node_level
        leaf = int(np.flatnonzero(levels == 1)[0])
        spine = int(np.flatnonzero(levels == levels.max())[0])
        return leaf, spine

    def test_failed_top_level_switch_repairable(self, healthy):
        # Losing one whole spine leaves sibling spines on every route:
        # the repair must restore full reachability, deadlock-free.
        _, fab, base = healthy
        _, spine = self._leaf_and_spine(fab)
        rep = repair_tables(base, fab.with_failed_switches([spine]),
                            strategy="balanced")
        assert rep.ok
        assert rep.repaired_entries > 0
        check_reachability(rep.tables)
        assert_deadlock_free(rep.tables)

    def test_all_leaf_uplinks_dead_reports_not_crashes(self, healthy):
        # Severing every up port of one leaf strands its whole host
        # group; the repair must report them unreachable, not raise.
        _, fab, base = healthy
        leaf, _ = self._leaf_and_spine(fab)
        ports = fab.ports_of(leaf)
        ups = ports[fab.port_goes_up()[ports]]
        hosts = {int(fab.port_owner[int(fab.port_peer[g])])
                 for g in ports[~fab.port_goes_up()[ports]]}
        rep = repair_tables(base, fab.with_failed_cables(ups))
        assert not rep.ok
        assert hosts <= set(rep.unreachable)

    def test_repair_idempotent_under_repeated_fault(self, healthy):
        # Applying the same fault to an already-repaired table set must
        # be a fixed point: nothing left to re-point, tables unchanged.
        _, fab, base = healthy
        gp = int(_switch_uplinks(fab)[0])
        degraded = fab.with_failed_cables([gp])
        rep1 = repair_tables(base, degraded, strategy="balanced")
        rep2 = repair_tables(rep1.tables,
                             degraded.with_failed_cables([gp]),
                             strategy="balanced")
        assert rep2.repaired_entries == 0
        assert np.array_equal(rep2.tables.switch_out,
                              rep1.tables.switch_out)


class TestUnroutedEntries:
    @pytest.mark.parametrize("strategy", ["naive", "balanced"])
    @pytest.mark.parametrize("dest", [0, 306])
    def test_unrouted_entry_on_live_switch_is_repaired(self, dest, strategy):
        # A -1 entry must not be judged by the fabric's last port (index
        # -1): on n324 that port's peer, leaf 341, sits one hop closer
        # to destination 306, which used to leave the entry unrouted
        # and report 306 unreachable on a healthy fabric.
        fab = build_fabric(paper_topologies()["n324"])
        base = route_dmodk(fab)
        sw = base.switch_out.copy()
        sw[-1, dest] = -1
        rep = repair_tables(ForwardingTables(fab, sw, base.host_up), fab,
                            strategy=strategy)
        assert rep.repaired_entries == 1
        assert rep.ok
        check_reachability(rep.tables)


class TestFaultLocality:
    def test_destinations_recomputed_per_fault_class(self):
        # n324: hosts hang off single cables, leaves reach every spine
        # over two parallel cables.  Only a lost host's own distances
        # change, a spine or one leaf-spine cable changes none, and a
        # dead leaf strands its 18 hosts.
        fab = build_fabric(paper_topologies()["n324"])
        N = fab.num_endports
        leaf, spine = N, fab.num_nodes - 1
        up = int(fab.port_start[leaf + 1]) - 1      # a leaf-spine cable
        cases = [(fab.with_failed_cables([int(fab.port_start[5])]), [5]),
                 (fab.with_failed_cables([up]), []),
                 (fab.with_failed_switches([spine]), []),
                 (fab.with_failed_switches([leaf]), list(range(18)))]
        for degraded, want in cases:
            dist, cols = repair_distances(fab, degraded)
            assert cols.tolist() == want
            assert np.array_equal(dist, bfs_distances(degraded,
                                                      np.arange(N)))


class TestStrategies:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_balanced_never_worse_on_worst_link(self, healthy, seed):
        _, fab, base = healthy
        rng = np.random.default_rng(seed)
        dead = rng.choice(_switch_uplinks(fab), size=3, replace=False)
        degraded = fab.with_failed_cables(dead)
        nav = repair_tables(base, degraded, strategy="naive")
        bal = repair_tables_balanced(base, degraded)
        assert worst_link_multiplicity(bal.tables) <= \
            worst_link_multiplicity(nav.tables)
        assert bal.strategy == "balanced" and nav.strategy == "naive"

    def test_balanced_spread_within_one_of_bound(self, healthy):
        _, fab, base = healthy
        dead = _switch_uplinks(fab)[[0, 5]]
        bal = repair_tables_balanced(base, fab.with_failed_cables(dead))
        assert bal.ok
        check_reachability(bal.tables)

    def test_score_orders_lost_before_load(self, healthy):
        _, fab, base = healthy
        host_port = int(fab.port_start[3])
        lossy = repair_tables(base, fab.with_failed_cables([host_port]))
        clean = repair_tables(base, fab)
        assert score_repair(clean) < score_repair(lossy)
