"""Property-based tests: repair and discovery under random damage, and
the fault-local repair kernel against a brute-force reference.

The reference below re-runs a cold BFS from every end-port and
re-points one (switch, destination) entry at a time in a scalar loop --
the repair's specification, written independently of its vectorised
kernel (cached distance field, affected destinations only, all switches
picked at once)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.faultspace import enumerate_fault_units, sample_fault_combos
from repro.fabric import ForwardingTables, build_fabric
from repro.ordering import topology_subset
from repro.routing import (
    bfs_distances,
    check_reachability,
    route_dmodk,
    route_minhop,
    route_random,
)
from repro.routing.repair import (
    REPAIR_STRATEGIES,
    repair_distances,
    repair_tables,
)
from repro.topology import (
    DiscoveryError,
    discover_pgft,
    paper_topologies,
    rlft_max,
)

from .test_routing_properties import _hostile
from .test_topology_properties import cbb_specs, pgft_specs

SPEC = rlft_max(4, 2)
FAB = build_fabric(SPEC)
BASE = route_dmodk(FAB)
UPLINKS = np.flatnonzero(FAB.port_goes_up()
                         & (FAB.port_owner >= FAB.num_endports))


class TestRepairProperties:
    @given(st.sets(st.integers(0, len(UPLINKS) - 1), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_reachability_after_any_small_failure_set(self, picks):
        dead = UPLINKS[sorted(picks)]
        degraded = FAB.with_failed_cables(dead)
        rep = repair_tables(BASE, degraded)
        if rep.ok:
            check_reachability(rep.tables)
        # Fabrics with enough redundancy always survive <= 3 failures
        # of distinct leaves' links; assert ok for the single-failure case.
        if len(picks) == 1:
            assert rep.ok

    @given(st.sets(st.integers(0, len(UPLINKS) - 1), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_repaired_entries_avoid_dead_ports(self, picks):
        dead = UPLINKS[sorted(picks)]
        degraded = FAB.with_failed_cables(dead)
        rep = repair_tables(BASE, degraded)
        live_entries = rep.tables.switch_out[rep.tables.switch_out >= 0]
        assert not np.isin(live_entries, degraded.dead_ports()).any()


class TestDiscoveryProperties:
    @given(cbb_specs())
    @settings(max_examples=25, deadline=None)
    def test_every_generated_cbb_spec_recognised(self, spec):
        if spec.num_endports > 200:
            return
        fab = build_fabric(spec)
        fab.spec = None
        assert discover_pgft(fab) == spec

    @given(cbb_specs(), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_damaged_fabric_rejected(self, spec, seed):
        # Removing one switch-level cable breaks the complete-bipartite
        # block structure (or strands a node): discovery must not
        # silently return a spec for it.
        if spec.num_endports > 200 or spec.h < 2:
            return
        fab = build_fabric(spec)
        rng = np.random.default_rng(seed)
        ups = np.flatnonzero(fab.port_goes_up()
                             & (fab.port_owner >= fab.num_endports))
        if not len(ups):
            return
        degraded = fab.with_failed_cables([int(rng.choice(ups))])
        degraded.spec = None
        try:
            got = discover_pgft(degraded)
        except DiscoveryError:
            return  # correctly rejected
        raise AssertionError(f"damaged {spec} mis-recognised as {got}")


# ----------------------------------------------------------------------
# The fault-local kernel against the scalar reference
# ----------------------------------------------------------------------

def reference_repairs(tables, fabric, dist):
    """``{strategy: (switch_out, repaired_entries, dead_ports,
    unreachable, strategy)}``, one entry at a time over the cold
    distance field ``dist`` of ``fabric``."""
    N = fabric.num_endports
    dist = dist.tolist()
    peer_node = fabric.peer_node.tolist()
    live = (fabric.port_peer >= 0).tolist()
    lost = {h for h in range(N) if not live[int(fabric.port_start[h])]}
    ports = [list(range(int(fabric.port_start[N + r]),
                        int(fabric.port_start[N + r + 1])))
             for r in range(fabric.num_switches)]
    live_rows = [any(live[g] for g in row) for row in ports]

    def on_shortest_path(node, g, d):
        return (g >= 0 and live[g]
                and dist[d][peer_node[g]] == dist[d][node] - 1)

    base = tables.switch_out.tolist()
    needed = [(r, d) for r, row in enumerate(base) for d in range(N)
              if not on_shortest_path(N + r, row[d], d)]
    for r, d in needed:
        base[r][d] = -1
    out = {}
    kept = np.array(base, dtype=np.int64)
    for strategy in REPAIR_STRATEGIES:
        sw = [list(row) for row in base]
        load = np.bincount(kept[kept >= 0],
                           minlength=fabric.num_ports).tolist()
        repaired = 0
        for r, d in needed:
            node = N + r
            if d in lost or dist[d][node] < 0:
                continue
            cand = [g for g in ports[r] if on_shortest_path(node, g, d)]
            if not cand:
                continue
            k = d % len(cand)
            rotated = cand[k:] + cand[:k]
            if strategy == "naive":
                pick = rotated[0]
            else:
                pick = min(rotated, key=lambda g: load[g])
                load[pick] += 1
            sw[r][d] = pick
            repaired += 1
        table = np.array(sw, dtype=np.int64).reshape(tables.switch_out.shape)
        unreachable = lost | set(
            np.flatnonzero((table[live_rows] < 0).any(axis=0)).tolist())
        out[strategy] = (table, repaired, live.count(False),
                         tuple(sorted(unreachable)), strategy)
    return out


def assert_matches_reference(tables, degraded):
    """The fault-local field equals a cold BFS and every strategy's
    report equals the reference; returns the reports."""
    cold = bfs_distances(degraded, np.arange(degraded.num_endports))
    dist, _ = repair_distances(tables.fabric, degraded)
    assert np.array_equal(dist, cold)
    want = reference_repairs(tables, degraded, cold)
    reports = {}
    for strategy in REPAIR_STRATEGIES:
        rep = repair_tables(tables, degraded, strategy=strategy)
        assert rep.tables.fabric is degraded
        assert np.array_equal(rep.tables.switch_out, want[strategy][0])
        assert (rep.repaired_entries, rep.dead_ports, rep.unreachable,
                rep.strategy) == want[strategy][1:]
        reports[strategy] = rep
    return reports


@st.composite
def repair_cases(draw):
    """Small PGFT/RLFT tables from every router (non-minimal and ``-1``
    edits included) with two k <= 3 cable/switch fault sets."""
    spec = draw(st.one_of(pgft_specs(max_levels=3, max_digit=3),
                          cbb_specs(max_levels=2)))
    fab = build_fabric(spec)
    if not 2 <= fab.num_endports <= 36:
        return None
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    router = draw(st.sampled_from(["dmodk", "minhop", "random"]))
    if router == "minhop":
        tables = route_minhop(fab)
    elif router == "random":
        tables = route_random(fab, seed=int(rng.integers(1000)))
    else:
        tables = route_dmodk(fab)
    edit = draw(st.sampled_from(["none", "valley", "loop", "minus1"]))
    if edit != "none":
        edited = _hostile(tables, edit, rng)
        tables = edited if edited is not None else tables
    units = enumerate_fault_units(fab)
    faults = []
    for _ in range(2):
        picks = draw(st.sets(st.integers(0, len(units) - 1),
                             min_size=1, max_size=min(3, len(units))))
        faults.append(sorted({g for i in picks for g in units[i].gports}))
    return tables, faults


class TestFaultLocalRepair:
    """The incremental distance field and the vectorised pick equal a
    cold BFS and the scalar reference."""

    @given(repair_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, case):
        if case is None:
            return
        tables, faults = case
        # the second fault set reuses the distance field the first cached
        for dead in faults:
            assert_matches_reference(tables,
                                     tables.fabric.with_failed_cables(dead))

    def test_restored_cable_recomputes_every_destination(self):
        degraded_base = FAB.with_failed_cables([int(UPLINKS[0])])
        for strategy in REPAIR_STRATEGIES:
            tables = repair_tables(BASE, degraded_base,
                                   strategy=strategy).tables
            # repairing toward the healthy fabric restores a cable the
            # base lacks
            _, cols = repair_distances(degraded_base, FAB)
            assert cols.tolist() == list(range(FAB.num_endports))
            assert_matches_reference(tables, FAB)

    def test_base_mutated_in_place_gets_fresh_distances(self):
        fab = build_fabric(SPEC)
        tables = route_dmodk(fab)
        ups = UPLINKS.tolist()
        assert_matches_reference(tables, fab.with_failed_cables([ups[0]]))
        # cut a leaf-spine cable in the base itself, behind the cache,
        # then fail one that shares neither switch with it: only a fresh
        # BFS sees the cut spine's longer way down
        g, h = ups[5], ups[10]
        owners = fab.port_owner[[g, h]]
        peers = fab.peer_node[[g, h]]
        assert owners[0] != owners[1] and peers[0] != peers[1]
        other = int(fab.port_peer[g])
        fab.port_peer[[g, other]] = -1
        fab.peer_node[[g, other]] = -1
        assert_matches_reference(tables, fab.with_failed_cables([h]))

    def test_repair_of_repaired_tables(self):
        ups = UPLINKS.tolist()
        first = FAB.with_failed_cables([ups[0], ups[3]])
        second = first.with_failed_cables([ups[6]])
        for strategy in REPAIR_STRATEGIES:
            rep = repair_tables(BASE, first, strategy=strategy)
            again = assert_matches_reference(rep.tables, second)
            # the degraded base caches its own distance field
            assert first._distances is not None
            assert again[strategy].ok

    def test_unrouted_entries(self):
        rng = np.random.default_rng(3)
        sw = BASE.switch_out.copy()
        sw[rng.random(sw.shape) < 0.1] = -1
        tables = ForwardingTables(FAB, sw, BASE.host_up)
        for rep in assert_matches_reference(tables, FAB).values():
            # every -1 entry on a live switch toward a reachable host is
            # re-pointed, so nothing is lost on a healthy fabric
            assert rep.ok
            assert rep.repaired_entries == int((sw < 0).sum())
            check_reachability(rep.tables)


@pytest.mark.slow
@pytest.mark.parametrize("topo, max_faults, samples", [
    ("n324", 1, 0),
    ("n1944", 3, 25),
])
def test_paper_scale_matches_reference(topo, max_faults, samples):
    """Every single fault of n324 and 50 sampled k <= 3 combos at
    n1944 (25 of each size above one), job-aware D-Mod-K, both
    strategies."""
    fab = build_fabric(paper_topologies()[topo])
    n = fab.num_endports
    tables = route_dmodk(fab, active=topology_subset(n, n // 9, seed=0))
    units = enumerate_fault_units(fab)
    combos = sample_fault_combos(units, max_faults, samples, seed=0)
    if max_faults > 1:
        combos = combos[len(units):]
    for combo in combos:
        dead = sorted({g for u in combo for g in u.gports})
        assert_matches_reference(tables, fab.with_failed_cables(dead))
