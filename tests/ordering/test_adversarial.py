"""Adversarial ring ordering: leaf up-link convoys."""

import numpy as np
import pytest

from repro.analysis import sequence_hsd, stage_link_loads
from repro.collectives import ring
from repro.collectives.schedule import stage_flows
from repro.fabric import build_fabric
from repro.ordering import adversarial_ring_order, ring_successor_permutation
from repro.routing import route_dmodk
from repro.topology import paper_topologies, pgft


class TestSuccessorPermutation:
    def test_is_permutation(self):
        spec = pgft(2, [4, 8], [1, 4], [1, 1])  # L=8 leaves, m=4
        succ = ring_successor_permutation(spec)
        assert sorted(succ) == list(range(spec.num_endports))

    def test_destinations_share_leaf_up_port(self):
        spec = pgft(2, [4, 8], [1, 4], [1, 1])
        m = spec.m[0]
        succ = ring_successor_permutation(spec)
        for leaf in range(spec.num_endports // m):
            dests = succ[leaf * m:(leaf + 1) * m]
            residues = set(dests % m)  # D-Mod-K leaf up-port = dest mod m
            assert len(residues) == 1

    def test_mostly_cross_leaf(self):
        spec = pgft(2, [4, 8], [1, 4], [1, 1])
        m = spec.m[0]
        succ = ring_successor_permutation(spec)
        ports = np.arange(spec.num_endports)
        same_leaf = (ports // m) == (succ // m)
        assert same_leaf.sum() == 0  # g >= 2: fully cross-leaf

    def test_rejects_single_level(self):
        with pytest.raises(ValueError):
            ring_successor_permutation(pgft(1, [8], [1], [1]))


class TestAdversarialOrder:
    def test_is_placement(self):
        spec = paper_topologies()["n324"]
        order = adversarial_ring_order(spec)
        assert sorted(order) == list(range(spec.num_endports))

    def test_drives_hsd_to_oversubscription(self):
        # 8 leaves x 4 hosts: HSD should hit m = 4 on some leaf up link.
        spec = pgft(2, [4, 8], [1, 4], [1, 1])
        fab = build_fabric(spec)
        tables = route_dmodk(fab)
        order = adversarial_ring_order(spec)
        rep = sequence_hsd(tables, ring(spec.num_endports), order)
        assert rep.worst >= spec.m[0] - 1

    def test_hot_links_are_leaf_up_links(self):
        spec = pgft(2, [4, 8], [1, 4], [1, 1])
        fab = build_fabric(spec)
        tables = route_dmodk(fab)
        order = adversarial_ring_order(spec)
        st = ring(spec.num_endports).stages[0]
        src, dst = stage_flows(st, order)
        loads = stage_link_loads(tables, src, dst)
        hot = np.flatnonzero(loads == loads.max())
        assert (fab.node_level[fab.port_owner[hot]] == 1).all()
        assert fab.port_goes_up()[hot].all()

    def test_n324_reaches_seventeen(self):
        # L == m == 18 forces one self-flow per leaf: worst HSD = 17.
        spec = paper_topologies()["n324"]
        tables = route_dmodk(build_fabric(spec))
        order = adversarial_ring_order(spec)
        rep = sequence_hsd(tables, ring(spec.num_endports), order)
        assert rep.worst == spec.m[0] - 1
