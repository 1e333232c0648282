"""Fabric construction: wiring invariants over every test topology."""

import numpy as np
import pytest

from repro.fabric import Fabric, build_fabric
from repro.topology import PGFT


class TestBuildFabric:
    def test_every_port_connected(self, any_spec):
        fab = build_fabric(any_spec)
        assert (fab.port_peer >= 0).all()

    def test_peer_symmetry(self, any_spec):
        fab = build_fabric(any_spec)
        gp = np.arange(fab.num_ports)
        assert np.array_equal(fab.port_peer[fab.port_peer], gp)

    def test_no_self_links(self, any_spec):
        fab = build_fabric(any_spec)
        assert (fab.peer_node != fab.port_owner).all()

    def test_node_counts(self, any_spec):
        fab = build_fabric(any_spec)
        assert fab.num_endports == any_spec.num_endports
        assert fab.num_switches == any_spec.num_switches

    def test_port_counts_per_level(self, any_spec):
        fab = build_fabric(any_spec)
        for v in range(fab.num_nodes):
            lvl = int(fab.node_level[v])
            if lvl == 0:
                assert fab.degree(v) == any_spec.up_ports_at(0)
            else:
                assert fab.degree(v) == any_spec.ports_at(lvl)

    def test_links_cross_exactly_one_level(self, any_spec):
        fab = build_fabric(any_spec)
        src = fab.node_level[fab.port_owner]
        dst = fab.node_level[fab.peer_node]
        assert (np.abs(src - dst) == 1).all()

    def test_up_down_port_split(self, multi_level_spec):
        # Switch local ports: down ports first, then up ports.
        fab = build_fabric(multi_level_spec)
        goes_up = fab.port_goes_up()
        for v in range(fab.num_endports, fab.num_nodes):
            lvl = int(fab.node_level[v])
            n_down = multi_level_spec.down_ports_at(lvl)
            ports = fab.ports_of(v)
            assert not goes_up[ports[:n_down]].any()
            assert goes_up[ports[n_down:]].all()

    def test_endport_connects_to_its_leaf(self, multi_level_spec):
        fab = build_fabric(multi_level_spec)
        tree = PGFT(multi_level_spec)
        eps = np.arange(multi_level_spec.num_endports)
        leaves = tree.leaf_of_endport(eps)
        expected_node = fab.switch_node(1, leaves)
        got = fab.peer_node[fab.port_start[eps]]
        assert np.array_equal(got, expected_node)


class TestFromLinks:
    def test_duplicate_port_rejected(self):
        with pytest.raises(ValueError, match="port reused"):
            Fabric.from_links(
                num_endports=2,
                port_counts=[1, 1, 4],
                links=[(0, 0, 2, 0), (1, 0, 2, 0)],
            )

    def test_infers_levels(self):
        fab = Fabric.from_links(
            num_endports=2,
            port_counts=[1, 1, 2],
            links=[(0, 0, 2, 0), (1, 0, 2, 1)],
        )
        assert list(fab.node_level) == [0, 0, 1]

    def test_gport_and_local_port(self):
        fab = Fabric.from_links(
            num_endports=2,
            port_counts=[1, 1, 2],
            links=[(0, 0, 2, 0), (1, 0, 2, 1)],
        )
        assert fab.gport(2, 1) == 3
        assert fab.local_port(3) == 1

    def test_default_names_unique(self, any_spec):
        fab = build_fabric(any_spec)
        assert len(set(fab.node_names)) == fab.num_nodes
