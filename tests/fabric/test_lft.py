"""ForwardingTables container: queries, dump, paths matrix."""

import numpy as np
import pytest

from repro.analysis import walk_flow_links
from repro.fabric import ForwardingTables, Routes, build_fabric
from repro.routing import route_dmodk, trace_route
from repro.topology import pgft


def test_shape_validation():
    fab = build_fabric(pgft(2, [4, 4], [1, 2], [1, 2]))
    with pytest.raises(ValueError, match="does not match"):
        ForwardingTables(fabric=fab, switch_out=np.zeros((3, 16), dtype=np.int64))


def test_out_port_matches_dump(fig1_fabric, fig1_tables):
    text = fig1_tables.dump()
    assert "Switch" in text
    # Every switch block lists all 16 destinations.
    assert text.count(" : ") == fig1_fabric.num_switches * 16


def test_paths_matrix_agrees_with_trace(fig1_tables):
    hops = fig1_tables.paths_matrix()
    N = fig1_tables.fabric.num_endports
    for s in range(N):
        for d in range(N):
            if s == d:
                assert hops[s, d] == 0
            else:
                assert hops[s, d] == len(trace_route(fig1_tables, s, d))


def test_paths_matrix_bounds(any_spec):
    fab = build_fabric(any_spec)
    tables = route_dmodk(fab)
    hops = tables.paths_matrix()
    assert hops.min() >= 0
    assert hops.max() <= 2 * any_spec.h + 1
    # Same-leaf pairs take exactly 2 hops (up to leaf, down to host).
    if any_spec.m[0] >= 2:
        assert hops[0, 1] == 2


def test_next_node_walks_toward_destination(fig1_fabric, fig1_tables):
    # From any leaf switch, next hop toward a local host is that host.
    fab = fig1_fabric
    leaf = fab.num_endports  # first switch node
    for dest in range(4):  # hosts 0..3 are under leaf 0
        assert fig1_tables.next_node(leaf, dest) == dest


def test_host_out_port_single_rail(fig1_fabric, fig1_tables):
    src = np.arange(4)
    dst = np.full(4, 9)
    gp = fig1_tables.host_out_port(src, dst)
    assert np.array_equal(gp, fig1_fabric.port_start[src])


def test_walk_records_each_route(fig1_tables):
    fab = fig1_tables.fabric
    src = np.array([0, 3, 5, 9])
    dst = np.array([9, 3, 0, 14])
    routes = fig1_tables.flow_routes(src, dst)
    assert (routes.fault == Routes.ARRIVED).all()
    assert routes.length.tolist() == [
        len(trace_route(fig1_tables, int(s), int(d))) for s, d in zip(src, dst)]
    for r, (s, d) in enumerate(zip(src, dst)):
        n = routes.length[r]
        assert routes.links[r, :n].tolist() == trace_route(
            fig1_tables, int(s), int(d))
        assert (routes.links[r, n:] == -1).all()
    # the flat view is hop-major: every first hop before any second one
    rows, gports = routes.flat()
    assert rows[:3].tolist() == [0, 2, 3]
    assert gports[:3].tolist() == fab.port_start[[0, 5, 9]].tolist()


def test_walk_names_faults(fig1_tables):
    fab = fig1_tables.fabric
    N = fab.num_endports
    sw = fig1_tables.switch_out.copy()
    leaf9 = int(fab.peer_node[fab.port_start[9]])
    sw[leaf9 - N, 9] = -1
    leaf14 = int(fab.peer_node[fab.port_start[14]])
    # a switch that delivers to the wrong host has nowhere to go either
    sw[leaf14 - N, 14] = fab.port_peer[fab.port_start[13]]
    broken = ForwardingTables(fab, sw, fig1_tables.host_up)
    routes = broken.flow_routes(np.array([0, 1, 2]), np.array([9, 14, 2]))
    assert routes.fault.tolist() == [Routes.UNROUTED, Routes.UNROUTED,
                                     Routes.ARRIVED]
    hops = broken.paths_matrix()
    assert hops[0, 9] == hops[1, 14] == -1
    with pytest.raises(ValueError, match="flow 0 hit an unrouted"):
        walk_flow_links(broken, np.array([0, 1]), np.array([9, 14]))
    # the earliest fault by hop wins over a lower flow index
    dead = ForwardingTables(fab.with_failed_cables([fab.port_start[3]]),
                            sw, fig1_tables.host_up)
    with pytest.raises(ValueError, match="flow 1 walked into a dead cable"):
        walk_flow_links(dead, np.array([0, 3]), np.array([9, 0]))
