"""Routing validators catch broken tables."""

import pytest

from repro.fabric import ForwardingTables, build_fabric
from repro.routing import (
    RoutingError,
    check_reachability,
    check_up_down,
    route_dmodk,
    trace_route,
)
from repro.topology import pgft


@pytest.fixture
def fabric():
    return build_fabric(pgft(2, [4, 4], [1, 4], [1, 1]))


def test_trace_route_endpoints(fig1_tables):
    path = trace_route(fig1_tables, 0, 5)
    fab = fig1_tables.fabric
    assert fab.port_owner[path[0]] == 0
    assert fab.peer_node[path[-1]] == 5
    assert trace_route(fig1_tables, 3, 3) == []


def test_trace_route_detects_loop(fabric):
    tables = route_dmodk(fabric)
    # Corrupt: leaf 0 bounces destination 15 back up forever by pointing
    # at an up port whose spine sends it back down to another leaf that
    # also points up... simplest: make the spine route 15 to the wrong leaf.
    broken = ForwardingTables(
        fabric=fabric,
        switch_out=tables.switch_out.copy(),
        host_up=tables.host_up,
    )
    # Spine row for dest 15 -> point back down to leaf 0 (wrong subtree).
    spine_row = fabric.num_switches - 1
    leaf0_down = broken.switch_out[spine_row, 0]
    broken.switch_out[spine_row, 15] = leaf0_down
    with pytest.raises((RoutingError, ValueError)):
        check_reachability(broken)


def test_check_up_down_flags_valley(fabric):
    tables = route_dmodk(fabric)
    broken = ForwardingTables(
        fabric=fabric,
        switch_out=tables.switch_out.copy(),
        host_up=tables.host_up,
    )
    # Make leaf 0 send dest 7 down to host 1 first? Then host would be
    # wrong owner; instead reroute spine traffic for dest 7 through leaf 1
    # then up again: corrupt leaf 1 (row 1) to forward 7 upward though it
    # is 7's ancestor... leaf 1 hosts 4..7, so sending 7 up is a valley
    # after the spine already descended.
    up_port_g = fabric.gport(fabric.num_endports + 1, 4)  # first up port
    broken.switch_out[1, 7] = up_port_g
    with pytest.raises((RoutingError, ValueError)):
        check_up_down(broken)
        check_reachability(broken)


def test_check_up_down_sample_subset(fig1_tables):
    # Sampling path: must accept valid tables quickly.
    check_up_down(fig1_tables, sample=10, seed=1)


def test_dead_end_detected(fabric):
    tables = route_dmodk(fabric)
    broken = ForwardingTables(
        fabric=fabric,
        switch_out=tables.switch_out.copy(),
        host_up=tables.host_up,
    )
    broken.switch_out[0, 15] = -1
    with pytest.raises(RoutingError, match="dead end"):
        trace_route(broken, 0, 15)
