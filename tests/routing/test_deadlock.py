"""Channel-dependency-graph deadlock analysis."""

import pytest

from repro.fabric import ForwardingTables, build_fabric
from repro.routing import (
    assert_deadlock_free,
    channel_dependencies,
    find_cycle,
    route_dmodk,
    route_minhop,
    route_random,
)
from repro.topology import pgft


@pytest.fixture(scope="module")
def fabric():
    return build_fabric(pgft(2, [4, 4], [1, 4], [1, 1]))


class TestFindCycle:
    def test_empty(self):
        assert find_cycle(set()) is None

    def test_chain_is_acyclic(self):
        assert find_cycle({(1, 2), (2, 3), (3, 4)}) is None

    def test_self_loop(self):
        cycle = find_cycle({(1, 1)})
        assert cycle is not None

    def test_two_cycle(self):
        cycle = find_cycle({(1, 2), (2, 1), (2, 3)})
        assert cycle is not None
        assert set(cycle) >= {1, 2}

    def test_long_cycle_found_among_dag(self):
        deps = {(i, i + 1) for i in range(10)}
        deps |= {(20, 21), (21, 22), (22, 20)}
        cycle = find_cycle(deps)
        assert cycle is not None
        assert {20, 21, 22} <= set(cycle)


class TestRoutedFabrics:
    @pytest.mark.parametrize("router", [
        route_dmodk,
        lambda f: route_minhop(f, "roundrobin"),
        lambda f: route_minhop(f, "random", seed=1),
        lambda f: route_random(f, seed=2),
    ])
    def test_tree_routings_deadlock_free(self, fabric, router):
        tables = router(fabric)
        ndeps = assert_deadlock_free(tables)
        assert ndeps > 0

    def test_every_test_spec_deadlock_free(self, any_spec):
        if any_spec.num_endports > 128:
            pytest.skip("all-pairs CDG; keep it small")
        tables = route_dmodk(build_fabric(any_spec))
        assert_deadlock_free(tables)

    def test_valley_routing_creates_cycle(self, fabric):
        # Force a down-then-up valley: leaf 1 bounces dest 15 upward
        # even though it is not an ancestor relationship violation by
        # itself, rerouting spine->leaf1->spine->leaf3 makes the CDG
        # cyclic together with the symmetric corruption.
        base = route_dmodk(fabric)
        sw = base.switch_out.copy()
        fab = fabric
        up0 = fab.gport(fab.num_endports + 0, 4)  # leaf0 first up port
        up1 = fab.gport(fab.num_endports + 1, 4)
        # leaf0 sends its OWN host 0's traffic up; leaf1 likewise: both
        # re-enter via spines creating up-down-up paths.
        sw[0, 3] = up0    # dest 3 lives under leaf0 but gets bounced up
        sw[1, 7] = up1    # dest 7 lives under leaf1 but gets bounced up
        broken = ForwardingTables(fabric=fab, switch_out=sw,
                                  host_up=base.host_up)
        deps = None
        try:
            deps = channel_dependencies(broken)
        except ValueError:
            return  # loop detected during walking: equally a failure mode
        assert find_cycle(deps) is not None
