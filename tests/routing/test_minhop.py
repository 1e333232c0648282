"""Min-hop baseline: correctness on PGFT and generic fabrics."""

import numpy as np
import pytest

from repro.fabric import Fabric, build_fabric, loads
from repro.routing import (
    MinHopRouter,
    bfs_distances,
    check_reachability,
    check_up_down,
    route_minhop,
)


class TestBFS:
    def test_distances_on_fig1(self, fig1_fabric):
        dist = bfs_distances(fig1_fabric, np.array([0]))
        assert dist[0, 0] == 0
        assert dist[0, 1] == 2      # same-leaf host: up + down
        assert dist[0, 4] == 4      # other-leaf host
        leaf0 = fig1_fabric.num_endports
        assert dist[0, leaf0] == 1

    def test_all_reachable(self, any_spec):
        fab = build_fabric(any_spec)
        dist = bfs_distances(fab, np.arange(min(4, fab.num_endports)))
        assert (dist >= 0).all()


class TestRouteMinhop:
    @pytest.mark.parametrize("balance", ["roundrobin", "random", "first"])
    def test_reachability(self, any_spec, balance):
        tables = route_minhop(build_fabric(any_spec), balance=balance)
        hops = check_reachability(tables)
        assert hops.max() <= 2 * any_spec.h + 1

    def test_up_down_on_trees(self, any_spec):
        tables = route_minhop(build_fabric(any_spec))
        check_up_down(tables, sample=100)

    def test_paths_are_minimal(self, fig1_fabric):
        tables = route_minhop(fig1_fabric)
        hops = tables.paths_matrix()
        dist = bfs_distances(fig1_fabric, np.arange(fig1_fabric.num_endports))
        N = fig1_fabric.num_endports
        assert np.array_equal(hops, dist[:, :N])

    def test_generic_fabric_without_spec(self):
        # A hand-written 4-host dumbbell: minhop must route it, D-Mod-K not.
        fab = loads(
            "hca A ports=1\nhca B ports=1\nhca C ports=1\nhca D ports=1\n"
            "switch S1 ports=3\nswitch S2 ports=3\n"
            "link A[0] S1[0]\nlink B[0] S1[1]\n"
            "link C[0] S2[0]\nlink D[0] S2[1]\n"
            "link S1[2] S2[2]\n"
        )
        tables = route_minhop(fab)
        hops = check_reachability(tables)
        assert hops[0, 1] == 2
        assert hops[0, 2] == 3

    def test_rejects_unknown_balance(self, fig1_fabric):
        with pytest.raises(ValueError, match="balance"):
            route_minhop(fig1_fabric, balance="bogus")

    def test_rejects_disconnected(self):
        fab = Fabric.from_links(
            num_endports=2, port_counts=[1, 1, 2, 2],
            links=[(0, 0, 2, 0), (1, 0, 3, 0)],
        )
        with pytest.raises(ValueError, match="disconnected"):
            route_minhop(fab)

    def test_roundrobin_spreads_destinations(self, fig1_fabric):
        # Leaf up-ports should each serve some destinations.
        tables = route_minhop(fig1_fabric, balance="roundrobin")
        fab = fig1_fabric
        leaf = fab.num_endports
        row = tables.switch_out[0]
        other_leaf_dests = np.arange(4, 16)
        used = np.unique(row[other_leaf_dests])
        assert len(used) == 4  # all four up ports in play

    def test_first_funnels_destinations(self, fig1_fabric):
        tables = route_minhop(fig1_fabric, balance="first")
        row = tables.switch_out[0]
        other_leaf_dests = np.arange(4, 16)
        assert len(np.unique(row[other_leaf_dests])) == 1

    def test_random_seed_reproducible(self, fig1_fabric):
        a = route_minhop(fig1_fabric, balance="random", seed=5)
        b = route_minhop(fig1_fabric, balance="random", seed=5)
        assert np.array_equal(a.switch_out, b.switch_out)

    def test_router_object(self, fig1_fabric):
        router = MinHopRouter(balance="roundrobin")
        assert router.name == "minhop-roundrobin"
        tables = router(fig1_fabric)
        check_reachability(tables)
