"""Routing engines producing destination-based forwarding tables.

* :func:`~repro.routing.dmodk.route_dmodk` -- the paper's D-Mod-K
  (eq. 1), contention-free for Shift traffic on RLFTs.
* :func:`~repro.routing.minhop.route_minhop` -- generic min-hop with
  round-robin / random / first tie-breaking (baselines).
* :func:`~repro.routing.random_router.route_random` -- random up-port
  selection on PGFTs (hot-spot-prone baseline).
* :func:`~repro.routing.typeaware.route_typeaware` -- node-type-aware
  D-Mod-K (eq. 1 over per-traffic-class dense ranks).
* :mod:`~repro.routing.validate` -- reachability / up-down / theorem-2
  validators.
"""

from .base import Router, build_pgft_tables
from .deadlock import (
    acyclic,
    assert_deadlock_free,
    channel_dependencies,
    dependency_edges,
    find_cycle,
)
from .dmodk import DModKRouter, dense_ranks, down_parallel_k, q_up, route_dmodk
from .ftree import FTreeRouter, route_ftree
from .minhop import MinHopRouter, bfs_distances, route_minhop
from .random_router import RandomRouter, route_random
from .repair import RepairReport, repair_tables
from .typeaware import TypeAwareRouter, route_typeaware, typed_ranks
from .validate import (
    RoutingError,
    check_reachability,
    check_up_down,
    down_port_destinations,
    trace_route,
)

__all__ = [
    "DModKRouter",
    "FTreeRouter",
    "MinHopRouter",
    "RandomRouter",
    "RepairReport",
    "Router",
    "RoutingError",
    "TypeAwareRouter",
    "acyclic",
    "assert_deadlock_free",
    "bfs_distances",
    "channel_dependencies",
    "dependency_edges",
    "find_cycle",
    "build_pgft_tables",
    "check_reachability",
    "check_up_down",
    "dense_ranks",
    "down_parallel_k",
    "down_port_destinations",
    "q_up",
    "repair_tables",
    "route_dmodk",
    "route_ftree",
    "route_minhop",
    "route_random",
    "route_typeaware",
    "trace_route",
    "typed_ranks",
]
