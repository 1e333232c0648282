"""Channel-dependency-graph deadlock analysis.

Wormhole/virtual-cut-through networks with credit flow control deadlock
iff the *channel dependency graph* (CDG) has a cycle: vertices are the
directed links (channels), and link ``a`` depends on link ``b`` when
some route traverses ``a`` immediately followed by ``b`` (a packet
holding ``a``'s buffer may wait for ``b``'s).

Up*/down* routing on trees is the textbook acyclic case; this module
*proves* it for a concrete forwarding table instead of assuming it --
and catches engines (or hand-edited LFTs) that introduce valleys.

The CDG is built from consecutive link columns of every (src, dst)
pair's route (:meth:`~repro.fabric.lft.ForwardingTables.walk`), so it
is exact for destination-based tables.
"""

from __future__ import annotations

import numpy as np

from ..fabric.lft import ForwardingTables

__all__ = ["channel_dependencies", "find_cycle", "assert_deadlock_free"]


def channel_dependencies(tables: ForwardingTables) -> set[tuple[int, int]]:
    """All (link a -> link b) dependencies induced by all-pairs routes."""
    fab = tables.fabric
    N = fab.num_endports
    src, dst = np.divmod(np.arange(N * N), N)
    routes = tables.flow_routes(src, dst)
    routes.raise_fault()
    # consecutive hops of one route; ``b`` leaves the node ``a`` enters,
    # so (a, local port of b) is a compact 1-D key
    a = routes.links[:, :-1]
    b = routes.links[:, 1:]
    hop = b >= 0
    a, b = a[hop], b[hop]
    radix = int(np.diff(fab.port_start).max())
    keys = np.flatnonzero(np.bincount(
        a * radix + (b - fab.port_start[fab.port_owner[b]]),
        minlength=fab.num_ports * radix))
    a, local = np.divmod(keys, radix)
    b = fab.port_start[fab.peer_node[a]] + local
    return set(zip(a.tolist(), b.tolist()))


def find_cycle(deps: set[tuple[int, int]]) -> list[int] | None:
    """Return one dependency cycle (as a list of links) or ``None``.

    Iterative DFS with colouring; deterministic order for reproducible
    error reports.
    """
    adj: dict[int, list[int]] = {}
    for a, b in sorted(deps):
        adj.setdefault(a, []).append(b)
    WHITE, GREY, BLACK = 0, 1, 2
    colour: dict[int, int] = {}
    parent: dict[int, int] = {}

    for root in sorted(adj):
        if colour.get(root, WHITE) != WHITE:
            continue
        stack = [(root, iter(adj.get(root, ())))]
        colour[root] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                c = colour.get(nxt, WHITE)
                if c == GREY:
                    # Found a back edge: reconstruct the cycle.
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
                if c == WHITE:
                    colour[nxt] = GREY
                    parent[nxt] = node
                    stack.append((nxt, iter(adj.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return None


def assert_deadlock_free(tables: ForwardingTables) -> int:
    """Raise :class:`~repro.routing.validate.RoutingError` with the
    offending cycle if the CDG has one; returns the number of
    dependencies otherwise.

    (Despite the historical name this does not use ``assert`` -- the
    check survives ``python -O``.)
    """
    from .validate import RoutingError

    deps = channel_dependencies(tables)
    cycle = find_cycle(deps)
    if cycle is not None:
        fab = tables.fabric
        desc = " -> ".join(
            f"{fab.node_names[fab.port_owner[gp]]}[{int(fab.local_port(gp))}]"
            for gp in cycle
        )
        raise RoutingError(f"channel dependency cycle: {desc}")
    return len(deps)
