"""Channel-dependency-graph deadlock analysis.

Wormhole/virtual-cut-through networks with credit flow control deadlock
iff the *channel dependency graph* (CDG) has a cycle: vertices are the
directed links (channels), and link ``a`` depends on link ``b`` when
some route traverses ``a`` immediately followed by ``b`` (a packet
holding ``a``'s buffer may wait for ``b``'s).

Up*/down* routing on trees is the textbook acyclic case; this module
*proves* it for a concrete forwarding table instead of assuming it --
and catches engines (or hand-edited LFTs) that introduce valleys.

The CDG is read from the tables' entry routes
(:class:`~repro.fabric.lft.EntryRoutes`): the consecutive links of every
used ``(first switch, destination)`` entry's route, plus each host link
followed by the first link of an entry some route through it uses.
That is every (src, dst) route's pair of consecutive links, so the
graph is exact for destination-based tables.  :func:`acyclic` proves a
graph acyclic by peeling sources in bulk; only a graph with a cycle
goes to the depth-first :func:`find_cycle`.
"""

from __future__ import annotations

import numpy as np

from ..fabric.lft import EntryRoutes, ForwardingTables

__all__ = ["channel_dependencies", "dependency_edges", "acyclic",
           "find_cycle", "assert_deadlock_free"]


def dependency_edges(tables: ForwardingTables,
                     entries: EntryRoutes | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """All (link ``a`` -> link ``b``) dependencies induced by all-pairs
    routes, as arrays sorted by ``(a, b)`` without repeats; ``entries``,
    when given, must be ``EntryRoutes(tables)``.  A route fault raises
    the ``ValueError`` of the all-pairs walk."""
    fab = tables.fabric
    N = fab.num_endports
    radix = int(np.diff(fab.port_start).max())
    if entries is None:
        entries = EntryRoutes(tables)
    entries.raise_fault()
    links = entries.routes.links
    hop = links[:, 1:] >= 0
    tails, heads = [links[:, :-1][hop]], [links[:, 1:][hop]]
    # each host link -> the first link of every entry it leads to
    first = tables.switch_out[entries.rows, entries.dst]
    if tables.host_up is None:
        # a host carries its switch's entries, all but its own
        local = first - fab.port_start[N + entries.rows]
        carried = np.bincount(entries.rows * radix + local,
                              minlength=fab.num_switches * radix
                              ).reshape(fab.num_switches, radix)
        src = np.flatnonzero(entries.lead[:, 0] >= N)
        row = entries.lead[src, 0] - N
        carried = carried[row]
        own = entries.index[row, src]
        mine = np.flatnonzero(own >= 0)
        carried[mine, local[own[mine]]] -= 1
        i, k = np.nonzero(carried)
        tails.append(fab.port_start[src[i]])
        heads.append(fab.port_start[N + row[i]] + k)
    else:
        src, dst = entries.pairs_where(entries.lead >= N)
        host_port, lead = entries.host_link(src, dst)
        tails.append(host_port)
        heads.append(first[entries.index[lead - N, dst]])
    a, b = np.concatenate(tails), np.concatenate(heads)
    # ``b`` leaves the node ``a`` enters, so (a, local port of b) is a
    # compact 1-D key
    keys = np.flatnonzero(np.bincount(
        a * radix + (b - fab.port_start[fab.port_owner[b]]),
        minlength=fab.num_ports * radix))
    a, local = np.divmod(keys, radix)
    return a, fab.port_start[fab.peer_node[a]] + local


def channel_dependencies(tables: ForwardingTables) -> set[tuple[int, int]]:
    """All (link a -> link b) dependencies induced by all-pairs routes
    (:func:`dependency_edges` as a set)."""
    a, b = dependency_edges(tables)
    return set(zip(a.tolist(), b.tolist()))


def acyclic(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the graph of edges ``a[i] -> b[i]`` has no cycle.

    Peels every vertex without an incoming edge, and its out-edges, all
    at once, until no edge is left (acyclic) or none can be peeled (the
    rest holds a cycle) -- one ``bincount`` per round, and as many
    rounds as the longest path has edges.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if not len(a):
        return True
    size = int(max(a.max(), b.max())) + 1
    while len(a):
        fed = np.bincount(b, minlength=size) > 0
        keep = fed[a]
        if keep.all():
            return False
        a, b = a[keep], b[keep]
    return True


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

    a, b = dependency_edges(tables)
    if acyclic(a, b):
        return len(a)
    cycle = find_cycle(set(zip(a.tolist(), b.tolist())))
    if cycle is not None:
        fab = tables.fabric
        desc = " -> ".join(
            f"{fab.node_names[fab.port_owner[gp]]}[{int(fab.local_port(gp))}]"
            for gp in cycle
        )
        raise RoutingError(f"channel dependency cycle: {desc}")
    return len(a)
