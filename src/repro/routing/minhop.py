"""Generic minimum-hop routing with per-destination load spreading.

Works on *any* fabric (no PGFT spec needed): a breadth-first distance
field is computed toward every destination end-port, and each switch
forwards toward any port whose peer is strictly closer to the
destination.  Ties are broken either

* ``"roundrobin"`` -- the candidate list is indexed by ``dest mod
  #candidates`` (OpenSM's counting min-hop behaves similarly), or
* ``"random"``  -- a seeded uniform draw per ``(switch, destination)``,
* ``"first"``   -- always the lowest-numbered candidate port (a
  deliberately terrible baseline that funnels everything together).

On RLFTs all minimal paths are up*/down*, so this engine is
deadlock-free there; on arbitrary graphs it is plain shortest-path
routing and the up/down validator should be consulted separately.
"""

from __future__ import annotations

import numpy as np

from ..fabric.lft import ForwardingTables
from ..fabric.model import Fabric

__all__ = ["route_minhop", "MinHopRouter", "bfs_distances"]


def bfs_distances(fabric: Fabric, sources: np.ndarray) -> np.ndarray:
    """Unweighted hop distances ``dist[i, v]`` from ``sources[i]`` to every
    node ``v`` (``-1`` where unreachable).

    The breadth-first search runs from the switches: an end-port source
    ``h`` takes ``dist(h, v) = 1 + min`` over its live neighbours ``u``
    of ``dist(u, v)``, exact because every path out of ``h`` starts at
    a neighbour.  At n1944 that is 108 leaf searches instead of 1944.
    """
    sources = np.asarray(sources, dtype=np.int64)
    N = fabric.num_endports
    host = np.flatnonzero(sources < N)
    switch = np.flatnonzero(sources >= N)
    # the live neighbours of every end-port source: (host row, node)
    degree = np.diff(fabric.port_start)[sources[host]]
    row = np.repeat(np.arange(len(host)), degree)
    gp = fabric.port_start[sources[host[row]]] + np.arange(len(row)) \
        - np.repeat(np.cumsum(degree) - degree, degree)
    nbr = fabric.peer_node[gp]
    live = (nbr >= 0) & (nbr != sources[host[row]])
    row, nbr = row[live], nbr[live]
    roots = np.unique(np.concatenate([sources[switch], nbr]))
    field = _bfs(fabric, roots)
    dist = np.full((len(sources), fabric.num_nodes), -1, dtype=np.int32)
    dist[switch] = field[np.searchsorted(roots, sources[switch])]
    # unreachable reads as the largest int32, so a minimum skips it
    far = np.iinfo(np.int32).max
    near = np.full((len(host), fabric.num_nodes), far, dtype=np.int32)
    rank = np.arange(len(row)) - np.searchsorted(row, row)
    for k in range(int(rank.max()) + 1 if len(rank) else 0):
        at = rank == k
        hop = field[np.searchsorted(roots, nbr[at])]
        near[row[at]] = np.minimum(near[row[at]],
                                   np.where(hop >= 0, hop, far))
    dist[host] = np.where(near < far, near + 1, -1)
    dist[host, sources[host]] = 0
    return dist


def _bfs(fabric: Fabric, roots: np.ndarray) -> np.ndarray:
    """Frontier BFS from every root at once: ``dist[i, v]``."""
    V = fabric.num_nodes
    S = len(roots)
    dist = np.full((S, V), -1, dtype=np.int32)
    dist[np.arange(S), roots] = 0
    peer = fabric.peer_node
    valid = peer >= 0
    frontier = dist == 0
    d = 0
    while frontier.any():
        d += 1
        # a node is next when one of its ports' peers is in the frontier
        pin = np.zeros((S, fabric.num_ports), dtype=bool)
        pin[:, valid] = frontier[:, peer[valid]]
        nxt = np.zeros((S, V), dtype=bool)
        np.logical_or.reduceat(pin, fabric.port_start[:-1], axis=1, out=nxt)
        nxt &= dist < 0
        dist[nxt] = d
        frontier = nxt
    return dist


def route_minhop(
    fabric: Fabric,
    balance: str = "roundrobin",
    seed: int | np.random.Generator = 0,
) -> ForwardingTables:
    """Min-hop forwarding tables for any connected fabric."""
    if balance not in ("roundrobin", "random", "first"):
        raise ValueError(f"unknown balance policy {balance!r}")
    rng = np.random.default_rng(seed)
    N = fabric.num_endports
    dests = np.arange(N)
    dist = bfs_distances(fabric, dests)  # (N, V)
    if (dist < 0).any():
        raise ValueError("fabric is disconnected; min-hop cannot route")

    peer = fabric.peer_node
    valid = peer >= 0
    num_sw = fabric.num_switches
    switch_out = np.full((num_sw, N), -1, dtype=np.int64)

    for row in range(num_sw):
        node = N + row
        p0, p1 = int(fabric.port_start[node]), int(fabric.port_start[node + 1])
        ports = np.arange(p0, p1)
        ok = valid[p0:p1]
        peers = peer[p0:p1]
        # cand[d, q] : port q of this switch is on a shortest path to d.
        cand = np.zeros((N, p1 - p0), dtype=bool)
        cand[:, ok] = dist[:, peers[ok]] == (dist[:, node] - 1)[:, None]
        cnt = cand.sum(axis=1)
        if (cnt == 0).any():
            raise ValueError(f"switch {node} has no candidate toward some dest")
        if balance == "roundrobin":
            pick = dests % cnt
        elif balance == "random":
            pick = rng.integers(0, cnt)
        else:  # "first"
            pick = np.zeros(N, dtype=np.int64)
        rank = np.cumsum(cand, axis=1) - 1
        sel = cand & (rank == pick[:, None])
        switch_out[row] = ports[np.argmax(sel, axis=1)]

    host_up = None
    if np.any(np.diff(fabric.port_start[: N + 1]) > 1):
        # Multi-rail hosts: spread destinations across rails.
        counts = np.diff(fabric.port_start[: N + 1])
        host_up = (dests[None, :] % counts[:, None]).astype(np.int32)
    return ForwardingTables(fabric=fabric, switch_out=switch_out, host_up=host_up)


class MinHopRouter:
    """Callable wrapper storing the balance policy and seed."""

    def __init__(self, balance: str = "roundrobin", seed: int = 0):
        self.balance = balance
        self.seed = seed
        self.name = f"minhop-{balance}"

    def __call__(self, fabric: Fabric) -> ForwardingTables:
        return route_minhop(fabric, self.balance, self.seed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MinHopRouter(balance={self.balance!r}, seed={self.seed})"
