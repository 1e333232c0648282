"""Forwarding-table repair after link failures.

Real subnet managers re-route around dead cables without recomputing
the whole fabric from scratch.  This module does the same for our
tables, with two strategies:

* ``naive`` -- entries that point at a dead port (or stopped being on a
  shortest path) are re-assigned round-robin (``dest % candidates``)
  over the live shortest-path ports.  Cheap, reachability-restoring,
  but the modular spread can collide: two detoured destinations may
  land on the same surviving up-port, inflating that link's flow
  multiplicity by 2 where physics only forces 1.

* ``balanced`` -- the quality-aware Dmodk-style repair (after
  Gliksberg et al., "High-Quality Fault-Resiliency in Fat-Tree
  Networks"): the same *fault-local* entry set is re-pointed, but each
  detoured destination greedily picks the **least-loaded** surviving
  candidate port (load = destinations currently assigned to it,
  D-Mod-K's own spread included), with a ``dest``-rotated tie-break
  that keeps the closed form's modular flavour.  The result is a
  per-switch spread within one of the ceiling bound -- degraded
  fabrics stay near-balanced, which is what keeps contention local.

Both strategies touch exactly the same (switch, destination) entries
-- everywhere the original routing survives, the tables are
bit-identical to D-Mod-K.  That locality is what the incremental
symbolic re-certifier exploits: only flows whose healthy path crossed
a dead cable can have moved.  The failures/degradation experiments
quantify the quality gap between the two strategies.

The repair itself is fault-local.  :func:`repair_distances` computes
the healthy distance field once per base fabric and caches it there
(re-validated against a copy of ``port_peer``).  Destination ``d``
keeps its healthy distances unless ``d`` is isolated (no live cable
left) or a non-isolated owner ``v`` of a killed port has no live
neighbour at healthy distance ``dist[d, v] - 1``; otherwise every node
still has a live path of strictly falling healthy distance to ``d``,
and deleting cables never shortens one.  Only flagged destinations
re-run BFS (all of them when the degraded fabric has a cable the base
lacks).  Entries are re-pointed for all switches at once: ``naive`` in
one array expression, ``balanced`` rank by rank -- the k-th entry of
every switch in one step, since switches share no ports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fabric.lft import ForwardingTables
from ..fabric.model import Fabric
from .minhop import bfs_distances

__all__ = [
    "repair_tables",
    "repair_tables_balanced",
    "RepairReport",
    "REPAIR_STRATEGIES",
    "repair_distances",
    "destination_multiplicity",
    "worst_link_multiplicity",
    "score_repair",
]

#: registered repair strategies (``repair_tables(..., strategy=)``)
REPAIR_STRATEGIES = ("naive", "balanced")


@dataclass(frozen=True)
class RepairReport:
    """What the repair touched."""

    tables: ForwardingTables
    repaired_entries: int        # (switch, dest) entries re-pointed
    dead_ports: int
    unreachable: tuple[int, ...]  # destinations no longer reachable
    strategy: str = "naive"

    @property
    def ok(self) -> bool:
        return not self.unreachable


def destination_multiplicity(tables: ForwardingTables,
                             active: np.ndarray | None = None) -> np.ndarray:
    """Destinations routed through each directed switch link.

    Returns a per-global-port count of how many (reachable) destination
    entries of ``tables.switch_out`` use that port -- the static
    all-to-all flow-multiplicity accounting behind the ``RQL`` quality
    scores: a port serving ``k`` destinations carries up to ``k``
    concurrent flows under all-to-all traffic (healthy D-Mod-K makes
    this spread perfectly even).  ``active`` restricts the count to a
    job's destinations.  Host injection ports are not counted (a host
    link always carries exactly its own traffic).
    """
    sw_out = tables.switch_out
    if active is not None:
        keep = np.zeros(sw_out.shape[1], dtype=bool)
        keep[np.asarray(active, dtype=np.int64)] = True
        sw_out = sw_out[:, keep]
    return np.bincount(sw_out[sw_out >= 0],
                       minlength=tables.fabric.num_ports)


def worst_link_multiplicity(tables: ForwardingTables,
                            active: np.ndarray | None = None) -> int:
    """Max of :func:`destination_multiplicity` -- the worst-link load
    a repair is scored by (lower is better; healthy D-Mod-K is the
    floor)."""
    counts = destination_multiplicity(tables, active=active)
    return int(counts.max()) if counts.size else 0


def score_repair(report: RepairReport) -> tuple[int, int, int]:
    """Static quality key of a repair (ascending = better).

    Orders first by destinations lost, then by the worst-link
    destination multiplicity, then by how many entries were touched --
    the comparison :class:`~repro.faults.HealingController` uses to
    pick the live repair.
    """
    return (len(report.unreachable),
            worst_link_multiplicity(report.tables),
            report.repaired_entries)


def repair_distances(base: Fabric,
                     fabric: Fabric) -> tuple[np.ndarray, np.ndarray]:
    """``bfs_distances(fabric, arange(N))`` for a degraded twin of
    ``base``, and the destinations whose BFS was re-run (the rule is in
    the module docstring)."""
    N = fabric.num_endports
    cache = base._distances
    if cache is None or not np.array_equal(cache[0], base.port_peer):
        cache = (base.port_peer.copy(), bfs_distances(base, np.arange(N)))
        base._distances = cache
    healthy = cache[1]
    peer, owner = fabric.port_peer, fabric.port_owner
    live = peer >= 0
    isolated = np.bincount(owner[live], minlength=fabric.num_nodes) == 0
    # a cable the base lacks (restored or rewired) can shorten anything
    stuck = isolated[:N] | (live & (peer != base.port_peer)).any()
    if not stuck.all():
        hurt = np.zeros(fabric.num_nodes, dtype=bool)
        hurt[owner[(base.port_peer >= 0) & ~live]] = True
        lp = np.flatnonzero(live & hurt[owner])
        if lp.size:
            # live neighbours were base neighbours, within one hop of
            # the owner's distance: one is a step closer iff the nearest is
            v = owner[lp]
            starts = np.flatnonzero(np.diff(v, prepend=-1))
            near = np.minimum.reduceat(healthy[:, fabric.peer_node[lp]],
                                       starts, axis=1)
            stuck |= (near != healthy[:, v[starts]] - 1).any(axis=1)
    cols = np.flatnonzero(stuck)
    dist = healthy.copy()
    dist[:, isolated] = -1
    if cols.size:
        dist[cols] = bfs_distances(fabric, cols)
    return dist, cols


def _needed_entries(fabric: Fabric, dists: np.ndarray,
                    sw_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows/dests of entries that must be re-pointed.

    An entry must be repaired when it is unrouted (``-1``), points at a
    dead port OR is no longer on a shortest path: keeping a non-minimal
    survivor can bounce traffic back toward the failure (a routing
    loop), so the repair is transitive -- every entry re-validates, and
    strictly-descending distances make loops impossible.
    """
    N = fabric.num_endports
    nxt = np.append(fabric.peer_node, -1)[sw_out]  # a -1 entry reads dead
    d_next = np.take(dists, np.arange(N) * dists.shape[1] + nxt)
    return np.nonzero((nxt < 0) | (d_next != dists[:, N:].T - 1))


def _pick_ports(fabric: Fabric, dists: np.ndarray, rows: np.ndarray,
                dests: np.ndarray, load: np.ndarray,
                strategy: str) -> np.ndarray:
    """Repaired out-port of each (row, dest) entry whose switch reaches
    ``dest`` (BFS reached it through a candidate), scanning from the
    ``dest % len(cand)``-th; ``balanced`` takes the first least-loaded."""
    if not len(rows):
        return rows
    nodes = fabric.num_endports + rows
    first = fabric.port_start[nodes][:, None]
    width = int(np.diff(fabric.port_start).max())
    ports = first + np.arange(width)
    inside = ports < fabric.port_start[nodes + 1][:, None]
    ports = np.where(inside, ports, first)
    peers = fabric.peer_node[ports]
    cand = inside & (peers >= 0) & (
        dists[dests[:, None], np.maximum(peers, 0)]
        == dists[dests, nodes][:, None] - 1)
    cnt = cand.sum(axis=1)[:, None]
    # position in the dest-rotated candidate order; non-candidates last
    key = np.where(cand, (np.cumsum(cand, axis=1) - 1
                          - dests[:, None] % cnt) % cnt, width)
    if strategy == "naive":
        col = np.argmin(key, axis=1)
    else:
        # picks only move their own switch's loads: the k-th entry of
        # every switch goes in one step, in entry order within a switch
        rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
        order = np.argsort(rank, kind="stable")
        bounds = np.flatnonzero(np.diff(rank[order], prepend=-1, append=-1))
        # non-candidates score above every candidate's load * width + key
        key += ~cand * (width * (int(load.max()) + len(rows) + 1))
        key, by_rank = key[order], ports[order]
        col = np.empty(len(rows), dtype=np.int64)
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            step = by_rank[lo:hi]
            c = np.argmin(load[step] * width + key[lo:hi], axis=1)
            col[order[lo:hi]] = c
            load[step[np.arange(hi - lo), c]] += 1
    return ports[np.arange(len(rows)), col]


def _repair(tables: ForwardingTables, fabric: Fabric,
            strategy: str) -> RepairReport:
    if fabric.num_ports != tables.fabric.num_ports:
        raise ValueError("degraded fabric does not match the tables' fabric")
    if strategy not in REPAIR_STRATEGIES:
        raise ValueError(f"unknown repair strategy {strategy!r}; "
                         f"known: {REPAIR_STRATEGIES}")
    N = fabric.num_endports
    dead = fabric.port_peer < 0
    sw_out = tables.switch_out.copy()

    # Destinations whose host cable died are gone entirely.
    host_ports = fabric.port_start[:N]
    lost_hosts = tuple(int(h) for h in np.flatnonzero(dead[host_ports]))

    repaired = 0
    if sw_out.size:
        dists, _ = repair_distances(tables.fabric, fabric)
        rows, dests = _needed_entries(fabric, dists, sw_out)
        # Load per directed port: destinations currently assigned to it,
        # with the entries about to be re-pointed removed first so the
        # balanced strategy rebalances against the *surviving* spread.
        sw_out[rows, dests] = -1
        load = np.bincount(sw_out[sw_out >= 0], minlength=fabric.num_ports)
        keep = (~dead[host_ports][dests]) & (dists[dests, N + rows] >= 0)
        rows, dests = rows[keep], dests[keep]
        sw_out[rows, dests] = _pick_ports(fabric, dists, rows, dests, load,
                                          strategy)
        repaired = len(rows)

    new_tables = ForwardingTables(
        fabric=fabric, switch_out=sw_out, host_up=tables.host_up
    )
    # A destination is declared unreachable when its host cable died or
    # any *live* switch was left without a candidate toward it
    # (conservative: some of those switches might never be asked).  A
    # switch that died entirely -- every port unconnected, as after
    # ``with_failed_switches`` -- routes nothing, because no packet can
    # enter it; its inevitable -1 row must not condemn the fabric.
    unreachable = set(lost_hosts)
    if sw_out.size:
        alive = (fabric.port_peer >= 0).astype(np.int64)
        sw_live = np.add.reduceat(alive, fabric.port_start[N:-1]) > 0
        unreachable.update(
            int(d) for d in np.flatnonzero((sw_out[sw_live] < 0).any(axis=0))
        )
    return RepairReport(
        tables=new_tables,
        repaired_entries=repaired,
        dead_ports=int(dead.sum()),
        unreachable=tuple(sorted(unreachable)),
        strategy=strategy,
    )


def repair_tables(tables: ForwardingTables, fabric: Fabric,
                  strategy: str = "naive") -> RepairReport:
    """Re-point dead entries of ``tables`` onto the degraded ``fabric``.

    ``fabric`` must be the degraded twin of ``tables.fabric`` (same
    port numbering; some cables removed, e.g. via
    :meth:`Fabric.with_failed_cables`).  ``strategy`` selects how
    detoured destinations spread over the surviving candidates:
    ``"naive"`` round-robin (historical behaviour), ``"balanced"``
    least-loaded with rotated tie-break (see the module docstring).
    """
    return _repair(tables, fabric, strategy)


def repair_tables_balanced(tables: ForwardingTables,
                           fabric: Fabric) -> RepairReport:
    """The quality-aware repair: :func:`repair_tables` with
    ``strategy="balanced"``."""
    return _repair(tables, fabric, "balanced")
