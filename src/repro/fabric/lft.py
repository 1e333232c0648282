"""Linear forwarding tables (LFTs).

In InfiniBand every switch forwards by a linear table indexed by
destination LID.  We keep the same structure with destination *end-port
index* as the key (end-port node id == end-port index == LID here):

* ``switch_out[row, dest]`` -- the **global port id** a switch sends
  through toward ``dest`` (``-1`` = unreachable / self), where
  ``row = switch_node - num_endports``;
* ``host_up[src, dest]`` -- the local up-port a host uses toward
  ``dest``; omitted (``None``) when every host has a single cable
  (the RLFT case), meaning local port 0.

The tables are the hand-off point between routing engines and the
consumers (HSD analysis, simulators): any router that fills a
:class:`ForwardingTables` plugs into the rest of the library.
:meth:`ForwardingTables.walk` is the one vectorised route walk those
consumers read routes from (:class:`Routes`).  All-pairs consumers read
:class:`EntryRoutes` instead: one walk per used ``(first switch,
destination)`` entry, since every route to ``d`` is a host link
followed by such an entry's route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Fabric

__all__ = ["ForwardingTables", "Routes", "EntryRoutes"]


@dataclass
class ForwardingTables:
    """Destination-based forwarding state for a whole fabric."""

    fabric: Fabric
    switch_out: np.ndarray            # (num_switches, N) int64, global port ids
    host_up: np.ndarray | None = None  # (N, N) int32 local ports, or None

    def __post_init__(self) -> None:
        ns, nd = self.switch_out.shape
        if ns != self.fabric.num_switches or nd != self.fabric.num_endports:
            raise ValueError(
                f"switch_out shape {self.switch_out.shape} does not match "
                f"fabric ({self.fabric.num_switches} switches, "
                f"{self.fabric.num_endports} end-ports)"
            )

    # -- queries ----------------------------------------------------------
    def out_port(self, node: np.ndarray | int, dest: np.ndarray | int) -> np.ndarray:
        """Global out-port id used by switch ``node`` toward ``dest``."""
        row = np.asarray(node) - self.fabric.num_endports
        return self.switch_out[row, np.asarray(dest)]

    def host_out_port(self, src: np.ndarray | int, dest: np.ndarray | int) -> np.ndarray:
        """Global out-port id used by host ``src`` toward ``dest``."""
        src = np.asarray(src)
        if self.host_up is None:
            local = np.zeros(np.broadcast_shapes(src.shape, np.asarray(dest).shape),
                             dtype=np.int64)
        else:
            local = self.host_up[src, np.asarray(dest)]
        return self.fabric.port_start[src] + local

    def next_node(self, node: np.ndarray | int, dest: np.ndarray | int) -> np.ndarray:
        """Node reached from switch ``node`` forwarding toward ``dest``."""
        gp = self.out_port(node, dest)
        return self.fabric.peer_node[gp]

    # -- serialisation (OpenSM ``dump_lfts``-like text) ---------------------
    def dump(self) -> str:
        """Readable dump: one block per switch, ``dest -> local port``."""
        fab = self.fabric
        lines = []
        for row in range(fab.num_switches):
            node = fab.num_endports + row
            lines.append(f"Switch {fab.node_names[node]} (node {node})")
            for dest in range(fab.num_endports):
                gp = self.switch_out[row, dest]
                local = "-" if gp < 0 else str(int(gp - fab.port_start[node]))
                lines.append(f"  {dest:6d} : {local}")
        return "\n".join(lines) + "\n"

    def paths_matrix(self, entries: "EntryRoutes | None" = None
                     ) -> np.ndarray:
        """Hop count between every (src, dst) end-port pair; ``-1`` when a
        route faults (see :meth:`walk`), read from the
        :class:`EntryRoutes` (``entries``, when given, must be
        ``EntryRoutes(self)``).  Mostly a validation helper."""
        fab = self.fabric
        N = fab.num_endports
        if entries is None:
            entries = EntryRoutes(self)
        table = np.full((fab.num_switches + 1, N), -1, dtype=np.int32)
        table[entries.rows, entries.dst] = np.where(
            entries.fault == Routes.ARRIVED, entries.length, -1)
        row = np.where(entries.lead >= N, entries.lead - N,
                       fab.num_switches)
        hops = table[row[:, 0]] if row.shape[1] == 1 \
            else table[row, np.arange(N)]
        src, dst = entries.host_pairs()
        _, fault, length = entries.outcome(src, dst)
        hops[src, dst] = np.where(fault == Routes.ARRIVED, length, -1)
        np.fill_diagonal(hops, 0)
        return hops

    # -- the route walk ----------------------------------------------------
    @property
    def hop_limit(self) -> int:
        """Forwarding steps a route may take after injection, ``2h + 4``
        for an ``h``-level tree: room for a few detours past the
        ``2h - 1`` a minimal route needs, yet a loop still stops."""
        return 2 * (int(self.fabric.node_level.max()) + 1) + 2

    def flow_routes(self, src: np.ndarray, dst: np.ndarray) -> "Routes":
        """:meth:`walk` of flows injected by their source hosts;
        ``src == dst`` flows get empty routes."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src/dst shape mismatch")
        first = np.full(len(dst), -1, dtype=np.int64)
        idx = np.flatnonzero(src != dst)
        first[idx] = self.host_out_port(src[idx], dst[idx])
        return self.walk(first, dst)

    def walk(self, first_port: np.ndarray, dst: np.ndarray) -> "Routes":
        """Walk route ``r`` from global port ``first_port[r]`` toward
        end-port ``dst[r]``, every route at once.

        Each step records the ``(row, gport)`` column of the routes still
        moving.  A route stops when it reaches a host (its destination,
        or else a fault), crosses a dead cable, meets a ``-1`` entry, or
        runs out of :attr:`hop_limit` forwarding steps.  A negative
        ``first_port`` is an empty route (a self flow).  This is the one
        vectorised walk; everything that follows routes through the
        tables is a view over its :class:`Routes`.
        """
        fab = self.fabric
        N = fab.num_endports
        first_port = np.asarray(first_port, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        fault = np.zeros(len(dst), dtype=np.int8)
        rows = np.flatnonzero(first_port >= 0)
        gp = first_port[rows]
        tgt = dst[rows]
        steps: list[tuple[np.ndarray, np.ndarray]] = []
        for _ in range(self.hop_limit + 1):
            if not len(rows):
                break
            steps.append((rows, gp))
            cur = fab.peer_node[gp]
            stop = cur < N  # arrived, dead cable or delivered elsewhere
            if stop.any():
                at = cur[stop]
                odd = at != tgt[stop]
                if odd.any():
                    fault[rows[stop][odd]] = np.where(
                        at[odd] < 0, Routes.DEAD_CABLE, Routes.UNROUTED)
                keep = ~stop
                rows, cur, tgt = rows[keep], cur[keep], tgt[keep]
            gp = self.switch_out[cur - N, tgt]
            unrouted = gp < 0
            if unrouted.any():
                fault[rows[unrouted]] = Routes.UNROUTED
                keep = ~unrouted
                rows, gp, tgt = rows[keep], gp[keep], tgt[keep]
        fault[rows] = Routes.LOOP
        return Routes(steps, fault)


class Routes:
    """Routes walked by :meth:`ForwardingTables.walk`, one row per flow.

    ``steps[k]`` is ``(rows, gports)``: the rows that crossed a ``k``-th
    link, ascending, and the global port of that link.  ``fault[r]`` says
    how route ``r`` ended (:attr:`ARRIVED`, :attr:`DEAD_CABLE`,
    :attr:`UNROUTED` -- a ``-1`` entry or a host other than the
    destination -- or :attr:`LOOP`, no arrival within the hop limit); a
    faulted route keeps the links it crossed.  The padded per-route
    views are built on first use only.
    """

    ARRIVED, DEAD_CABLE, UNROUTED, LOOP = 0, 1, 2, 3

    def __init__(self, steps: list[tuple[np.ndarray, np.ndarray]],
                 fault: np.ndarray) -> None:
        self.steps = steps
        self.fault = fault

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, gports)`` of every crossed link, hop-major."""
        if not self.steps:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        return (np.concatenate([r for r, _ in self.steps]),
                np.concatenate([g for _, g in self.steps]))

    @cached_property
    def length(self) -> np.ndarray:
        """Links crossed per route."""
        length = np.zeros(len(self.fault), dtype=np.int64)
        for k, (rows, _) in enumerate(self.steps):
            length[rows] = k + 1
        return length

    @cached_property
    def links(self) -> np.ndarray:
        """``(R, H)`` crossed links per route, ``-1``-padded; ``H`` is
        the longest route walked."""
        links = np.full((len(self.fault), len(self.steps)), -1,
                        dtype=np.int64)
        for k, (rows, gp) in enumerate(self.steps):
            links[rows, k] = gp
        return links

    def raise_fault(self) -> None:
        """Raise ``ValueError`` naming the earliest fault, if any: the
        lowest step, a dead cable before an unrouted hop, then the
        lowest row."""
        _raise_earliest(self.fault, self.length)


def _raise_earliest(fault: np.ndarray, length: np.ndarray) -> None:
    """:meth:`Routes.raise_fault` over per-row ``fault``/``length``."""
    bad = np.flatnonzero(fault)
    if not len(bad):
        return
    r = int(bad[np.lexsort((bad, fault[bad], length[bad]))[0]])
    if fault[r] == Routes.LOOP:
        raise ValueError("routing loop: flows did not terminate")
    if fault[r] == Routes.DEAD_CABLE:
        raise ValueError(f"flow {r} walked into a dead cable")
    raise ValueError(f"flow {r} hit an unrouted destination")


class EntryRoutes:
    """Every route among a set of end-ports, walked once per table entry.

    The tables are destination-based, so route ``s -> d`` (``s != d``)
    is its host link, ``host_out_port(s, d)``, followed by the route of
    one table entry: the one at the switch that link reaches, ``(first
    switch, d)``.  The entries some pair of ``ends`` (default: every
    end-port) uses are walked once each by
    :meth:`ForwardingTables.walk`, in ``(row, dst)`` order; ``fault`` and
    ``length`` are what a route through the entry gets, its host link
    counted and the walk's hop limit applied to the whole route.  A
    route whose host link reaches no switch (a dead cable, or a cable
    to a host) ends on that link (:meth:`host_pairs`).  For healthy
    tables nothing here is as long as the pair set, unless hosts have
    several up-ports (``host_up`` already is).
    """

    def __init__(self, tables: ForwardingTables,
                 ends: np.ndarray | None = None) -> None:
        fab = tables.fabric
        N = fab.num_endports
        S = fab.num_switches
        self.ends = np.arange(N, dtype=np.int64) if ends is None \
            else np.unique(np.asarray(ends, dtype=np.int64))
        self.inside = np.zeros(N, dtype=bool)
        self.inside[self.ends] = True
        #: host port of route ``s -> d`` at ``[s, 0]`` (one up-port per
        #: host) or ``[s, d]``, and the node that port reaches
        self.host_port = fab.port_start[:N, None] if tables.host_up is None \
            else fab.port_start[:N, None] + tables.host_up
        self.lead = fab.peer_node[self.host_port]
        used = np.zeros((S, N), dtype=bool)
        if tables.host_up is None:
            at = self.ends[self.lead[self.ends, 0] >= N]
            row = self.lead[at, 0] - N
            hosts = np.bincount(row, minlength=S)
            used[:, self.ends] = (hosts > 0)[:, None]
            # a switch's only host does not route to itself
            alone = hosts[row] == 1
            used[row[alone], at[alone]] = False
        else:
            src, dst = self.pairs_where(self.lead >= N)
            used[self.lead[src, dst] - N, dst] = True
        #: the used entries, ``(row, dst)``-sorted, and the id of each
        #: ``(row, dst)`` (``-1`` where no pair uses it)
        self.rows, self.dst = np.nonzero(used)
        self.index = np.full((S, N), -1, dtype=np.int64)
        self.index[self.rows, self.dst] = np.arange(len(self.rows))
        first = tables.switch_out[self.rows, self.dst]
        self.routes = tables.walk(first, self.dst)
        length = self.routes.length + 1
        fault = self.routes.fault.copy()
        fault[first < 0] = Routes.UNROUTED
        limit = tables.hop_limit + 1
        fault[length > limit] = Routes.LOOP
        self.fault = fault
        self.length = np.minimum(length, limit)

    def host_link(self, src: np.ndarray, dst: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Host port of routes ``src[i] -> dst[i]`` and the node it
        reaches."""
        col = dst if self.host_port.shape[1] > 1 else 0
        return self.host_port[src, col], self.lead[src, col]

    def pairs_where(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row-major ``(src, dst)`` pairs of ``ends``, ``src != dst``,
        where the ``(N, 1)`` or ``(N, N)`` ``mask`` holds."""
        N = len(self.inside)
        keep = np.broadcast_to(mask, (N, N)) & self.inside[:, None] \
            & self.inside[None, :]
        np.fill_diagonal(keep, False)
        return np.nonzero(keep)

    def host_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The pairs whose host link reaches no switch."""
        odd = self.lead < len(self.inside)
        if not odd.any():
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        return self.pairs_where(odd)

    def outcome(self, src: np.ndarray, dst: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(entry, fault, length)`` of routes ``src[i] -> dst[i]``
        between end-ports of the set; ``entry`` is ``-1`` for a self
        flow (an empty route) or a route that ends on its host link."""
        N = len(self.inside)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        _, lead = self.host_link(src, dst)
        move = src != dst
        at = move & (lead >= N)
        entry = np.full(len(src), -1, dtype=np.int64)
        entry[at] = self.index[lead[at] - N, dst[at]]
        fault = np.where(
            lead < 0, Routes.DEAD_CABLE,
            np.where(lead == dst, Routes.ARRIVED, Routes.UNROUTED)
        ).astype(np.int8)
        fault[at] = self.fault[entry[at]]
        fault[~move] = Routes.ARRIVED
        length = move.astype(np.int64)
        length[at] = self.length[entry[at]]
        return entry, fault, length

    @property
    def faulty(self) -> bool:
        """Whether some route of the set faults."""
        if (self.fault != Routes.ARRIVED).any():
            return True
        _, fault, _ = self.outcome(*self.host_pairs())
        return bool(fault.any())

    def raise_fault(self, src: np.ndarray | None = None,
                    dst: np.ndarray | None = None) -> None:
        """:meth:`Routes.raise_fault` of :meth:`ForwardingTables.flow_routes`
        over pairs ``src[i] -> dst[i]`` of ``ends``; by default every
        ``(s, d)`` in row-major order, self flows included, built only
        when some route faults."""
        if src is None or dst is None:
            if not self.faulty:
                return
            n = len(self.ends)
            src, dst = np.repeat(self.ends, n), np.tile(self.ends, n)
        _, fault, length = self.outcome(src, dst)
        _raise_earliest(fault, length)
