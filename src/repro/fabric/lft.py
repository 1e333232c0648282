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
consumers read routes from (:class:`Routes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Fabric

__all__ = ["ForwardingTables", "Routes"]


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

    def paths_matrix(self) -> np.ndarray:
        """Hop count between every (src, dst) end-port pair; ``-1`` when a
        route faults (see :meth:`walk`).  Mostly a validation helper."""
        N = self.fabric.num_endports
        src, dst = np.divmod(np.arange(N * N), N)
        routes = self.flow_routes(src, dst)
        hops = np.where(routes.fault == Routes.ARRIVED, routes.length, -1)
        return hops.astype(np.int32).reshape(N, N)

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
        bad = np.flatnonzero(self.fault)
        if not len(bad):
            return
        code = self.fault[bad]
        r = int(bad[np.lexsort((bad, code, self.length[bad]))[0]])
        if self.fault[r] == Routes.LOOP:
            raise ValueError("routing loop: flows did not terminate")
        if self.fault[r] == Routes.DEAD_CABLE:
            raise ValueError(f"flow {r} walked into a dead cable")
        raise ValueError(f"flow {r} hit an unrouted destination")
