"""Fabric data model: nodes, ports and cables as flat NumPy arrays.

This is the library's equivalent of the ``ibdm`` InfiniBand data model
the paper codes against (section VII): an in-memory description of a
physical fabric that routing engines populate with forwarding tables and
that the analysis/simulation layers traverse.

Layout
------
Nodes are numbered ``0..num_nodes-1``:

* ``0..N-1``               -- end-ports (host channel adapters), where
  ``N`` is the end-port count; the node id *is* the paper's end-port
  index ``j`` (the topology-aware MPI node order),
* switches follow, grouped by level (level 1 first).

Ports use a CSR layout: node ``v`` owns global port ids
``port_start[v] .. port_start[v+1]-1``.  Within a switch, local port
numbers are *down ports first* (``0..m_l*p_l-1``) then *up ports*
(``m_l*p_l..``); end-port nodes own only up ports.  A directed link is
identified with its source port id, so per-link flow counters are simply
arrays indexed by global port id.

The model is deliberately struct-of-arrays: every consumer (HSD engine,
fluid simulator) works on whole stages of flows at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..topology.pgft import PGFT
from ..topology.spec import PGFTSpec
from .nodetypes import NodeTypeMap

__all__ = ["Fabric", "build_fabric"]

ENDPORT = 0
SWITCH = 1


@dataclass
class Fabric:
    """A wired fabric.  Construct via :func:`build_fabric` or
    :meth:`Fabric.from_links`.

    Attributes
    ----------
    num_endports:
        Number of host end-ports; node ids ``< num_endports`` are hosts.
    node_level:
        Per-node tree level (0 for end-ports).  ``-1`` when unknown
        (generic parsed fabrics before :meth:`infer_levels`).
    port_start:
        CSR offsets, shape ``(num_nodes+1,)``.
    port_peer:
        For each global port id, the port id at the far end of the cable
        (``-1`` if unconnected).  Cables are symmetric:
        ``port_peer[port_peer[x]] == x``.
    node_names:
        Optional human-readable names (used by the topology file
        writer); auto-generated when absent.
    node_types:
        Optional :class:`~repro.fabric.nodetypes.NodeTypeMap` tagging
        every end-port with a traffic class (compute/storage/...).
        Consumed by the type-aware router and the isolation analyzer;
        ``None`` means a homogeneous population.
    """

    num_endports: int
    node_level: np.ndarray
    port_start: np.ndarray
    port_peer: np.ndarray
    spec: PGFTSpec | None = None
    node_names: list[str] = field(default_factory=list)
    node_types: NodeTypeMap | None = None

    # Derived, filled in __post_init__.
    port_owner: np.ndarray = field(init=False)
    peer_node: np.ndarray = field(init=False)
    # (port_peer copy, end-port distance field) cached by
    # :func:`repro.routing.repair.repair_distances`.
    _distances: tuple | None = field(init=False, default=None, repr=False,
                                     compare=False)

    def __post_init__(self) -> None:
        nn = self.num_nodes
        counts = np.diff(self.port_start)
        self.port_owner = np.repeat(np.arange(nn, dtype=np.int32), counts)
        self.peer_node = np.where(
            self.port_peer >= 0, self.port_owner[self.port_peer], -1
        ).astype(np.int32)
        if not self.node_names:
            self.node_names = [self._default_name(v) for v in range(nn)]
        if (self.node_types is not None
                and self.node_types.num_endports != self.num_endports):
            raise ValueError(
                f"node_types covers {self.node_types.num_endports} "
                f"end-ports, fabric has {self.num_endports}")

    # -- basic queries ---------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.port_start) - 1

    @property
    def num_ports(self) -> int:
        return int(self.port_start[-1])

    @property
    def num_switches(self) -> int:
        return self.num_nodes - self.num_endports

    def node_kind(self, v: int) -> int:
        return ENDPORT if v < self.num_endports else SWITCH

    def is_endport(self, v: np.ndarray | int) -> np.ndarray | bool:
        return np.asarray(v) < self.num_endports

    def gport(self, node: np.ndarray | int, local: np.ndarray | int) -> np.ndarray:
        """Global port id of ``(node, local_port)``; broadcasts."""
        return self.port_start[np.asarray(node)] + np.asarray(local)

    def local_port(self, gport: np.ndarray | int) -> np.ndarray:
        gport = np.asarray(gport)
        return gport - self.port_start[self.port_owner[gport]]

    def ports_of(self, node: int) -> np.ndarray:
        return np.arange(self.port_start[node], self.port_start[node + 1])

    def degree(self, node: int) -> int:
        return int(self.port_start[node + 1] - self.port_start[node])

    # -- level / direction helpers ----------------------------------------
    def port_goes_up(self) -> np.ndarray:
        """Boolean mask over global ports: cable ascends a level."""
        lvl = self.node_level
        src = lvl[self.port_owner]
        dst = np.where(self.peer_node >= 0, lvl[self.peer_node], -1)
        return (self.port_peer >= 0) & (dst > src)

    def infer_levels(self) -> None:
        """BFS from end-ports to assign levels to a generic fabric."""
        lvl = np.full(self.num_nodes, -1, dtype=np.int32)
        lvl[: self.num_endports] = 0
        frontier = np.arange(self.num_endports)
        depth = 0
        while len(frontier):
            depth += 1
            nbrs = []
            for v in frontier:
                ps = self.ports_of(v)
                peers = self.peer_node[ps]
                nbrs.append(peers[peers >= 0])
            nxt = np.unique(np.concatenate(nbrs)) if nbrs else np.array([], int)
            nxt = nxt[lvl[nxt] == -1]
            lvl[nxt] = depth
            frontier = nxt
        self.node_level = lvl

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_links(
        cls,
        num_endports: int,
        port_counts: np.ndarray,
        links: list[tuple[int, int, int, int]],
        spec: PGFTSpec | None = None,
        node_level: np.ndarray | None = None,
        node_names: list[str] | None = None,
    ) -> "Fabric":
        """Build from explicit ``(node_a, port_a, node_b, port_b)`` cables.

        ``port_counts[v]`` is the number of local ports of node ``v``.
        """
        port_counts = np.asarray(port_counts, dtype=np.int64)
        port_start = np.zeros(len(port_counts) + 1, dtype=np.int64)
        np.cumsum(port_counts, out=port_start[1:])
        peer = np.full(int(port_start[-1]), -1, dtype=np.int64)
        for a, pa, b, pb in links:
            ga = port_start[a] + pa
            gb = port_start[b] + pb
            if peer[ga] != -1 or peer[gb] != -1:
                raise ValueError(f"port reused in link ({a},{pa})-({b},{pb})")
            peer[ga] = gb
            peer[gb] = ga
        if node_level is None:
            node_level = np.full(len(port_counts), -1, dtype=np.int32)
        fab = cls(
            num_endports=num_endports,
            node_level=np.asarray(node_level, dtype=np.int32),
            port_start=port_start,
            port_peer=peer,
            spec=spec,
            node_names=node_names or [],
        )
        if len(fab.node_level) and (fab.node_level < 0).any():
            fab.infer_levels()
        return fab

    # -- failure injection ---------------------------------------------------
    def with_failed_cables(self, gports) -> "Fabric":
        """A copy of the fabric with the cables of ``gports`` removed.

        Each entry may name either end of a cable; both ends are marked
        unconnected.  Used for fault-tolerance studies -- routing
        engines must then avoid the dead ports (see
        :mod:`repro.routing.repair`).
        """
        peer = self.port_peer.copy()
        for gp in np.atleast_1d(np.asarray(gports, dtype=np.int64)):
            other = peer[gp]
            if other < 0:
                continue
            peer[gp] = -1
            peer[other] = -1
        return Fabric(
            num_endports=self.num_endports,
            node_level=self.node_level.copy(),
            port_start=self.port_start,
            port_peer=peer,
            spec=self.spec,
            node_names=list(self.node_names),
            node_types=self.node_types,
        )

    def with_failed_switches(self, nodes) -> "Fabric":
        """A copy of the fabric with every cable of ``nodes`` removed.

        The switch-death analogue of :meth:`with_failed_cables`: the
        node itself stays in the model (levels, port ranges and ids are
        unchanged) but all its ports -- and their peers' -- are marked
        unconnected, so routing sees it as unreachable and untraversable.
        Killing a host's node just disconnects that host.
        """
        peer = self.port_peer.copy()
        for node in np.atleast_1d(np.asarray(nodes, dtype=np.int64)):
            if not 0 <= node < len(self.port_start) - 1:
                raise ValueError(f"no such node {int(node)}")
            for gp in range(int(self.port_start[node]),
                            int(self.port_start[node + 1])):
                other = peer[gp]
                if other < 0:
                    continue
                peer[gp] = -1
                peer[other] = -1
        return Fabric(
            num_endports=self.num_endports,
            node_level=self.node_level.copy(),
            port_start=self.port_start,
            port_peer=peer,
            spec=self.spec,
            node_names=list(self.node_names),
            node_types=self.node_types,
        )

    def dead_ports(self) -> np.ndarray:
        """Global port ids with no cable attached."""
        return np.flatnonzero(self.port_peer < 0)

    # -- PGFT accessors -----------------------------------------------------
    def switch_node(self, level: int, index: np.ndarray | int) -> np.ndarray:
        """Global node id of switch ``index`` at ``level`` (PGFT fabrics)."""
        if self.spec is None:
            raise ValueError("fabric has no PGFT spec")
        base = self.num_endports
        for l in range(1, level):
            base += self.spec.switches_at(l)
        return base + np.asarray(index)

    def _default_name(self, v: int) -> str:
        if v < self.num_endports:
            return f"H{v:04d}"
        lvl = int(self.node_level[v]) if len(self.node_level) else -1
        return f"SW{lvl}-{v - self.num_endports:04d}"

    def __repr__(self) -> str:
        return (
            f"Fabric(endports={self.num_endports}, switches={self.num_switches},"
            f" ports={self.num_ports}, spec={self.spec})"
        )


def build_fabric(spec: PGFTSpec,
                 node_types: NodeTypeMap | None = None) -> Fabric:
    """Materialise the PGFT described by ``spec`` into a wired
    :class:`Fabric` using the paper's parallel-port connection rule.

    ``node_types`` optionally tags every end-port with a traffic class
    (see :class:`~repro.fabric.nodetypes.NodeTypeMap`)."""
    tree = PGFT(spec)
    N = spec.num_endports

    # Node table: end-ports, then switches level by level.
    levels = [np.zeros(N, dtype=np.int32)]
    port_counts = [np.full(N, spec.up_ports_at(0), dtype=np.int64)]
    switch_base: dict[int, int] = {}
    base = N
    for level in spec.iter_levels():
        cnt = spec.switches_at(level)
        switch_base[level] = base
        base += cnt
        levels.append(np.full(cnt, level, dtype=np.int32))
        port_counts.append(np.full(cnt, spec.ports_at(level), dtype=np.int64))
    node_level = np.concatenate(levels)
    port_counts = np.concatenate(port_counts)
    port_start = np.zeros(len(port_counts) + 1, dtype=np.int64)
    np.cumsum(port_counts, out=port_start[1:])
    peer = np.full(int(port_start[-1]), -1, dtype=np.int64)

    for level, lower, up_port, upper, down_port in tree.iter_level_cables():
        lo_base = 0 if level == 1 else switch_base[level - 1]
        lo_node = lo_base + lower
        up_node = switch_base[level] + upper
        # Local numbering: switches place down ports first.
        lo_down = 0 if level == 1 else spec.down_ports_at(level - 1)
        ga = port_start[lo_node] + lo_down + up_port
        gb = port_start[up_node] + down_port
        peer[ga] = gb
        peer[gb] = ga

    fab = Fabric(
        num_endports=N,
        node_level=node_level,
        port_start=port_start,
        port_peer=peer,
        spec=spec,
        node_types=node_types,
    )
    return fab
