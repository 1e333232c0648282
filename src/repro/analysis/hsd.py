"""Hot-Spot-Degree (HSD) analysis -- the paper's ibdm-based tool.

Given a topology, forwarding tables and a traffic pattern, compute for
every directed link the number of flows crossing it ("HSD" = flows per
link).  The paper's Figure 3 and Table 3 metrics are built from this:

* per stage: the **maximum** HSD over all links (worst contention when
  all end-ports move through stages synchronously);
* per sequence: the **average** of the per-stage maxima;
* per topology/CPS: statistics of that average over many random
  MPI-node-orders.

``HSD == 1`` for every stage is the paper's congestion-free criterion:
no link ever carries two concurrent flows, so every message runs at
full wire speed and cut-through latency.

Everything is vectorised: a whole stage of flows is walked through the
forwarding tables simultaneously by the one route walk,
:meth:`~repro.fabric.lft.ForwardingTables.walk`;
:func:`walk_flow_links` is its hop-major view, and the per-stage,
per-placement and per-class link loads are counts over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..collectives.cps import CPS
from ..collectives.schedule import stage_flows, stage_flows_batch
from ..fabric.lft import EntryRoutes, ForwardingTables

__all__ = [
    "walk_flow_links",
    "stage_link_loads",
    "stage_class_link_loads",
    "stage_max_hsd",
    "sequence_hsd",
    "HSDReport",
    "BatchedHSDReport",
    "batched_sequence_hsd",
    "down_port_destination_counts",
]


def walk_flow_links(
    tables: ForwardingTables, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Walk every flow ``src[i] -> dst[i]`` through the tables.

    Returns ``(flow_idx, gports)``: parallel arrays listing, for each
    traversed directed link (identified by its source global port id),
    which flow crossed it -- the hop-major view of
    :meth:`ForwardingTables.walk`.  Flows with ``src == dst`` contribute
    nothing.  A route fault raises ``ValueError`` naming the earliest
    one (:meth:`Routes.raise_fault`).
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("src/dst shape mismatch")
    routes = tables.flow_routes(src, dst)
    routes.raise_fault()
    return routes.flat()


def stage_link_loads(
    tables: ForwardingTables, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Flows per directed link (array over global port ids) for one stage."""
    _, gports = walk_flow_links(tables, src, dst)
    loads = np.zeros(tables.fabric.num_ports, dtype=np.int64)
    np.add.at(loads, gports, 1)
    return loads


def stage_class_link_loads(
    tables: ForwardingTables,
    src: np.ndarray,
    dst: np.ndarray,
    flow_class: np.ndarray,
    num_classes: int | None = None,
) -> np.ndarray:
    """Per-traffic-class flows per directed link for one stage.

    ``flow_class[i]`` is the class index of flow ``i``; the result has
    shape ``(num_classes, num_ports)`` and sums over classes to
    :func:`stage_link_loads`.  One table walk serves every class: loads
    are recovered with a single ``bincount`` over
    ``(class, port)`` keys, the same trick
    :func:`batched_sequence_hsd` uses for placements.  This is the
    dynamic (table-walking) side of the isolation analyzer's per-class
    accounting; the symbolic side never touches tables at all.
    """
    flow_class = np.asarray(flow_class, dtype=np.int64)
    src = np.asarray(src, dtype=np.int64)
    if flow_class.shape != src.shape:
        raise ValueError("flow_class/src shape mismatch")
    C = int(num_classes) if num_classes is not None \
        else int(flow_class.max()) + 1 if len(flow_class) else 1
    if len(flow_class) and (flow_class.min() < 0 or flow_class.max() >= C):
        raise ValueError("flow_class references a class index out of range")
    num_ports = tables.fabric.num_ports
    flow_idx, gports = walk_flow_links(tables, src, dst)
    keys = flow_class[flow_idx] * num_ports + gports
    return np.bincount(keys, minlength=C * num_ports).reshape(C, num_ports)


def stage_max_hsd(
    tables: ForwardingTables,
    src: np.ndarray,
    dst: np.ndarray,
    switch_links_only: bool = False,
) -> int:
    """Maximum HSD over links for one synchronous stage.

    ``switch_links_only`` ignores host injection/ejection links (where a
    rank sending and receiving simultaneously is not network contention).
    By default all links count, matching the worst-case analysis.
    """
    loads = stage_link_loads(tables, src, dst)
    if switch_links_only:
        loads = loads[_switch_link_mask(tables)]
    return int(loads.max()) if len(loads) else 0


@dataclass(frozen=True)
class HSDReport:
    """Per-stage maxima and their summary for one (tables, CPS, placement)."""

    cps_name: str
    stage_max: np.ndarray  # (num_stages,) max HSD per stage

    @property
    def avg_max(self) -> float:
        """Figure-3 metric: average over stages of the per-stage max."""
        return float(self.stage_max.mean()) if len(self.stage_max) else 0.0

    @property
    def worst(self) -> int:
        return int(self.stage_max.max()) if len(self.stage_max) else 0

    @property
    def congestion_free(self) -> bool:
        return self.worst <= 1


def sequence_hsd(
    tables: ForwardingTables,
    cps: CPS,
    rank_to_port: np.ndarray,
    switch_links_only: bool = False,
) -> HSDReport:
    """Per-stage max HSD for a CPS under a placement (the Table 3 row)."""
    maxima = []
    for st in cps:
        src, dst = stage_flows(st, rank_to_port)
        if len(src) == 0:
            continue
        maxima.append(stage_max_hsd(tables, src, dst, switch_links_only))
    return HSDReport(cps_name=cps.name, stage_max=np.asarray(maxima, dtype=np.int64))


def _switch_link_mask(tables: ForwardingTables) -> np.ndarray:
    """Ports whose directed link touches no host (the
    ``switch_links_only`` filter of :func:`stage_max_hsd`)."""
    fab = tables.fabric
    owner_is_host = fab.port_owner < fab.num_endports
    peer_is_host = (fab.peer_node >= 0) & (fab.peer_node < fab.num_endports)
    return ~(owner_is_host | peer_is_host)


@dataclass(frozen=True)
class BatchedHSDReport:
    """Per-stage maxima for *many* placements of one (tables, CPS) pair.

    ``stage_max[t, s]`` is the stage-``s`` max HSD under placement ``t``,
    or ``-1`` when that placement produced no flows in the stage (the
    serial path skips such stages entirely).
    """

    cps_name: str
    stage_max: np.ndarray  # (num_orders, num_stages) int64; -1 = skipped

    @property
    def num_orders(self) -> int:
        return self.stage_max.shape[0]

    @property
    def avg_max(self) -> np.ndarray:
        """Figure-3 metric per placement, identical to running
        :class:`HSDReport` ``.avg_max`` order by order."""
        vals = np.empty(self.num_orders, dtype=np.float64)
        for t in range(self.num_orders):
            row = self.stage_max[t]
            row = row[row >= 0]
            vals[t] = float(row.mean()) if len(row) else 0.0
        return vals

    def report(self, t: int) -> HSDReport:
        """The serial-equivalent :class:`HSDReport` of placement ``t``."""
        row = self.stage_max[t]
        return HSDReport(cps_name=self.cps_name, stage_max=row[row >= 0])


def batched_sequence_hsd(
    tables: ForwardingTables,
    cps: CPS,
    placements: np.ndarray,
    switch_links_only: bool = False,
) -> BatchedHSDReport:
    """Vectorised :func:`sequence_hsd` over a placement matrix.

    ``placements`` is ``(num_orders, L)``: each row a ``rank_to_port``
    vector.  All rows of a stage are walked through the forwarding
    tables in one pass and the per-row link loads recovered with a
    single ``bincount`` over ``(order, port)`` keys, so the cost per
    placement is a small fraction of the one-at-a-time path while the
    resulting per-row reports match :func:`sequence_hsd` exactly.
    """
    placements = np.asarray(placements, dtype=np.int64)
    if placements.ndim == 1:
        placements = placements[None, :]
    num_orders = placements.shape[0]
    num_ports = tables.fabric.num_ports
    keep_ports = _switch_link_mask(tables) if switch_links_only else None

    stage_max = np.full((num_orders, len(cps.stages)), -1, dtype=np.int64)
    for s_i, st in enumerate(cps):
        src, dst, order = stage_flows_batch(st, placements)
        if len(src) == 0:
            continue
        present = np.bincount(order, minlength=num_orders) > 0
        flow_idx, gports = walk_flow_links(tables, src, dst)
        keys = order[flow_idx] * num_ports + gports
        loads = np.bincount(
            keys, minlength=num_orders * num_ports
        ).reshape(num_orders, num_ports)
        if keep_ports is not None:
            loads = loads[:, keep_ports]
        if loads.shape[1]:
            maxima = loads.max(axis=1)
        else:
            maxima = np.zeros(num_orders, dtype=np.int64)
        stage_max[present, s_i] = maxima[present]
    return BatchedHSDReport(cps_name=cps.name, stage_max=stage_max)


def down_port_destination_counts(tables: ForwardingTables,
                                 active: np.ndarray | None = None,
                                 entries: EntryRoutes | None = None,
                                 ) -> np.ndarray:
    """Distinct destinations per down-going directed link under all-to-all
    traffic (theorem 2), read from the tables' entry routes
    (:class:`~repro.fabric.lft.EntryRoutes`): a down link carries ``d``
    when the route of some entry toward ``d`` that a pair uses crosses
    it.  ``active`` restricts the all-to-all to a job's active end-ports
    (theorem 2 only binds the traffic a partially populated job can
    generate); ``entries``, when given, must be ``EntryRoutes(tables,
    active)``.  A route fault raises the ``ValueError`` of the all-pairs
    walk."""
    fab = tables.fabric
    N = fab.num_endports
    if entries is None:
        entries = EntryRoutes(tables, active)
    entries.raise_fault()
    rows, gports = entries.routes.flat()
    dst = entries.dst[rows]
    # a host link reaching another host is not up-going either
    src, to = entries.host_pairs()
    gports = np.concatenate([gports, entries.host_link(src, to)[0]])
    dst = np.concatenate([dst, to])
    down = ~fab.port_goes_up()[gports]
    keys = np.unique(gports[down] * N + dst[down])
    return np.bincount(keys // N, minlength=fab.num_ports)
