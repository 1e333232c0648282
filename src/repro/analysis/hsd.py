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

Everything is vectorised around one link-load kernel: a block of flows
is walked through the forwarding tables by the one route walk,
:meth:`~repro.fabric.lft.ForwardingTables.walk`, and counted per
``(key, link)`` cell with one ``bincount``.  Keys are stages or (stage,
placement) pairs; a block holds whole stages, so a full CPS takes a few
walks rather than one per stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..collectives.cps import CPS
from ..collectives.schedule import _pair_flows
from ..fabric.lft import EntryRoutes, ForwardingTables, Routes, _raise_earliest

__all__ = [
    "walk_flow_links",
    "stage_link_loads",
    "stage_max_hsd",
    "sequence_hsd",
    "HSDReport",
    "BatchedHSDReport",
    "batched_sequence_hsd",
    "down_port_destination_counts",
]


#: Flows the link-load kernel walks at once, and load cells (stage x key
#: x port) it counts into.  A block breaks only between stages, so one
#: stage -- or a one-key call -- is always one walk.
_BLOCK_FLOWS, _BLOCK_CELLS = 1 << 13, 1 << 18


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
    routes = tables.flow_routes(src, dst)
    routes.raise_fault()
    return routes.flat()


def _count_links(tables: ForwardingTables, src, dst, key=None, num_keys=1,
                 weights=None) -> tuple[np.ndarray, Routes, np.ndarray,
                                        np.ndarray]:
    """The link-load kernel: walk flows ``src[i] -> dst[i]`` once and
    count them per ``(key[i], directed link)`` with one ``bincount``
    (summing ``weights`` in walk order, when given; ``key=None`` is one
    key).  Returns the ``(num_keys, num_ports)`` loads, the routes and
    their hop-major crossed links; a faulted route counts the links it
    crossed, and the caller raises or reports the fault."""
    routes = tables.flow_routes(src, dst)
    rows, gports = routes.flat()
    P = tables.fabric.num_ports
    cells = gports if key is None else key[rows] * P + gports
    loads = np.bincount(cells, None if weights is None else weights[rows],
                        minlength=num_keys * P).reshape(num_keys, P)
    return loads, routes, rows, gports


def stage_link_loads(
    tables: ForwardingTables, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Flows per directed link (array over global port ids) for one stage."""
    loads, routes, _, _ = _count_links(tables, src, dst)
    routes.raise_fault()
    return loads[0]


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


class _Block(NamedTuple):
    """Stages ``lo, lo + 1, ...`` of a CPS under every placement row,
    walked at once.  ``fault`` is the first stage with a faulty route
    and the error text a walk of that stage alone raises.  ``walk``,
    kept on request, is ``(src, dst, stage, rows, gports)``: the flows
    -- row-major, then stage-major, so one stage's flows keep their
    order in a walk of that stage alone -- each flow's stage counted
    from ``lo``, and the hop-major crossed links."""

    lo: int
    flows: np.ndarray   # (stages, num_orders) flow counts
    loads: np.ndarray   # (stages, num_orders, num_ports)
    fault: tuple[int, str] | None
    walk: tuple[np.ndarray, ...] | None

    def raise_fault(self) -> None:
        if self.fault is not None:
            raise ValueError(self.fault[1])


def _stage_fault(routes: Routes, stage: np.ndarray) -> tuple[int, str] | None:
    """The first stage with a faulty route among stage-tagged walked
    flows, and the error a walk of that stage's flows alone raises
    (:meth:`Routes.raise_fault`, flows named by position in the stage)."""
    fault = None
    if len(bad := np.flatnonzero(routes.fault)):
        s = int(stage[bad].min())
        rows_s = np.flatnonzero(stage == s)
        try:
            _raise_earliest(routes.fault[rows_s], routes.length[rows_s])
        except ValueError as exc:
            fault = s, str(exc)
    return fault


def _walk_block(tables: ForwardingTables, placements: np.ndarray,
                pairs: np.ndarray, pair_stage: np.ndarray, lo: int,
                num_stages: int, keep_walk: bool) -> _Block:
    """The :class:`_Block` of rank ``pairs`` whose stages, counted from
    ``lo``, are ``pair_stage``."""
    num_orders = len(placements)
    src, dst, ok = _pair_flows(pairs, placements)
    key = (pair_stage * num_orders + np.arange(num_orders)[:, None])[ok]
    num_keys = num_stages * num_orders
    loads, routes, rows, gports = _count_links(tables, src, dst, key, num_keys)
    stage = key // max(1, num_orders)
    fault = _stage_fault(routes, stage)
    if fault is not None:
        fault = lo + fault[0], fault[1]
    return _Block(
        lo, np.bincount(key, minlength=num_keys).reshape(num_stages, -1),
        loads.reshape(num_stages, num_orders, tables.fabric.num_ports),
        fault, (src, dst, stage, rows, gports) if keep_walk else None)


def _case_blocks(tables: ForwardingTables, cps: CPS, placements: np.ndarray,
                 keep_walk: bool = False):
    """The :class:`_Block` runs of stages covering ``cps``, each at most
    :data:`_BLOCK_FLOWS` flows and :data:`_BLOCK_CELLS` load cells
    unless one stage alone is larger."""
    num_orders = len(placements)
    sizes = np.array([len(st) for st in cps.stages], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    pairs = cps.all_pairs()
    pair_stage = np.repeat(np.arange(len(sizes)), sizes)
    span = max(1, _BLOCK_CELLS // max(1, num_orders * tables.fabric.num_ports))
    lo = 0
    while lo < len(sizes):
        cap = offsets[lo] + _BLOCK_FLOWS // max(1, num_orders)
        hi = int(np.searchsorted(offsets, cap, side="right")) - 1
        hi = max(lo + 1, min(hi, lo + span, len(sizes)))
        a, b = offsets[lo], offsets[hi]
        yield _walk_block(tables, placements, pairs[a:b],
                          pair_stage[a:b] - lo, lo, hi - lo, keep_walk)
        lo = hi


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
    """Per-stage max HSD for a CPS under a placement (the Table 3 row):
    :func:`batched_sequence_hsd` of one placement."""
    rank_to_port = np.asarray(rank_to_port, dtype=np.int64)
    return batched_sequence_hsd(
        tables, cps, rank_to_port[None, :], switch_links_only).report(0)


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
        ran = self.stage_max >= 0
        count = ran.sum(axis=1)
        total = np.where(ran, self.stage_max, 0).sum(axis=1)
        return np.where(count > 0, total / np.maximum(count, 1), 0.0)

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
    """Per-stage max HSD of a CPS under each row of a ``(num_orders,
    L)`` placement matrix: runs of stages are walked for all rows at once
    and counted per ``(stage, placement)`` key (:func:`_case_blocks`).
    A route fault raises the error of the first faulty stage's walk."""
    placements = np.asarray(placements, dtype=np.int64)
    if placements.ndim == 1:
        placements = placements[None, :]
    if placements.ndim != 2:
        raise ValueError("placements must be (num_orders, L)")
    keep_ports = _switch_link_mask(tables) if switch_links_only else None

    stage_max = np.full((placements.shape[0], len(cps.stages)), -1,
                        dtype=np.int64)
    for blk in _case_blocks(tables, cps, placements):
        blk.raise_fault()
        loads = blk.loads if keep_ports is None else blk.loads[..., keep_ports]
        maxima = loads.max(axis=2) if loads.shape[2] else 0
        stage_max[:, blk.lo:blk.lo + len(blk.flows)] = \
            np.where(blk.flows > 0, maxima, -1).T
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
