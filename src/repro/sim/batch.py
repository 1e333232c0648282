"""The wave calendar: many packet scenarios advanced as one NumPy program.

The event-driven core (:func:`repro.faults.packetsim.run_faulty`)
spends one Python heap event per packet-hop (``ceil(size/MTU) x hops x
~3`` events per message), which caps it at a few dozen end-ports.  This
engine restructures the same model around three observations:

1. **An uncontended message is closed-form.**  When no other traffic
   touches a message's links while it is in flight, every timestamp the
   event engine would produce follows a short max-plus recurrence:

   * injection: ``s[j,0] = max(f[j], rel[j-limit,0])`` with
     ``f[j] = s[j-1,0] + d[j-1,0]`` (the host sends back-to-back unless
     credit-blocked),
   * switch hop ``h``: ``s[j,h] = max(a[j,h] + switch_lat,
     s[j-1,h] + d[j-1,h], rel[j-limit,h])`` with arrival
     ``a[j,h] = s[j,h-1] + wire_lat``,
   * credit release: ``rel[j,h] = s[j,h+1] + d[j,h+1]`` (the slot on
     link ``h`` frees when the packet's tail leaves the *next* link),
   * delivery: ``fin = s[last,H-1] + wire_lat + size_last/cap[H-1]``.

   Each ``max`` mirrors one guard in the event engine (output busy,
   FIFO order, credit availability), so the recurrence reproduces the
   event-core timestamps *bit for bit* -- same IEEE-754 operations in
   the same order.

2. **Messages in a wave are independent.**  Ports progress through
   their sequences autonomously, so the *k*-th messages of all ports
   (a "wave") advance together as NumPy operations -- a bucketed
   calendar over wave epochs instead of a heap over packet events.
   Rows are grouped by packet count into blocks, each sorted longest
   route first, and a block advances as a wavefront: packet ``j`` at
   hop ``h`` runs at step ``a*j + h`` (``a`` is 2 only under a credit
   limit of 1), so one NumPy call advances every hop of every row of
   the block.  The FIFO and credit guards read a ring of the last few
   steps' tails.  Packets before the first and hops past a route's end
   have ``-inf`` tails, so the initial credits and the ejection link's
   credit exemption need no masks; delivery is computed once, at each
   row's ejection hop of its last packet.

3. **Scenarios are independent too.**  Every recurrence updates a row
   using only that row's state, so a *batch* axis folds straight into
   the row axis: the k-th messages of every port of every scenario form
   one mega-wave, and thousands of (fault schedule, ordering,
   placement, credit regime) variants advance as a single program.
   Elements that share a workload (equal ``dst``/``size``/``nmsg``
   arrays, or one ``sequences`` object) and a credit regime share their
   rows: each distinct workload is advanced and conflict-screened once,
   and each element screens its own fault schedule against that
   workload's occupancy.  ``PacketSimulator(engine="vector")`` is a
   batch of one.  A :class:`~repro.faults.controller.HealingController`
   computes a sweep's repair only if an event-core run reaches that
   sweep, so fast elements pay for none.

Soundness is *checked, not assumed*, per element:

* **routes** -- :meth:`~repro.fabric.lft.ForwardingTables.walk` walks
  every message through the tables, injecting on the host's rail-0 up
  port like the event core; a route that hits a missing cable, an
  unrouted destination or a loop demotes its element;
* **budget** -- an element whose event core would exceed
  ``max_events`` packet arrivals raises
  ``SimulationError("packet event budget exhausted")``;
* **conflicts** -- while advancing waves the engine records, per
  message and link, the interval [first entry, last slot release]
  during which the message occupies the link.  If two intervals on one
  link overlap (within :data:`CONFLICT_MARGIN`), packets could have
  interacted -- queued behind each other, stolen credits, blocked an
  output -- and the element is demoted.  If none overlap, a
  first-divergence induction gives that the event engine would never
  have executed a contended guard either, so the analytic timestamps
  are exact.  A conservative per-``(workload, link)`` screen runs inside
  the wave loop; only screened workloads get the exact lexsorted scan,
  which also counts the conflicting pairs;
* **faults** -- a live repair before the element's last delivery, or a
  fault window intersecting the element's occupancy (a cheap
  min-enter/max-exit envelope prunes schedules that cannot intersect),
  demotes the element.  The earliest-swap time is schedule algebra; no
  repair is computed for it.

A demoted element runs through the event core once per distinct
scenario: elements that share a workload, credit regime, fault schedule
(by identity), healing settings and demotion reason share one run and
each get their own copy of its result (or of its error), so every
element's result is bit-identical to its solo run, fast or not.

A fast element's :class:`~repro.sim.packet.PacketResult` reads a
:class:`~repro.sim.records.RecordTable` over its workload's result
columns (elements sharing a workload share the table); its per-message
record objects are built only if ``messages`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from ..fabric.lft import ForwardingTables
from .calibration import QDR_PCIE_GEN2, LinkCalibration, link_capacities
from .events import SimulationError
from .packet import PacketEngineStats, PacketResult, PacketSimulator
from .records import EMPTY, RecordTable, sequence_columns

if TYPE_CHECKING:  # pragma: no cover
    from ..collectives.cps import CPS
    from ..faults.controller import HealingController
    from ..faults.schedule import FaultSchedule

__all__ = [
    "CONFLICT_MARGIN",
    "INHERIT",
    "BatchElement",
    "BatchResult",
    "BatchSpec",
    "BatchStats",
    "ScenarioSpec",
    "cps_workload_arrays",
    "ordering_batch",
    "run_batch",
]


#: Two link-occupancy intervals closer than this (microseconds) are
#: treated as interacting.  Generously above the event engine's 1e-12
#: comparison epsilon and any accumulated float noise, and far below
#: real scheduling gaps (which are >= a per-message overhead).
CONFLICT_MARGIN = 1e-6


class _Inherit:
    """Sentinel: a per-element knob deferring to the batch default."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "INHERIT"


INHERIT = _Inherit()


@dataclass
class ScenarioSpec:
    """One batch element: a workload plus its fault/credit environment.

    The workload is either ``sequences`` (the per-port ``(dst, size)``
    lists every simulator consumes) or the struct-of-arrays form
    ``dst``/``size`` of shape ``(N, K)`` with per-port message counts
    ``nmsg`` -- row ``(p, k)`` is port ``p``'s ``k``-th message.  The
    array form skips all per-element Python flattening and is what
    :func:`ordering_batch` builds for whole placement grids at once.

    ``sweep_delay`` requests self-healing semantics: the batch engine
    builds ``HealingController(tables, faults, sweep_delay, strategy)``
    for the element, which computes a sweep's repair only if the
    element's event-core run reaches that sweep.  Pass ``healing`` to
    reuse a prebuilt controller instead.
    """

    sequences: list[list[tuple[int, float]]] | None = None
    dst: np.ndarray | None = None
    size: np.ndarray | None = None
    nmsg: np.ndarray | None = None
    faults: "FaultSchedule | None" = None
    healing: "HealingController | None" = None
    sweep_delay: float | None = None
    repair_strategy: str = "naive"
    credit_limit: int | None | _Inherit = INHERIT
    label: str = ""

    def __post_init__(self) -> None:
        has_arrays = self.dst is not None
        if has_arrays != (self.nmsg is not None) or \
                has_arrays != (self.size is not None):
            raise ValueError(
                "array-form workload needs all of dst/size/nmsg")
        if (self.sequences is None) == (not has_arrays):
            raise ValueError(
                "exactly one of sequences or dst/size/nmsg is required")
        if self.healing is not None and self.sweep_delay is not None:
            raise ValueError("healing and sweep_delay are exclusive")
        if (self.healing is not None or self.sweep_delay is not None) \
                and self.faults is None:
            raise ValueError("healing/sweep_delay given without faults")

    def materialize_sequences(
        self, num_endports: int
    ) -> list[list[tuple[int, float]]]:
        """The list-of-lists workload (built from arrays on demand)."""
        if self.sequences is not None:
            return self.sequences
        rows = slice(0, num_endports)
        dst = self.dst[rows].astype(np.int64).tolist()
        size = self.size[rows].astype(np.float64).tolist()
        nmsg = self.nmsg[rows].astype(np.int64).tolist()
        return [list(zip(d[:n], s[:n])) for d, s, n in zip(dst, size, nmsg)]


@dataclass
class BatchSpec:
    """A mega-batch: shared tables/calibration, per-element scenarios."""

    tables: ForwardingTables
    elements: list[ScenarioSpec]
    calibration: LinkCalibration = QDR_PCIE_GEN2
    credit_limit: int | None = None
    max_events: int = 5_000_000

    def resolved_credit(self, i: int) -> int | None:
        cl = self.elements[i].credit_limit
        return self.credit_limit if isinstance(cl, _Inherit) else cl


@dataclass
class BatchStats:
    """How a batch run was executed."""

    total: int = 0
    fast_path: int = 0
    fallback_route: int = 0
    fallback_budget: int = 0
    fallback_conflict: int = 0
    fallback_fault: int = 0
    errors: int = 0
    events_saved: int = 0

    @property
    def fallback(self) -> int:
        return (self.fallback_route + self.fallback_budget
                + self.fallback_conflict + self.fallback_fault)


class BatchElement:
    """Per-element result: the element's :class:`PacketResult` or the
    error its run raised."""

    def __init__(self, index: int, spec: BatchSpec):
        self.index = index
        self.label = spec.elements[index].label
        #: "fast" | "fallback" | "error"
        self.status = "fast"
        #: demotion detail: "" | "route" | "budget" | "conflict" | "fault"
        self.reason = ""
        self._error: SimulationError | None = None
        self._result: PacketResult | None = None
        z = np.zeros(0, dtype=np.int64)
        zf = np.zeros(0, dtype=np.float64)
        self._occ: tuple[np.ndarray, np.ndarray, np.ndarray] | None = \
            (z, zf, zf)
        self._n_real = 0
        self._packets = 0
        self._conflicts = 0

    @property
    def makespan(self) -> float:
        return math.nan if self._error is not None \
            else self.packet_result().makespan

    @property
    def latencies(self) -> np.ndarray:
        return np.empty(0) if self._error is not None \
            else self.packet_result().latencies

    def occupancy(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fast-path link-occupancy intervals ``(links, enter, exit)``.

        Only available for fast-path elements (the event core has no
        analytic intervals); frontends use these to reason about fault
        windows without re-simulating.
        """
        if self._occ is None:
            raise ValueError(
                f"element {self.index} has no analytic occupancy "
                f"(status={self.status})")
        return self._occ

    def packet_result(self) -> PacketResult:
        """The element's :class:`PacketResult`, identical to its solo
        ``PacketSimulator`` run; elements whose run raised re-raise the
        same error here."""
        if self._error is not None:
            raise self._error
        assert self._result is not None  # run_batch sets one of the two
        return self._result


def _fast_stats(messages: int, packets: int,
                events_saved: int) -> PacketEngineStats:
    return PacketEngineStats(
        engine="vector", fast_path=True, fallback=False, conflicts=0,
        messages=messages, packets=packets, events_saved=events_saved)


@dataclass
class BatchResult:
    """Outcome of :func:`run_batch`."""

    elements: list[BatchElement]
    stats: BatchStats

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, i: int) -> BatchElement:
        return self.elements[i]

    def makespans(self) -> np.ndarray:
        return np.asarray([e.makespan for e in self.elements])

    def statuses(self) -> list[str]:
        return [e.status for e in self.elements]

    def packet_result(self, i: int) -> PacketResult:
        return self.elements[i].packet_result()


# ----------------------------------------------------------------------
# wave recurrence, conflict scan
# ----------------------------------------------------------------------

def _advance_wave(cal, limit, f0, links, length, caps, pieces, last_size):
    """Advance one wave of isolated messages through the recurrence.

    All arrays are per-message rows (R messages); every route has at
    least two hops, the host up-link and the ejection link.  Returns
    ``(inject, finish, host_tail, enter, exit)`` where the ``(R, H)``
    ``enter``/``exit`` bound each message's occupancy of each of its
    route links (``inf``/``-inf`` past the route's end).

    Rows are independent, so the wave advances block by block: one
    block per packet count, rows sorted longest route first, so that
    every hop of every packet touches one contiguous prefix of its block.
    """
    R = links.shape[0]
    H = int(length.max())
    inject = np.empty(R)
    finish = np.empty(R)
    host_tail = np.empty(R)
    enter = np.full((R, H), np.inf)
    exit_ = np.full((R, H), -np.inf)
    order = np.lexsort((-length, pieces))
    ps = pieces[order]
    cuts = (np.flatnonzero(ps[1:] != ps[:-1]) + 1).tolist()
    for b0, b1 in zip([0, *cuts], [*cuts, R]):
        rows = order[b0:b1]
        inj, fin, tail, ent, ext = _advance_block(
            cal, limit, int(ps[b0]), f0[rows], length[rows], caps[rows],
            last_size[rows])
        Hb = ent.shape[0]
        inject[rows] = inj
        finish[rows] = fin
        host_tail[rows] = tail
        enter[rows, :Hb] = ent.T
        exit_[rows, :Hb] = ext.T
    return inject, finish, host_tail, enter, exit_


def _advance_block(cal, limit, npk, f0, length, caps, last_size):
    """Advance one block of a wave: ``n`` rows of ``npk`` packets each,
    sorted longest route first (hop ``h`` lives on the first ``cnt[h]``).

    Cell ``(j, h)`` (packet ``j`` at hop ``h``) waits on ``(j, h-1)``,
    ``(j-1, h)`` (FIFO) and ``(j-limit, h+1)`` (credit), so step ``t`` of
    a wavefront advances every cell with ``a*j + h == t`` at once; ``a``
    is 2 when a credit limit of 1 would put ``(j-1, h+1)`` on ``(j, h)``'s
    step, and every other hop then holds no packet (``-inf``, unread).
    Returns ``(inject, finish, host_tail, enter, exit)`` with hop-major
    ``(Hb, n)`` ``enter``/``exit``.
    """
    n = len(length)
    Hb = int(length[0])
    wire, swl = cal.wire_latency, cal.switch_latency
    cnt = np.searchsorted(-length, -np.arange(Hb + 1)).tolist()
    caps = caps[:, :Hb].T
    enter = np.full((Hb, n), np.inf)
    exit_ = np.full((Hb, n), -np.inf)
    finish = np.empty(n)
    d_last = last_size / caps
    live = limit is not None and limit < npk  # can a credit guard bind?
    a = 2 if live and limit == 1 else 1
    lag = a * limit - 1 if live else 0
    drain = a * (npk - 1)  # from this step on, hop lo is the last packet's
    D = max(a, lag) + 1
    # Two start buffers alternate; row 0 is a permanent -inf "hop -1",
    # so hop h reads hop h-1 of the previous step as one shifted slice.
    starts = np.empty((2, Hb + 1, n))
    starts[:, 0] = -np.inf
    if npk > 1:
        # ring[t % D, h]: step t's tails (row Hb: past every route).  The
        # -inf tails of packets j < 0 and of hops past a route's end bind
        # no guard: initial credits, and none needed to eject.
        ring = np.full((D, Hb + 1, n), -np.inf)
        d_body = float(cal.mtu) / caps
        for h in range(1, Hb):
            d_body[h, cnt[h]:] = -np.inf

    def views(t, lo, hi, w):
        """Step t's starts, previous hops, FIFO and credit guards,
        serialisations and tails on hops lo..hi-1 of rows 0..w-1."""
        s = starts[t & 1, lo + 1:hi + 1, :w]
        prev = starts[~t & 1, lo:hi, :w]
        if npk == 1:
            return s, prev, None, None, None, None
        return (s, prev, ring[(t - a) % D, lo:hi, :w],
                ring[(t - lag) % D, lo + 1:hi + 1, :w], d_body[lo:hi, :w],
                ring[t % D, lo:hi, :w])

    # Steps from ramp-up to drain span the block; their views cycle.
    steady = [views(t, 0, Hb, n) for t in range(2 * D)] if drain > Hb else ()
    for t in range(drain + Hb):
        lo = t - drain if t > drain else 0
        s, prev, fifo, cred, d, out = steady[t % (2 * D)] \
            if Hb <= t < drain else views(t, lo, min(t + 1, Hb), cnt[lo])
        if t == 0:
            s[0] = enter[0] = f0
        else:
            np.add(prev, wire, out=s)
            if t < Hb:
                # Times never decrease from one packet to the next, so a
                # message first enters a link with its head packet.
                enter[t, :cnt[t]] = s[-1, :cnt[t]]
            s += swl
            if npk > 1:
                np.maximum(s, fifo, out=s)
            if live:
                np.maximum(s, cred, out=s)
        if t < drain:
            np.add(s, d, out=out)
            continue
        # Hop lo carries the last packet: its tail is the occupancy exit.
        w = s.shape[1]
        np.add(s[0], d_last[lo, :w], out=exit_[lo, :w])
        c = cnt[lo + 1]
        if c < w:
            # Cut-through delivery: the header reaches the host a wire
            # latency after the ejection transmit starts, the tail one
            # serialisation later.
            finish[c:w] = (s[0, c:w] + wire) + d_last[lo, c:w]
        if len(s) > 1:
            np.add(s[1:], d[1:], out=out[1:])
    host_tail = exit_[0].copy()
    if limit is not None:
        # With finite buffers a message still owns a slot on link h
        # until its tail clears link h+1.
        np.maximum(exit_[:-1], exit_[1:], out=exit_[:-1])
    return f0, finish, host_tail, enter, exit_


def _element_conflicts(la: np.ndarray, ea: np.ndarray,
                       xa: np.ndarray) -> int:
    """Exact single-element scan: adjacent overlapping intervals in
    (link, enter) order.  Nonzero exactly when some pair of same-link
    intervals overlaps, since adjacency detects a pair iff one exists."""
    order = np.lexsort((ea, la))
    ls, es, xs = la[order], ea[order], xa[order]
    overlap = (ls[1:] == ls[:-1]) & (es[1:] < xs[:-1] + CONFLICT_MARGIN)
    return int(overlap.sum())


def _lazy_healing(tables: ForwardingTables,
                  el: ScenarioSpec) -> "HealingController | None":
    """The element's controller: its own, or one built from
    ``sweep_delay`` (cheap: a controller computes a sweep's repair only
    when a run reaches that sweep)."""
    if el.healing is not None:
        return el.healing
    if el.sweep_delay is None or el.faults is None:
        return None
    from ..faults.controller import HealingController

    return HealingController(tables, el.faults,
                             sweep_delay=el.sweep_delay,
                             strategy=el.repair_strategy)


# ----------------------------------------------------------------------
# the batch engine
# ----------------------------------------------------------------------

@dataclass
class _Flat:
    """Flat struct-of-arrays for one chunk of distinct workloads, rows
    contiguous per workload in chunk order."""

    elem: np.ndarray      # chunk-local workload index per message row
    src: np.ndarray
    dst: np.ndarray
    size: np.ndarray
    wave: np.ndarray
    real: np.ndarray
    pieces: np.ndarray
    last_size: np.ndarray
    links: np.ndarray     # per real row
    length: np.ndarray    # per real row

    def compress(self, keep_elem: np.ndarray) -> "_Flat":
        keep = keep_elem[self.elem]
        real_idx = np.flatnonzero(self.real)
        return _Flat(
            elem=self.elem[keep], src=self.src[keep], dst=self.dst[keep],
            size=self.size[keep], wave=self.wave[keep],
            real=self.real[keep], pieces=self.pieces[keep],
            last_size=self.last_size[keep],
            links=self.links[keep[real_idx]],
            length=self.length[keep[real_idx]],
        )


def _flatten_element(el: ScenarioSpec, num_endports: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]:
    """(src, dst, size, wave) rows of one element, in row-major
    (port, seq) order -- the event core's record order."""
    if el.sequences is not None:
        src, dst, size = sequence_columns(el.sequences)
        wave = np.arange(len(src)) - np.searchsorted(src, src)
        return src, dst, size, wave
    nmsg = el.nmsg
    K = el.dst.shape[1] if el.dst.ndim == 2 else 0
    if K == 0 or not nmsg.any():
        z = np.zeros(0, dtype=np.int64)
        return z, z, np.zeros(0), z
    mask = np.arange(K, dtype=np.int64)[None, :] < nmsg[:, None]
    p, k = np.nonzero(mask)  # row-major: port-major then seq -- matches
    return (p.astype(np.int64), el.dst[p, k].astype(np.int64),
            el.size[p, k].astype(np.float64), k.astype(np.int64))


def run_batch(spec: BatchSpec) -> BatchResult:
    """Advance every element of ``spec`` through the folded wave
    calendar; demote only the elements whose analytic fast path is
    unsound to the event core, which runs once per distinct demoted
    scenario (workload, credit regime, fault schedule, healing settings,
    demotion reason) and gives every element its own bit-identical
    copy of that run's result or error."""
    tables = spec.tables
    fab = tables.fabric
    N = fab.num_endports
    B = len(spec.elements)
    stats = BatchStats(total=B)
    out = [BatchElement(i, spec) for i in range(B)]
    if B == 0:
        return BatchResult(elements=out, stats=stats)
    for i, el in enumerate(spec.elements):
        if el.sequences is not None and len(el.sequences) != N:
            raise ValueError(
                f"element {i}: need {N} sequences, got {len(el.sequences)}")
        if el.dst is not None and el.dst.shape[0] != N:
            raise ValueError(
                f"element {i}: dst must have {N} rows, got {el.dst.shape}")

    # Group by credit regime: the ring buffer shape is uniform per
    # _advance_wave call.  Insertion-ordered, deterministic.
    group_keys: list[int | None] = []
    group_members: list[list[int]] = []
    for i in range(B):
        limit = spec.resolved_credit(i)
        if limit is not None and limit < 1:
            raise ValueError("credit_limit must be >= 1 (or None)")
        try:
            g = group_keys.index(limit)
        except ValueError:
            group_keys.append(limit)
            group_members.append([])
            g = len(group_keys) - 1
        group_members[g].append(i)

    caps_full = link_capacities(tables.fabric, spec.calibration)

    # workload[i]: the first element of i's workload group, which names
    # its (credit regime, workload) pair for the whole call
    workload = list(range(B))
    for limit, members in zip(group_keys, group_members):
        for users in _run_group(spec, limit, members, caps_full, out, stats):
            for i in users:
                workload[i] = users[0]

    # Fast elements that no chunk priced have an empty workload.
    for e in out:
        if e.status == "fast" and e._result is None:
            e._result = PacketResult(EMPTY, N, spec.calibration,
                                     engine_stats=_fast_stats(0, 0, 0))

    # Demoted elements: one event-core run per distinct scenario, in
    # order of first appearance.  The key is everything the run reads
    # besides the batch-wide tables, calibration and budget.
    runs: dict[tuple, PacketResult | SimulationError] = {}
    for e in out:
        if e.status != "fallback":
            continue
        el = spec.elements[e.index]
        key = (workload[e.index], id(el.faults),
               id(el.healing) if el.healing is not None
               else (el.sweep_delay, el.repair_strategy), e.reason)
        if key not in runs:
            try:
                if e.reason == "budget":
                    raise SimulationError("packet event budget exhausted")
                sim = PacketSimulator(
                    tables, spec.calibration,
                    credit_limit=spec.resolved_credit(e.index),
                    max_events=spec.max_events, engine="reference",
                    faults=el.faults, healing=_lazy_healing(tables, el))
                runs[key] = sim._run_event_core(el.materialize_sequences(N))
            except SimulationError as err:
                runs[key] = err
        run = runs[key]
        if isinstance(run, SimulationError):
            e._error = SimulationError(*run.args)
            e.status = "error"
            stats.errors += 1
            continue
        # Its own shell over the shared record table and fault report
        # (both frozen); its latencies and messages are its own.
        e._result = replace(
            run, engine_stats=PacketEngineStats(
                engine="vector", fast_path=False, fallback=True,
                conflicts=e._conflicts, messages=e._n_real,
                packets=e._packets, events_saved=0))
    stats.fast_path = sum(1 for e in out if e.status == "fast")
    return BatchResult(elements=out, stats=stats)


def _demote(e: BatchElement, reason: str, stats: BatchStats) -> None:
    e.status = "fallback"
    e.reason = reason
    e._occ = None  # the event core does not expose analytic intervals
    setattr(stats, f"fallback_{reason}",
            getattr(stats, f"fallback_{reason}") + 1)


#: Distinct workloads advanced per folded pass.  Chunking bounds peak
#: memory (the credit ring is O(rows x hops x limit) floats) and keeps
#: the per-(workload, link) screen arrays cache-resident, so 100k-element
#: batches scale linearly instead of thrashing.
_CHUNK_ELEMS = 256


def _workload_digest(el: ScenarioSpec) -> int:
    """A fixed-size key for an array-form workload: the hash of the
    shape, dtype and bytes of ``dst``/``size``/``nmsg`` (the bytes are
    dropped once hashed)."""
    return hash(tuple((a.shape, a.dtype.str, a.tobytes())
                      for a in (el.dst, el.size, el.nmsg)))


def _same_workload(a: ScenarioSpec, b: ScenarioSpec) -> bool:
    """One ``sequences`` object, or array forms with equal shapes,
    dtypes and bytes (bytes, not values: ``np.array_equal`` would merge
    ``-0.0`` and ``0.0`` sizes, whose records differ in their bits)."""
    if a.sequences is not None or b.sequences is not None:
        return a.sequences is b.sequences
    return all(x.shape == y.shape and x.dtype == y.dtype
               and x.tobytes() == y.tobytes()
               for x, y in ((a.dst, b.dst), (a.size, b.size),
                            (a.nmsg, b.nmsg)))


def _distinct_workloads(elements: list[ScenarioSpec],
                        members: list[int]) -> list[list[int]]:
    """``members`` grouped by workload, in order of first appearance.
    Elements are keyed by the identity of their ``sequences`` or by
    :func:`_workload_digest`; a key only proposes a group, and
    :func:`_same_workload` against the group's first element confirms
    it, so a hash collision cannot merge two workloads."""
    groups: list[list[int]] = []
    by_key: dict[int, list[list[int]]] = {}
    for i in members:
        el = elements[i]
        candidates = by_key.setdefault(
            id(el.sequences) if el.sequences is not None
            else _workload_digest(el), [])
        for users in candidates:
            if _same_workload(elements[users[0]], el):
                users.append(i)
                break
        else:
            candidates.append([i])
            groups.append(candidates[-1])
    return groups


def _run_group(spec: BatchSpec, limit: int | None, members: list[int],
               caps_full: np.ndarray, out: list[BatchElement],
               stats: BatchStats) -> list[list[int]]:
    """Price ``members`` (one credit regime); returns their workload
    groups, each listing the elements that share a workload."""
    # One wave-kernel row set per distinct workload: the kernel is
    # row-independent, so every element sharing a workload reads the
    # same timestamps its solo run would produce.
    workloads = _distinct_workloads(spec.elements, members)
    for c0 in range(0, len(workloads), _CHUNK_ELEMS):
        _run_chunk(spec, limit, workloads[c0:c0 + _CHUNK_ELEMS],
                   caps_full, out, stats)
    return workloads


def _run_chunk(spec: BatchSpec, limit: int | None,
               workloads: list[list[int]], caps_full: np.ndarray,
               out: list[BatchElement], stats: BatchStats) -> None:
    """Price each distinct workload of the chunk once; ``workloads[g]``
    lists the elements that share workload ``g``.  The flat build, the
    route walk, the budget check, the wave kernel and the conflict
    screen run per workload; each element then applies its own faults
    to its workload's occupancy."""
    tables = spec.tables
    fab = spec.tables.fabric
    N = fab.num_endports
    P = fab.num_ports
    cal = spec.calibration
    mtu = float(cal.mtu)
    Bg = len(workloads)

    def demote(g: int, reason: str) -> None:
        for i in workloads[g]:
            _demote(out[i], reason, stats)

    # -- flat build (rows contiguous per workload) ---------------------
    specs = [spec.elements[users[0]] for users in workloads]
    uniform_k = (all(el.dst is not None for el in specs)
                 and len({el.dst.shape for el in specs}) == 1)
    if uniform_k and specs[0].dst.shape[1] > 0:
        # Grid case: every workload is array-form with one (N, K) shape;
        # flatten the whole chunk in one row-major nonzero (same
        # workload-major/port-major/seq row order as the per-workload
        # path).
        dst3 = np.stack([el.dst for el in specs])
        size3 = np.stack([el.size for el in specs])
        nmsg2 = np.stack([el.nmsg for el in specs])
        K = dst3.shape[2]
        mask = np.arange(K, dtype=np.int64)[None, None, :] \
            < nmsg2[:, :, None]
        elem, src, wave = (a.astype(np.int64) for a in np.nonzero(mask))
        dst = dst3[elem, src, wave].astype(np.int64)
        size = size3[elem, src, wave].astype(np.float64)
    else:
        parts = [_flatten_element(el, N) for el in specs]
        counts0 = np.asarray([len(p[0]) for p in parts], dtype=np.int64)
        elem = np.repeat(np.arange(Bg, dtype=np.int64), counts0)
        src = np.concatenate([p[0] for p in parts])
        dst = np.concatenate([p[1] for p in parts])
        size = np.concatenate([p[2] for p in parts])
        wave = np.concatenate([p[3] for p in parts])
    if len(elem) == 0:
        return  # every element empty: all trivially fast
    real = (src != dst) & (size > 0)

    # Segmentation: element-wise the event core's segment().
    full, rest = np.divmod(size, mtu)
    pieces = full.astype(np.int64) + (rest > 1e-12)
    pieces = np.maximum(pieces, 1)
    last_size = np.where(rest > 1e-12, rest, np.where(full >= 1, mtu, size))
    n_real = np.bincount(elem[real], minlength=Bg)
    packets = np.bincount(elem[real], weights=pieces[real], minlength=Bg)
    for g, users in enumerate(workloads):
        for i in users:
            out[i]._n_real = int(n_real[g])
            out[i]._packets = int(packets[g])

    # Hosts inject on their rail-0 up port, as in the event core; a
    # faulted route demotes its elements and the event core diagnoses it.
    routes = tables.walk(fab.port_start[src[real]], dst[real])
    links, length = routes.links, routes.length
    bad = routes.fault != routes.ARRIVED
    elem_ok = np.ones(Bg, dtype=bool)
    if bad.any():
        for g in np.unique(elem[real][bad]):
            demote(int(g), "route")
            elem_ok[int(g)] = False

    # Event budget, per workload: the event core's packet-arrival count.
    ev_rows = (pieces[real] * length).astype(np.float64)
    ev_per_elem = np.bincount(elem[real], weights=ev_rows, minlength=Bg)
    over = elem_ok & (ev_per_elem > spec.max_events)
    if over.any():
        for g in np.flatnonzero(over):
            demote(int(g), "budget")
            elem_ok[int(g)] = False

    flat = _Flat(elem=elem, src=src, dst=dst, size=size, wave=wave,
                 real=real, pieces=pieces, last_size=last_size,
                 links=links, length=length)
    if not elem_ok.all():
        flat = flat.compress(elem_ok)
    if len(flat.elem) == 0:
        return

    M = len(flat.elem)

    # Wave-major layout: one stable (radix) sort brings every wave's
    # rows into a contiguous slice, so the hot loop advances views
    # instead of paying a fancy-index copy of links/caps per wave.
    # Stability keeps rows workload-major inside each wave.
    perm = np.argsort(flat.wave, kind="stable")
    wsrc = flat.src[perm]
    welem = flat.elem[perm]
    wreal = flat.real[perm]
    wpieces = flat.pieces[perm]
    wlast = flat.last_size[perm]
    wwave = flat.wave[perm]
    # Route rows, re-gathered into wave-major real-row order.
    real_row_em = np.cumsum(flat.real) - 1
    row_map = real_row_em[perm[np.flatnonzero(wreal)]]
    wlinks = flat.links[row_map]
    wlength = flat.length[row_map]
    wcaps = np.where(wlinks >= 0,
                     caps_full[np.where(wlinks >= 0, wlinks, 0)], 1.0)
    wreal_row = np.cumsum(wreal) - 1

    n_waves = int(flat.wave.max()) + 1
    wb = np.searchsorted(wwave, np.arange(n_waves + 1, dtype=np.int64))

    wstart = np.zeros(M)
    winject = np.zeros(M)
    wfinish = np.zeros(M)
    t_port = np.zeros(Bg * N)
    wfold = welem * N + wsrc  # folded (workload, port) axis

    # Per-(workload, link) occupancy summaries for the conflict screen
    # and the fault-window prefilter.
    maxx = np.full(Bg * P, -np.inf)
    minn = np.full(Bg * P, np.inf)
    dup_flag = np.zeros(Bg, dtype=bool)    # same-wave link sharing
    cross_flag = np.zeros(Bg, dtype=bool)  # cross-wave proximity

    int_elem: list[np.ndarray] = []
    int_link: list[np.ndarray] = []
    int_enter: list[np.ndarray] = []
    int_exit: list[np.ndarray] = []

    for w in range(n_waves):
        lo, hi = int(wb[w]), int(wb[w + 1])
        if lo == hi:
            continue
        fw = wfold[lo:hi]
        st = t_port[fw]
        wstart[lo:hi] = st
        emp = ~wreal[lo:hi]
        if emp.any():
            t0 = st[emp] + cal.host_overhead
            vi = winject[lo:hi]
            vf = wfinish[lo:hi]
            vi[emp] = t0
            vf[emp] = t0
            t_port[fw[emp]] = t0
            live = ~emp
            if not live.any():
                continue
            rows = wreal_row[lo:hi][live]
            f0 = st[live] + cal.host_overhead
            lw = wlinks[rows]
            lenw = wlength[rows]
            cw = wcaps[rows]
            pw = wpieces[lo:hi][live]
            lsw = wlast[lo:hi][live]
            el_live = welem[lo:hi][live]
            inj, fin, tails, enter, exit_ = _advance_wave(
                cal, limit, f0, lw, lenw, cw, pw, lsw)
            vi[live] = inj
            vf[live] = fin
            t_port[fw[live]] = tails
        else:
            # Dense wave (the grid case): every slice is a view.
            r0 = int(wreal_row[lo])
            r1 = r0 + (hi - lo)
            lw = wlinks[r0:r1]
            lenw = wlength[r0:r1]
            cw = wcaps[r0:r1]
            el_live = welem[lo:hi]
            f0 = st + cal.host_overhead
            inj, fin, tails, enter, exit_ = _advance_wave(
                cal, limit, f0, lw, lenw, cw,
                wpieces[lo:hi], wlast[lo:hi])
            winject[lo:hi] = inj
            wfinish[lo:hi] = fin
            t_port[fw] = tails

        H = enter.shape[1]
        used = np.arange(H, dtype=np.int64)[None, :] < lenw[:, None]
        ilink = lw[:, :H][used]
        ienter = enter[used]
        iexit = exit_[used]
        ielem = np.repeat(el_live, lenw)
        int_elem.append(ielem)
        int_link.append(ilink)
        int_enter.append(ienter)
        int_exit.append(iexit)

        # Conservative conflict screen.  (a) two same-wave messages on
        # one (workload, link); (b) an interval starting before the
        # latest earlier-wave exit on its (workload, link).  Clean means
        # provably pairwise-disjoint; flagged gets the exact scan.
        keys = ielem * P + ilink
        kcount = np.bincount(keys, minlength=Bg * P)
        dups = kcount[keys] > 1
        if dups.any():
            dup_flag[ielem[dups]] = True
        prev = maxx[keys]
        near = ienter < prev + CONFLICT_MARGIN
        if near.any():
            cross_flag[ielem[near]] = True
        # Last-write-wins on duplicate keys is fine: only dup-flagged
        # workloads can collide, and they bypass these summaries.
        maxx[keys] = np.maximum(prev, iexit)
        minn[keys] = np.minimum(minn[keys], ienter)

    # Back to workload-major for per-workload result slices.
    start = np.empty(M)
    inject = np.empty(M)
    finish = np.empty(M)
    start[perm] = wstart
    inject[perm] = winject
    finish[perm] = wfinish

    la = np.concatenate(int_link) if int_link else np.zeros(0, np.int64)
    ea = np.concatenate(int_enter) if int_enter else np.zeros(0)
    xa = np.concatenate(int_exit) if int_exit else np.zeros(0)
    ie = np.concatenate(int_elem) if int_elem else np.zeros(0, np.int64)
    # Workload-major interval views: stable (radix) sort by workload
    # once, then every per-workload extraction below is a contiguous
    # slice instead of a full-array mask per workload.
    iorder = np.argsort(ie, kind="stable")
    la_s = la[iorder]
    ea_s = ea[iorder]
    xa_s = xa[iorder]
    ibounds = np.searchsorted(ie[iorder], np.arange(Bg + 1))

    # Per-workload bookkeeping for results.
    counts = np.bincount(flat.elem, minlength=Bg)
    offsets = np.zeros(Bg + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    makespan = np.zeros(Bg)
    nz = counts > 0
    if nz.any():
        makespan[nz] = np.maximum.reduceat(finish, offsets[:-1][nz])
    has_ivals = np.bincount(ie, minlength=Bg) > 0
    # The event core's arrival-event count (pieces x hops) every fast
    # element avoids, on the compressed arrays.
    ev_saved = np.bincount(flat.elem[flat.real],
                           weights=(flat.pieces[flat.real]
                                    * flat.length).astype(np.float64),
                           minlength=Bg)

    # -- verdicts: conflicts per workload, faults per element ----------
    flagged = dup_flag | cross_flag
    windows_cache: dict[int, list[tuple[int, int, float, float]]] = {}
    hits: dict[tuple[int, int], bool] = {}

    def fault_hits(g: int, faults: "FaultSchedule", occ) -> bool:
        """Whether a window of ``faults`` meets workload ``g``'s
        occupancy; memoised per (workload, schedule)."""
        key = id(faults)
        if (g, key) in hits:
            return hits[g, key]
        if key not in windows_cache:
            wins = [(a, b, s, t) for a, b, s, t in faults.down_intervals(fab)]
            wins += [(a, b, s, t) for a, b, s, t, _
                     in faults.flaky_intervals(fab)]
            windows_cache[key] = wins
        # Envelope prune: a window that ends before every enter or
        # starts after every exit on both cable ends cannot intersect.
        # Dup-flagged summaries may be stale -- those workloads take the
        # exact check unconditionally.
        may_hit = bool(dup_flag[g])
        if not may_hit:
            base = g * P
            may_hit = any(minn[base + gp] < t + CONFLICT_MARGIN
                          and maxx[base + gp] > s - CONFLICT_MARGIN
                          for a, b, s, t in windows_cache[key]
                          for gp in (a, b))
        hit = may_hit and faults.overlaps_occupancy(
            fab, *occ, margin=CONFLICT_MARGIN)
        hits[g, key] = hit
        return hit

    for g, users in enumerate(workloads):
        if not elem_ok[g]:
            continue
        i0, i1 = int(ibounds[g]), int(ibounds[g + 1])
        occ = (la_s[i0:i1], ea_s[i0:i1], xa_s[i0:i1])
        conflicts = _element_conflicts(*occ) if flagged[g] else 0
        lo, hi = int(offsets[g]), int(offsets[g + 1])
        records = RecordTable(flat.src[lo:hi], flat.dst[lo:hi],
                              flat.size[lo:hi], start[lo:hi],
                              inject[lo:hi], finish[lo:hi])
        fast_stats = _fast_stats(int(n_real[g]), int(packets[g]),
                                 int(ev_saved[g]))
        for i in users:
            e = out[i]
            e._conflicts = conflicts
            if conflicts:
                _demote(e, "conflict", stats)
                continue
            el = spec.elements[i]
            faults = el.faults
            if faults is not None and not faults.is_empty() \
                    and has_ivals[g]:
                healing = _lazy_healing(tables, el)
                if (healing is not None and healing.earliest_swap()
                        < makespan[g] + CONFLICT_MARGIN) \
                        or fault_hits(g, faults, occ):
                    _demote(e, "fault", stats)
                    continue

            # Fast element: its workload's record table and statistics.
            e._result = PacketResult(records, N, cal,
                                     engine_stats=fast_stats)
            e._occ = occ
            stats.events_saved += int(ev_saved[g])


# ----------------------------------------------------------------------
# grid builders
# ----------------------------------------------------------------------

def cps_workload_arrays(
    cps: "CPS",
    placements: np.ndarray,
    num_endports: int,
    message_size: float | list[float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array-form :func:`~repro.sim.workload.cps_workload` for a whole
    placement grid: ``(dst, size, nmsg)`` of shapes ``(B, N, K)`` /
    ``(B, N, K)`` / ``(B, N)``, row ``(t, p, k)`` equal to
    ``cps_workload(cps, placements[t], N, message_size)[p][k]``.

    Raises :class:`ValueError` for CPS stages where one rank sends more
    than once (none of the paper's collectives do) -- callers fall back
    to per-element ``cps_workload`` there.
    """
    from ..collectives.schedule import _pair_flows

    placements = np.asarray(placements, dtype=np.int64)
    if placements.ndim == 1:
        placements = placements[None, :]
    B = placements.shape[0]
    N = num_endports
    if isinstance(message_size, (int, float)):
        sizes = [float(message_size)] * len(cps)
    else:
        sizes = [float(s) for s in message_size]
        if len(sizes) != len(cps):
            raise ValueError(f"{len(sizes)} sizes for {len(cps)} stages")

    count = np.zeros((B, N), dtype=np.int64)
    entries = []
    for s_i, st in enumerate(cps):
        s_src, s_dst, keep = _pair_flows(st.pairs, placements)
        order = np.repeat(np.arange(B), keep.sum(axis=1))
        if len(s_src) == 0:
            continue
        keys = order * N + s_src
        if (np.bincount(keys, minlength=B * N) > 1).any():
            raise ValueError(
                f"stage {s_i}: a port sends more than one message; "
                "use per-element sequences")
        k = count[order, s_src]
        entries.append((order, s_src, k, s_dst, sizes[s_i]))
        count[order, s_src] = k + 1
    K = int(count.max()) if entries else 0
    dst3 = np.zeros((B, N, K), dtype=np.int64)
    size3 = np.zeros((B, N, K), dtype=np.float64)
    for order, s_src, k, s_dst, sz in entries:
        dst3[order, s_src, k] = s_dst
        size3[order, s_src, k] = sz
    return dst3, size3, count


def ordering_batch(
    tables: ForwardingTables,
    cps: "CPS",
    placements: np.ndarray,
    message_size: float | list[float],
    *,
    calibration: LinkCalibration = QDR_PCIE_GEN2,
    credit_limit: int | None = None,
    credit_limits: Any = None,
    faults: Any = None,
    sweep_delay: float | None = None,
    max_events: int = 5_000_000,
) -> BatchSpec:
    """A :class:`BatchSpec` for a fig3-style (ordering x fault) grid.

    ``placements`` is ``(B, L)`` (each row a rank-to-port vector);
    ``faults`` is ``None``, one schedule shared by every element, or a
    length-``B`` list; ``credit_limits`` optionally varies the credit
    regime per element (overriding ``credit_limit``).
    """
    placements = np.asarray(placements, dtype=np.int64)
    if placements.ndim == 1:
        placements = placements[None, :]
    B = placements.shape[0]
    N = tables.fabric.num_endports

    def _per_elem(v: Any, i: int) -> Any:
        if v is None:
            return None
        if isinstance(v, (list, tuple)):
            if len(v) != B:
                raise ValueError(f"need {B} per-element values, got {len(v)}")
            return v[i]
        return v

    elements: list[ScenarioSpec] = []
    try:
        dst3, size3, nmsg2 = cps_workload_arrays(
            cps, placements, N, message_size)
        for i in range(B):
            cl = _per_elem(credit_limits, i)
            elements.append(ScenarioSpec(
                dst=dst3[i], size=size3[i], nmsg=nmsg2[i],
                faults=_per_elem(faults, i), sweep_delay=sweep_delay,
                credit_limit=INHERIT if cl is None else cl))
    except ValueError:
        from .workload import cps_workload

        elements = []
        for i in range(B):
            cl = _per_elem(credit_limits, i)
            elements.append(ScenarioSpec(
                sequences=cps_workload(cps, placements[i], N, message_size),
                faults=_per_elem(faults, i), sweep_delay=sweep_delay,
                credit_limit=INHERIT if cl is None else cl))
    return BatchSpec(tables=tables, elements=elements,
                     calibration=calibration, credit_limit=credit_limit,
                     max_events=max_events)
