"""Event-driven fluid (flow-level) network simulator.

Reproduces the behaviour of the paper's OMNeT++ InfiniBand model at the
granularity that matters for collective bandwidth: every in-flight
message is a *flow* over the directed links of its route, and active
flows share each link by **max-min fairness** (progressive filling).
Events are message-overhead expiries and flow completions; between
events rates are constant, so the simulation is exact for the fluid
model (no time-stepping error).

Traffic model (paper section II): each end-port owns an ordered
destination sequence and "progresses through [it] independently when
the previous message has been sent to the wire" -- i.e. a port starts
its next message as soon as the previous one finished injecting.  A
``barrier`` mode synchronises all ports between stages instead, which
is the worst-case analysis matching the HSD metric.

Per-message fixed overhead (software/DMA setup plus cut-through header
latency) models why small messages are less sensitive to contention:
during overhead windows a port consumes no link bandwidth, so lightly
loaded phases interleave -- the averaging the paper invokes to explain
Figure 2's message-size dependence.

Capacities: host injection is limited by PCIe (3250 B/us), ejection
into a host likewise, switch-to-switch links run at wire speed
(4000 B/us for QDR).

The active-flow state is kept in flat NumPy arrays (struct-of-arrays
with swap-remove) so each event costs a handful of vector operations
rather than Python-level loops over flows.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..fabric.lft import ForwardingTables
from .calibration import LinkCalibration, QDR_PCIE_GEN2, link_capacities
from .events import SimulationError

__all__ = ["FluidSimulator", "FluidResult", "MessageRecord"]

_EPS_BYTES = 1e-6
_EPS_RATE = 1e-12


@dataclass(frozen=True)
class MessageRecord:
    """Timing of one simulated message."""

    src: int
    dst: int
    size: float
    start: float      # overhead begins
    inject: float     # transfer begins (overhead done)
    finish: float     # last byte on the wire

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class FluidResult:
    """Outcome of a fluid run."""

    makespan: float
    total_bytes: float
    num_ports: int
    active_ports: int
    calibration: LinkCalibration
    messages: list[MessageRecord] = field(default_factory=list)
    stage_times: list[float] = field(default_factory=list)

    @property
    def aggregate_bandwidth(self) -> float:
        """Total delivered bytes per microsecond."""
        return self.total_bytes / self.makespan if self.makespan > 0 else 0.0

    @property
    def per_port_bandwidth(self) -> float:
        return self.aggregate_bandwidth / max(self.active_ports, 1)

    @property
    def normalized_bandwidth(self) -> float:
        """The paper's Figure-2 metric: effective bandwidth normalised to
        the full host (PCIe) bandwidth."""
        return self.per_port_bandwidth / self.calibration.host_bandwidth


class _ActiveFlows:
    """Struct-of-arrays active flow set with swap-remove."""

    def __init__(self, max_hops: int):
        self.H = max_hops
        cap = 64
        self.port = np.empty(cap, dtype=np.int64)
        self.dst = np.empty(cap, dtype=np.int64)
        self.size = np.empty(cap)
        self.remaining = np.empty(cap)
        self.rate = np.zeros(cap)
        self.start = np.empty(cap)
        self.inject = np.empty(cap)
        self.links = np.full((cap, max_hops), -1, dtype=np.int64)
        self.n = 0

    def __len__(self) -> int:
        return self.n

    def _grow(self) -> None:
        cap = len(self.port) * 2
        for name in ("port", "dst", "size", "remaining", "rate",
                     "start", "inject"):
            arr = getattr(self, name)
            new = np.empty(cap, dtype=arr.dtype)
            new[: self.n] = arr[: self.n]
            setattr(self, name, new)
        links = np.full((cap, self.H), -1, dtype=np.int64)
        links[: self.n] = self.links[: self.n]
        self.links = links

    def add(self, port: int, dst: int, size: float, route: np.ndarray,
            start: float, inject: float) -> None:
        if self.n == len(self.port):
            self._grow()
        i = self.n
        self.port[i] = port
        self.dst[i] = dst
        self.size[i] = size
        self.remaining[i] = size
        self.rate[i] = 0.0
        self.start[i] = start
        self.inject[i] = inject
        self.links[i, :] = -1
        self.links[i, : len(route)] = route
        self.n += 1

    def pop_finished(self) -> list[tuple[int, int, float, float, float]]:
        """Remove flows with no bytes left; returns (port, dst, size,
        start, inject) tuples (swap-remove keeps arrays compact)."""
        out = []
        i = 0
        while i < self.n:
            if self.remaining[i] <= _EPS_BYTES:
                out.append((int(self.port[i]), int(self.dst[i]),
                            float(self.size[i]), float(self.start[i]),
                            float(self.inject[i])))
                last = self.n - 1
                if i != last:
                    for name in ("port", "dst", "size", "remaining", "rate",
                                 "start", "inject"):
                        getattr(self, name)[i] = getattr(self, name)[last]
                    self.links[i] = self.links[last]
                self.n -= 1
            else:
                i += 1
        return out

    def advance(self, dt: float) -> None:
        if dt > 0 and self.n:
            self.remaining[: self.n] -= self.rate[: self.n] * dt

    def min_completion_dt(self) -> float:
        if not self.n:
            return np.inf
        r = self.rate[: self.n]
        ok = r > _EPS_RATE
        if not ok.any():
            return np.inf
        return float(np.min(self.remaining[: self.n][ok] / r[ok]))


class FluidSimulator:
    """Simulate per-port message sequences over routed fabric links."""

    def __init__(
        self,
        tables: ForwardingTables,
        calibration: LinkCalibration = QDR_PCIE_GEN2,
        record_messages: bool = False,
        max_events: int = 20_000_000,
    ):
        self.tables = tables
        self.fabric = tables.fabric
        self.cal = calibration
        self.record_messages = record_messages
        self.max_events = max_events
        self.capacity = link_capacities(self.fabric, calibration)
        self.max_hops = 2 * int(self.fabric.node_level.max()) + 2
        self._route_cache: dict[tuple[int, int], np.ndarray] = {}

    # ------------------------------------------------------------------
    def _route(self, src: int, dst: int) -> np.ndarray:
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        fab = self.fabric
        links = [int(self.tables.host_out_port(src, dst))]
        cur = int(fab.peer_node[links[0]])
        for _ in range(self.max_hops):
            if cur == dst:
                route = np.asarray(links, dtype=np.int64)
                self._route_cache[key] = route
                return route
            gp = int(self.tables.out_port(cur, dst))
            if gp < 0:
                raise SimulationError(f"no route {src}->{dst}")
            links.append(gp)
            cur = int(fab.peer_node[gp])
        raise SimulationError(f"routing loop {src}->{dst}")

    # ------------------------------------------------------------------
    def run_sequences(
        self,
        sequences: list[list[tuple[int, float]]],
        mode: str = "async",
    ) -> FluidResult:
        """Simulate; ``sequences[p]`` lists ``(dst, size)`` messages of
        end-port ``p`` in order.

        ``mode="async"``: ports progress independently (paper default).
        ``mode="barrier"``: a global barrier between sequence positions
        (stage ``k`` of every port completes before any stage ``k+1``
        starts) -- the synchronous worst case.
        """
        if mode not in ("async", "barrier"):
            raise ValueError(f"mode must be async|barrier, got {mode!r}")
        N = self.fabric.num_endports
        if len(sequences) != N:
            raise ValueError(
                f"need one sequence per end-port ({N}), got {len(sequences)}"
            )
        total_bytes = sum(size for seq in sequences for _, size in seq)
        active_ports = sum(1 for seq in sequences if seq)
        messages: list[MessageRecord] = []

        if mode == "async":
            makespan = self._run_async(sequences, messages)
            stage_times: list[float] = []
        else:
            makespan, stage_times = self._run_barrier(sequences, messages)

        return FluidResult(
            makespan=makespan,
            total_bytes=total_bytes,
            num_ports=N,
            active_ports=active_ports,
            calibration=self.cal,
            messages=messages,
            stage_times=stage_times,
        )

    # ------------------------------------------------------------------
    def _run_async(self, sequences, messages) -> float:
        pending: list[tuple[float, int]] = []   # (transfer-ready time, port)
        pos = [0] * len(sequences)
        for p, seq in enumerate(sequences):
            if seq:
                heapq.heappush(pending, (self.cal.host_overhead, p))
        active = _ActiveFlows(self.max_hops)
        now = 0.0
        events = 0
        makespan = 0.0

        while pending or len(active):
            events += 1
            if events > self.max_events:
                raise SimulationError("event budget exhausted")
            self._assign_rates(active)
            dt_done = active.min_completion_dt()
            t_start = pending[0][0] if pending else np.inf
            if len(active) and not np.isfinite(dt_done) and not pending:
                raise SimulationError("active flows but no progress")
            if t_start <= now + dt_done:
                active.advance(t_start - now)
                now = t_start
                while pending and pending[0][0] <= now + 1e-12:
                    _, p = heapq.heappop(pending)
                    dst, size = sequences[p][pos[p]]
                    start = now - self.cal.host_overhead
                    if size <= _EPS_BYTES or p == dst:
                        if self.record_messages:
                            messages.append(MessageRecord(
                                p, dst, size, start, now, now))
                        makespan = max(makespan, now)
                        self._next_message(p, pos, sequences, pending, now)
                    else:
                        active.add(p, dst, size, self._route(p, dst),
                                   start, now)
            else:
                active.advance(dt_done)
                now += dt_done
                for port, dst, size, start, inject in active.pop_finished():
                    if self.record_messages:
                        messages.append(MessageRecord(
                            port, dst, size, start, inject, now))
                    makespan = max(makespan, now)
                    self._next_message(port, pos, sequences, pending, now)
        return makespan

    def _next_message(self, p, pos, sequences, pending, now) -> None:
        pos[p] += 1
        if pos[p] < len(sequences[p]):
            heapq.heappush(pending, (now + self.cal.host_overhead, p))

    # ------------------------------------------------------------------
    def _run_barrier(self, sequences, messages) -> tuple[float, list[float]]:
        num_stages = max((len(s) for s in sequences), default=0)
        now = 0.0
        stage_times = []
        for k in range(num_stages):
            stage = [(p, seq[k]) for p, seq in enumerate(sequences)
                     if k < len(seq)]
            t0 = now
            now = t0 + self._stage_makespan(stage, t0, messages)
            stage_times.append(now - t0)
        return now, stage_times

    def _stage_makespan(self, stage, t0, messages) -> float:
        active = _ActiveFlows(self.max_hops)
        overhead = self.cal.host_overhead
        any_message = False
        for p, (dst, size) in stage:
            any_message = True
            if size <= _EPS_BYTES or p == dst:
                continue
            active.add(p, dst, size, self._route(p, dst), t0, t0 + overhead)
        if not len(active):
            return overhead if any_message else 0.0
        now = overhead
        events = 0
        while len(active):
            events += 1
            if events > self.max_events:
                raise SimulationError("event budget exhausted")
            self._assign_rates(active)
            dt = active.min_completion_dt()
            if not np.isfinite(dt):
                raise SimulationError("stage stalled")
            active.advance(dt)
            now += dt
            for port, dst, size, start, inject in active.pop_finished():
                if self.record_messages:
                    messages.append(MessageRecord(
                        port, dst, size, start, inject, t0 + now))
        return now

    # ------------------------------------------------------------------
    def _assign_rates(self, active: _ActiveFlows) -> None:
        """Max-min fair rates by progressive filling (vectorised)."""
        F = len(active)
        if not F:
            return
        lm = active.links[:F]                     # (F, H), -1 padded
        valid = lm >= 0
        flat = lm[valid]
        links, link_idx_flat = np.unique(flat, return_inverse=True)
        L = len(links)
        if L == len(flat):
            # Fast path: no link is shared (the contention-free case the
            # paper engineers for) -- every flow runs at the minimum
            # capacity along its own route; no water-filling needed.
            caps = np.where(valid, self.capacity[np.where(valid, lm, 0)],
                            np.inf)
            active.rate[:F] = caps.min(axis=1)
            return
        # Per-entry flow ids aligned with flat/link_idx_flat.
        flow_ids = np.broadcast_to(
            np.arange(F)[:, None], lm.shape)[valid]
        residual = self.capacity[links].astype(np.float64).copy()
        rates = np.zeros(F)
        frozen = np.zeros(F, dtype=bool)

        for _ in range(L + 1):
            live = ~frozen[flow_ids]
            if not live.any():
                break
            counts = np.bincount(link_idx_flat[live], minlength=L)
            used = counts > 0
            delta = np.min(residual[used] / counts[used])
            rates[~frozen] += delta
            residual[used] -= delta * counts[used]
            sat_mask = used & (residual <= 1e-9)
            if sat_mask.any():
                hit = flow_ids[sat_mask[link_idx_flat] & live]
                frozen[hit] = True
        active.rate[:F] = rates
