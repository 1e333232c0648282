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
from .records import RecordTable, RunResult, sequence_columns

__all__ = ["FluidSimulator", "FluidResult"]

_EPS_BYTES = 1e-6
_EPS_RATE = 1e-12


@dataclass
class FluidResult(RunResult):
    """Outcome of a fluid run; barrier runs also report each stage's
    duration."""

    stage_times: list[float] = field(default_factory=list)


class _ActiveFlows:
    """Struct-of-arrays active flow set with swap-remove; each flow
    carries its source port and its record-table row."""

    def __init__(self, max_hops: int):
        self.H = max_hops
        cap = 64
        self.port = np.empty(cap, dtype=np.int64)
        self.row = np.empty(cap, dtype=np.int64)
        self.remaining = np.empty(cap)
        self.rate = np.zeros(cap)
        self.links = np.full((cap, max_hops), -1, dtype=np.int64)
        self.n = 0

    def __len__(self) -> int:
        return self.n

    def _grow(self) -> None:
        cap = len(self.port) * 2
        for name in ("port", "row", "remaining", "rate"):
            arr = getattr(self, name)
            new = np.empty(cap, dtype=arr.dtype)
            new[: self.n] = arr[: self.n]
            setattr(self, name, new)
        links = np.full((cap, self.H), -1, dtype=np.int64)
        links[: self.n] = self.links[: self.n]
        self.links = links

    def add(self, port: int, row: int, size: float,
            route: np.ndarray) -> None:
        if self.n == len(self.port):
            self._grow()
        i = self.n
        self.port[i] = port
        self.row[i] = row
        self.remaining[i] = size
        self.rate[i] = 0.0
        self.links[i, :] = -1
        self.links[i, : len(route)] = route
        self.n += 1

    def pop_finished(self) -> list[tuple[int, int]]:
        """Remove flows with no bytes left; returns their (port, row)
        pairs (swap-remove keeps arrays compact)."""
        out = []
        i = 0
        while i < self.n:
            if self.remaining[i] <= _EPS_BYTES:
                out.append((int(self.port[i]), int(self.row[i])))
                last = self.n - 1
                if i != last:
                    for name in ("port", "row", "remaining", "rate"):
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
        max_events: int = 20_000_000,
    ):
        self.tables = tables
        self.fabric = tables.fabric
        self.cal = calibration
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
        src, dst, size = sequence_columns(sequences)
        # start/inject/finish of every message, filled by table row;
        # port p's k-th message is row first[p] + k.
        times = np.zeros((3, len(src)))
        first = np.searchsorted(src, np.arange(N)).tolist()
        if mode == "async":
            self._run_async(sequences, first, times)
            stage_times: list[float] = []
        else:
            stage_times = self._run_barrier(sequences, first, times)

        return FluidResult(
            records=RecordTable(src, dst, size, *times),
            num_ports=N,
            calibration=self.cal,
            stage_times=stage_times,
        )

    # ------------------------------------------------------------------
    def _run_async(self, sequences, first, times) -> None:
        start, inject, finish = times
        pending: list[tuple[float, int]] = []   # (transfer-ready time, port)
        pos = [0] * len(sequences)
        for p, seq in enumerate(sequences):
            if seq:
                heapq.heappush(pending, (self.cal.host_overhead, p))
        active = _ActiveFlows(self.max_hops)
        now = 0.0
        events = 0

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
                    row = first[p] + pos[p]
                    start[row] = now - self.cal.host_overhead
                    inject[row] = now
                    if size <= _EPS_BYTES or p == dst:
                        finish[row] = now
                        self._next_message(p, pos, sequences, pending, now)
                    else:
                        active.add(p, row, size, self._route(p, dst))
            else:
                active.advance(dt_done)
                now += dt_done
                for port, row in active.pop_finished():
                    finish[row] = now
                    self._next_message(port, pos, sequences, pending, now)

    def _next_message(self, p, pos, sequences, pending, now) -> None:
        pos[p] += 1
        if pos[p] < len(sequences[p]):
            heapq.heappush(pending, (now + self.cal.host_overhead, p))

    # ------------------------------------------------------------------
    def _run_barrier(self, sequences, first, times) -> list[float]:
        num_stages = max((len(s) for s in sequences), default=0)
        now = 0.0
        stage_times = []
        for k in range(num_stages):
            stage = [(p, first[p] + k, seq[k])
                     for p, seq in enumerate(sequences) if k < len(seq)]
            t0 = now
            now = t0 + self._stage_makespan(stage, t0, times)
            stage_times.append(now - t0)
        return stage_times

    def _stage_makespan(self, stage, t0, times) -> float:
        """Duration of one non-empty barrier stage starting at ``t0``;
        self and empty messages finish when their overhead does."""
        start, inject, finish = times
        active = _ActiveFlows(self.max_hops)
        overhead = self.cal.host_overhead
        for p, row, (dst, size) in stage:
            start[row] = t0
            inject[row] = finish[row] = t0 + overhead
            if size <= _EPS_BYTES or p == dst:
                continue
            active.add(p, row, size, self._route(p, dst))
        if not len(active):
            return overhead
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
            for _, row in active.pop_finished():
                finish[row] = t0 + now
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
