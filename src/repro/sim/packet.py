"""Packet-level cut-through switch simulator with credit flow control.

A finer-grained cross-check of the fluid model: messages are segmented
into MTU packets, switches are input-queued with FIFO queues per input
port (so **head-of-line blocking** is explicit), and forwarding is
cut-through -- a packet starts leaving on its output port a switch
latency after its header arrived, provided the output is free, the
packet is at the head of its input queue, and (with finite buffers) the
downstream input buffer has a credit.

InfiniBand links are credit-based: a sender may only transmit when the
receiver advertised buffer space.  ``credit_limit`` models that buffer
in packets per input port; when a buffer fills, the upstream output
stalls, and the stall propagates -- the *tree saturation* that makes
sustained hot spots so damaging for large messages.  ``credit_limit=None``
gives infinite buffers (pure queueing delay, no back-pressure).

:class:`PacketSimulator` is a front end over two engines that produce
bit-identical results:

* ``engine="vector"`` (default) -- :func:`repro.sim.batch.run_batch` on
  a one-element batch: the wave calendar resolves the run analytically
  whenever the per-link occupancy intervals are pairwise disjoint (the
  contention-free configurations the paper engineers for) and no fault
  window touches them, and otherwise demotes it to the event core, so
  results are *always* exactly those of the reference engine.
* ``engine="reference"`` -- the event-driven core,
  :func:`repro.faults.packetsim.run_faulty`, on an empty schedule when
  none is given: two calendar events per packet-hop (arrival and
  transmit completion), the semantic ground truth for differential
  testing.

Every run's result is a :class:`PacketResult` over one
:class:`~repro.sim.records.RecordTable`, whichever engine filled it.
Without a fault schedule a lost message is an error: a packet routed
into a cable the fabric lacks raises :class:`SimulationError` naming the
message.  Under a schedule, losses are reported in
:attr:`PacketResult.fault_report` instead.

Remaining simplifications vs. real InfiniBand: a single virtual lane,
FIFO (not VOQ) inputs, FCFS output arbitration.  With the vectorized
engine, paper-scale fabrics (n324 and beyond) run directly; the
reference engine, which every contended run falls back to, prices a
random-order n324 4 x 32 KB shift (20 736 packets) in well under a
second and the same shift at n1944 in a few seconds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from ..fabric.lft import ForwardingTables
from .calibration import LinkCalibration, QDR_PCIE_GEN2
from .events import SimulationError
from .records import RunResult

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.controller import HealingController
    from ..faults.packetsim import FaultRunReport
    from ..faults.schedule import FaultSchedule

__all__ = ["PacketSimulator", "PacketResult", "PacketEngineStats"]


@dataclass(frozen=True)
class PacketEngineStats:
    """How a packet run was executed (for perf tracking and tests)."""

    engine: str              # "vector" | "reference"
    fast_path: bool          # analytic wave calendar resolved the run
    fallback: bool           # vector engine deferred to the event core
    conflicts: int           # overlapping link-interval pairs detected
    messages: int            # real (routed) messages simulated
    packets: int             # MTU segments across all messages
    events_saved: int        # per-packet-hop heap events avoided

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class PacketResult(RunResult):
    """Outcome of a packet-level run."""

    engine_stats: PacketEngineStats | None = None
    #: set when the event core ran under a fault schedule; lost
    #: messages then appear in ``messages`` with ``finish == -1`` and
    #: are excluded from ``latencies``/``makespan``/``total_bytes``.
    fault_report: "FaultRunReport | None" = None


class PacketSimulator:
    """Input-queued cut-through packet simulation over routed tables."""

    ENGINES = ("vector", "reference")

    def __init__(
        self,
        tables: ForwardingTables,
        calibration: LinkCalibration = QDR_PCIE_GEN2,
        credit_limit: int | None = None,
        max_events: int = 5_000_000,
        engine: str = "vector",
        faults: "FaultSchedule | None" = None,
        healing: "HealingController | None" = None,
    ):
        if credit_limit is not None and credit_limit < 1:
            raise ValueError("credit_limit must be >= 1 (or None for infinite)")
        if engine not in self.ENGINES:
            raise ValueError(
                f"engine must be one of {self.ENGINES}, got {engine!r}"
            )
        if healing is not None and faults is None:
            raise ValueError("healing controller given without a fault schedule")
        self.tables = tables
        self.fabric = tables.fabric
        self.cal = calibration
        self.credit_limit = credit_limit
        self.max_events = max_events
        self.engine = engine
        self.faults = faults
        self.healing = healing

    # -- public API -------------------------------------------------------
    def run_sequences(
        self, sequences: list[list[tuple[int, float]]]
    ) -> PacketResult:
        """Simulate per-port ``(dst, size)`` message sequences
        (asynchronous progression, as in the fluid simulator)."""
        N = self.fabric.num_endports
        if len(sequences) != N:
            raise ValueError(f"need {N} sequences, got {len(sequences)}")
        if self.engine == "reference":
            return self._run_event_core(sequences)
        from .batch import BatchSpec, ScenarioSpec, run_batch

        batch = run_batch(BatchSpec(
            tables=self.tables,
            elements=[ScenarioSpec(sequences=sequences, faults=self.faults,
                                   healing=self.healing)],
            calibration=self.cal, credit_limit=self.credit_limit,
            max_events=self.max_events))
        return batch.packet_result(0)

    def _run_event_core(
        self, sequences: list[list[tuple[int, float]]]
    ) -> PacketResult:
        """The event-driven core on this simulator's fault schedule (an
        empty one when none was given).  Without a schedule any lost
        message raises :class:`SimulationError`; with one, losses are
        reported in ``fault_report``."""
        from ..faults.packetsim import run_faulty
        from ..faults.schedule import FaultSchedule

        if self.faults is not None:
            result, _ = run_faulty(self, sequences, self.faults, self.healing)
            return result
        result, report = run_faulty(self, sequences, FaultSchedule())
        if report.lost:
            m = report.lost[0]
            what = (f"unrouted destination {m.dst}"
                    if m.reason == "no route" else m.reason)
            raise SimulationError(
                f"message {m.src}->{m.dst} (#{m.seq} of port {m.src}) "
                f"lost: {what}")
        result.fault_report = None
        return result
