"""The per-record metric rule, kept as a test oracle.

Packet results used to be assembled by ``PacketSimulator._finalize``:
Python passes over a list of :class:`~repro.sim.records.MessageRecord`
objects (completed filter, latency list, ``max``, ``sum``) and a count
of non-empty sequences.  :class:`~repro.sim.records.RecordTable` now
computes the same metrics on its columns.  :func:`finalize` is the old
body; tests hold every result's table metrics to it, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.calibration import LinkCalibration
from repro.sim.packet import PacketEngineStats
from repro.sim.records import MessageRecord

__all__ = ["ReferenceResult", "finalize"]


@dataclass
class ReferenceResult:
    """The fields and metrics of a result, computed record by record."""

    makespan: float
    total_bytes: float
    num_ports: int
    active_ports: int
    calibration: LinkCalibration
    latencies: np.ndarray = field(default_factory=lambda: np.empty(0))
    messages: list[MessageRecord] = field(default_factory=list)
    engine_stats: PacketEngineStats | None = None
    fault_report: object = None

    @property
    def aggregate_bandwidth(self) -> float:
        return self.total_bytes / self.makespan if self.makespan > 0 else 0.0

    @property
    def per_port_bandwidth(self) -> float:
        return self.aggregate_bandwidth / max(self.active_ports, 1)

    @property
    def normalized_bandwidth(self) -> float:
        return self.per_port_bandwidth / self.calibration.host_bandwidth

    @property
    def mean_latency(self) -> float:
        return float(self.latencies.mean()) if len(self.latencies) else 0.0

    @property
    def max_latency(self) -> float:
        return float(self.latencies.max()) if len(self.latencies) else 0.0


def finalize(
    sim,
    records: list[MessageRecord],
    sequences: list[list[tuple[int, float]]],
    stats: PacketEngineStats | None,
) -> ReferenceResult:
    """Build a result from canonically ordered records.

    ``records`` must be sorted by (source port, sequence position) --
    both engines emit this order, so metric arrays compare
    element-wise across engines.  Lost messages (``finish == -1``)
    count toward no metric.
    """
    done = [m for m in records if m.finish >= 0]
    lat = np.asarray([m.finish - m.start for m in done
                      if m.size > 0 and m.src != m.dst])
    return ReferenceResult(
        makespan=max((m.finish for m in done), default=0.0),
        total_bytes=sum(m.size for m in done),
        num_ports=sim.fabric.num_endports,
        active_ports=sum(1 for s in sequences if s),
        calibration=sim.cal,
        latencies=lat,
        messages=records,
        engine_stats=stats,
    )
