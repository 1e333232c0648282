"""Run records: one struct-of-arrays table behind every simulator result.

The fluid model, the wave calendar's fast path and the event core each
fill a :class:`RecordTable`: one read-only row per message in (source
port, sequence position) order, ``finish < 0`` for a lost message.
:class:`RunResult`, the base of both result types, defines every shared
metric on it once and builds the :class:`MessageRecord` list only when
``messages`` is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calibration import LinkCalibration

__all__ = ["MessageRecord", "RecordTable", "RunResult", "sequence_columns"]


@dataclass(frozen=True)
class MessageRecord:
    """Timing of one simulated message."""

    src: int
    dst: int
    size: float
    start: float      # overhead begins
    inject: float     # transfer begins (overhead done)
    finish: float     # last byte on the wire (-1 if lost)

    def __post_init__(self) -> None:
        # the table stores sizes as floats; so does every record
        object.__setattr__(self, "size", float(self.size))


def sequence_columns(
    sequences: list[list[tuple[int, float]]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, size)`` of every message of per-port ``(dst, size)``
    sequences, in (source port, sequence position) order."""
    counts = [len(seq) for seq in sequences]
    src = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    dst = np.asarray([d for seq in sequences for d, _ in seq],
                     dtype=np.int64)
    size = np.asarray([s for seq in sequences for _, s in seq],
                      dtype=np.float64)
    return src, dst, size


@dataclass(frozen=True, eq=False)
class RecordTable:
    """One row per message, in (source port, sequence position) order."""

    src: np.ndarray
    dst: np.ndarray
    size: np.ndarray
    start: np.ndarray
    inject: np.ndarray
    finish: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.src, self.dst, self.size, self.start,
                       self.inject, self.finish):
            column.flags.writeable = False

    @classmethod
    def from_rows(cls, rows: list[tuple]) -> "RecordTable":
        """From ``(src, dst, size, start, inject, finish)`` tuples."""
        cols = np.array(rows, dtype=np.float64).reshape(-1, 6).T.copy()
        return cls(cols[0].astype(np.int64), cols[1].astype(np.int64),
                   *cols[2:])

    @cached_property
    def done(self) -> np.ndarray:
        """Messages that completed (everything but losses)."""
        return self.finish >= 0

    @cached_property
    def real(self) -> np.ndarray:
        """Messages that cross the fabric: not to themselves, not
        empty."""
        return (self.src != self.dst) & (self.size > 0)


#: The record table of a run without messages.
EMPTY = RecordTable.from_rows([])


@dataclass
class RunResult:
    """The metrics every simulator result shares, read off its
    :class:`RecordTable` on first use; ``latencies`` and ``messages``
    are this result's own array and list."""

    records: RecordTable
    num_ports: int
    calibration: LinkCalibration

    @cached_property
    def makespan(self) -> float:
        """The last completion (0.0 when nothing completed)."""
        finish = self.records.finish[self.records.done]
        return float(finish.max()) if len(finish) else 0.0

    @cached_property
    def total_bytes(self) -> float:
        """Completed bytes, summed left to right in row order."""
        return sum(self.records.size[self.records.done].tolist())

    @cached_property
    def active_ports(self) -> int:
        """Ports with at least one message."""
        return len(np.unique(self.records.src))

    @cached_property
    def latencies(self) -> np.ndarray:
        """``finish - start`` of every completed real message."""
        r = self.records
        return (r.finish - r.start)[r.done & r.real]

    @cached_property
    def messages(self) -> list[MessageRecord]:
        r = self.records
        return list(map(MessageRecord, r.src.tolist(), r.dst.tolist(),
                        r.size.tolist(), r.start.tolist(),
                        r.inject.tolist(), r.finish.tolist()))

    @property
    def aggregate_bandwidth(self) -> float:
        """Total completed bytes per microsecond."""
        return self.total_bytes / self.makespan if self.makespan > 0 else 0.0

    @property
    def per_port_bandwidth(self) -> float:
        return self.aggregate_bandwidth / max(self.active_ports, 1)

    @property
    def normalized_bandwidth(self) -> float:
        """The paper's Figure-2 metric: effective bandwidth normalised to
        the full host (PCIe) bandwidth."""
        return self.per_port_bandwidth / self.calibration.host_bandwidth

    @property
    def mean_latency(self) -> float:
        return float(self.latencies.mean()) if len(self.latencies) else 0.0

    @property
    def max_latency(self) -> float:
        return float(self.latencies.max()) if len(self.latencies) else 0.0
