"""Network simulators: event-driven fluid (flow-level) and packet-level
cut-through models calibrated to the paper's InfiniBand QDR setup."""

from .calibration import (
    DDR_PCIE_GEN1,
    EDR_PCIE_GEN3,
    QDR_PCIE_GEN2,
    LinkCalibration,
)
from .batch import (
    INHERIT,
    BatchElement,
    BatchResult,
    BatchSpec,
    BatchStats,
    ScenarioSpec,
    cps_workload_arrays,
    ordering_batch,
    run_batch,
)
from .events import EventQueue, SimulationError
from .fluid import FluidResult, FluidSimulator
from .metrics import (
    bandwidth_lower_bound,
    efficiency,
    ideal_sequence_time,
    link_byte_loads,
    utilization_report,
    zero_load_latencies,
)
from .packet import PacketEngineStats, PacketResult, PacketSimulator
from .records import MessageRecord, RecordTable, RunResult
from .workload import (
    cps_workload,
    merge_sequences,
    permutation_workload,
    shard_workload,
    uniform_random_workload,
)

__all__ = [
    "BatchElement",
    "BatchResult",
    "BatchSpec",
    "BatchStats",
    "DDR_PCIE_GEN1",
    "EDR_PCIE_GEN3",
    "EventQueue",
    "INHERIT",
    "ScenarioSpec",
    "FluidResult",
    "FluidSimulator",
    "LinkCalibration",
    "MessageRecord",
    "PacketEngineStats",
    "PacketResult",
    "PacketSimulator",
    "QDR_PCIE_GEN2",
    "RecordTable",
    "RunResult",
    "SimulationError",
    "bandwidth_lower_bound",
    "cps_workload",
    "cps_workload_arrays",
    "efficiency",
    "ideal_sequence_time",
    "link_byte_loads",
    "merge_sequences",
    "ordering_batch",
    "permutation_workload",
    "run_batch",
    "shard_workload",
    "utilization_report",
    "uniform_random_workload",
    "zero_load_latencies",
]
