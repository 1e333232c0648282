"""Multi-job sub-allocation on RLFTs.

Section V notes the maximal 3-level RLFT "has 36 different sub
allocations that can provide congestion-free unidirectional MPI
collective in multiplications of 324 nodes" -- and leaves multi-job
operation as future work.  This module implements that allocator.

The allocation unit is one **level-(h-1) sub-tree** (``M_{h-1}``
end-ports: a whole leaf switch on 2-level trees, a whole 324-node
level-2 sub-tree on the maximal 3-level tree).  Jobs receive whole
units, topology-ordered ranks, and plain D-Mod-K routing.  Two
properties follow from the paper's theorems (and are verified in the
test suite):

* **per-job congestion freedom** -- within a job, every stage of a
  constant-displacement sequence keeps HSD = 1: unit boundaries are
  multiples of every modulus in eq. (1), so dense job ranks wrap
  cleanly (lemma 3);
* **inter-job isolation** -- concurrent jobs never share a directed
  link: up-links above a unit belong to the unit's own switches, and
  theorem 2 dedicates every down-link to a single destination, which
  belongs to exactly one job.

So a shared cluster can run one global collective *per job*
simultaneously, all at full bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fabric.nodetypes import DEFAULT_TYPE, NodeTypeMap
from ..topology.spec import PGFTSpec

__all__ = ["Job", "SubAllocator", "AllocationError"]


class AllocationError(RuntimeError):
    """The request cannot be satisfied."""


@dataclass(frozen=True)
class Job:
    """A granted allocation."""

    job_id: int
    units: tuple[int, ...]          # allocation-unit indices, ascending
    active_ports: np.ndarray        # end-port indices, ascending
    node_type: str = DEFAULT_TYPE   # traffic class of the job's nodes

    @property
    def num_ranks(self) -> int:
        return len(self.active_ports)

    @property
    def placement(self) -> np.ndarray:
        """Topology-aware rank placement: rank ``r`` on the job's
        ``r``-th end-port in fabric order."""
        return self.active_ports

    @property
    def active(self) -> np.ndarray:
        """Placement-compatible alias: the job's active end-port set, as
        consumed by ``CheckContext.active`` and job-aware routing."""
        return self.active_ports

    def __repr__(self) -> str:
        return (f"Job(id={self.job_id}, units={list(self.units)},"
                f" ranks={self.num_ranks}, type={self.node_type!r})")


class SubAllocator:
    """First-fit allocator of level-(h-1) sub-tree units."""

    def __init__(self, spec: PGFTSpec):
        self.spec = spec
        self.unit_size = spec.M(spec.h - 1)
        self.num_units = spec.num_endports // self.unit_size
        self._free: set[int] = set(range(self.num_units))
        self._jobs: dict[int, Job] = {}
        self._next_id = 0

    @property
    def free_units(self) -> list[int]:
        return sorted(self._free)

    @property
    def jobs(self) -> list[Job]:
        return [self._jobs[k] for k in sorted(self._jobs)]

    def units_needed(self, num_ranks: int) -> int:
        if num_ranks < 1:
            raise AllocationError("a job needs at least one rank")
        return -(-num_ranks // self.unit_size)

    def allocate(self, num_ranks: int,
                 node_type: str = DEFAULT_TYPE) -> Job:
        """Grant ``ceil(num_ranks / unit)`` units (lowest-index first).

        The job's active set covers whole units; ranks beyond
        ``num_ranks`` simply idle inside the last unit (the granted
        ports stay reserved either way, as a real scheduler would).
        ``node_type`` tags the job's traffic class (compute, storage,
        ...) for the isolation analyzer.
        """
        need = self.units_needed(num_ranks)
        if need > len(self._free):
            raise AllocationError(
                f"need {need} units for {num_ranks} ranks, "
                f"only {len(self._free)} free"
            )
        units = tuple(sorted(self._free)[:need])
        for u in units:
            self._free.remove(u)
        ports = np.concatenate([
            np.arange(u * self.unit_size, (u + 1) * self.unit_size)
            for u in units
        ])
        job = Job(job_id=self._next_id, units=units,
                  active_ports=ports[:num_ranks], node_type=node_type)
        self._next_id += 1
        self._jobs[job.job_id] = job
        return job

    def release(self, job: Job | int) -> None:
        job_id = job.job_id if isinstance(job, Job) else job
        if job_id not in self._jobs:
            raise AllocationError(f"unknown job id {job_id}")
        released = self._jobs.pop(job_id)
        self._free.update(released.units)

    def active_ports(self) -> np.ndarray:
        """Union of every live job's active end-ports (ascending).

        This is the fabric-wide ``active`` set the check pipeline and
        job-aware routing consume when certifying the cluster as a
        whole rather than one job at a time.
        """
        live = [self._jobs[k].active_ports for k in sorted(self._jobs)]
        if not live:
            return np.array([], dtype=np.int64)
        return np.unique(np.concatenate(live))

    def node_type_map(self, default: str = "idle") -> NodeTypeMap:
        """Fabric-wide :class:`~repro.fabric.nodetypes.NodeTypeMap`
        derived from the live jobs' ``node_type`` tags.

        Unallocated (and allocated-but-idle) end-ports get ``default``.
        Jobs sharing a ``node_type`` merge into one traffic class, so
        the isolation analyzer reasons about classes, not job ids.
        """
        ports: dict[str, list[np.ndarray]] = {}
        for k in sorted(self._jobs):
            job = self._jobs[k]
            ports.setdefault(job.node_type, []).append(job.active_ports)
        merged = {
            name: np.unique(np.concatenate(chunks))
            for name, chunks in sorted(ports.items())
        }
        return NodeTypeMap.from_ports(self.spec.num_endports, merged,
                                      default=default)

    def utilization(self) -> float:
        return 1.0 - len(self._free) / self.num_units
