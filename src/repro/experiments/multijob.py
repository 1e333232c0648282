"""Multi-job operation: sub-allocated jobs never interfere.

The paper proves congestion freedom for a single job and leaves shared
clusters as future work (section V mentions the 36 sub-allocations of
324 nodes on the maximal 3-level tree).  This experiment implements
that direction: several jobs, each granted whole level-(h-1) sub-tree
units, all run global Shift collectives *simultaneously* -- and every
directed link still carries at most one flow (inter-job isolation),
with the fluid simulator confirming each job gets full bandwidth as if
it were alone.
"""

from __future__ import annotations

from ..analysis import render_table, sequence_hsd
from ..collectives import shift
from ..fabric import build_fabric
from ..jobs import SubAllocator
from ..routing import route_dmodk
from ..sim import FluidSimulator, cps_workload, merge_sequences
from .common import concurrent_cps, get_topology, make_parser

__all__ = ["run", "main"]


def run(topo: str = "rlft2-max36", job_units=(6, 12, 9),
        message_kb: int = 256) -> str:
    spec = get_topology(topo)
    alloc = SubAllocator(spec)
    fabric = build_fabric(spec)
    tables = route_dmodk(fabric)
    types = ("compute", "storage", "analytics")
    jobs = [alloc.allocate(u * alloc.unit_size, node_type=types[i % len(types)])
            for i, u in enumerate(job_units)]
    # Tag the fabric with the tenancy map so downstream checks
    # (``--isolation``) see the same classes the allocator granted.
    fabric.node_types = alloc.node_type_map()

    rows = []
    sim = FluidSimulator(tables)
    size = message_kb * 1024.0
    workloads = []
    for job in jobs:
        cps = shift(job.num_ranks, displacements=range(1, 17))
        rep = sequence_hsd(tables, cps, job.placement)
        wl = cps_workload(cps, job.placement, spec.num_endports, size)
        solo = sim.run_sequences(wl)
        workloads.append(wl)
        # per-job certification is job-aware: only the job's own active
        # end-ports count (Cont.-X semantics via ``job.active``)
        assert len(job.active) == len(job.units) * alloc.unit_size
        rows.append((f"job {job.job_id} ({job.node_type})", len(job.units),
                     job.num_ranks, rep.worst,
                     round(solo.normalized_bandwidth, 3)))
    all_seqs = merge_sequences(*workloads)

    # All jobs together: combined per-stage HSD and combined bandwidth.
    combined_worst = sequence_hsd(tables, *concurrent_cps(
        [(shift(j.num_ranks, displacements=range(1, 17)), j.placement)
         for j in jobs])).worst
    together = sim.run_sequences(all_seqs)
    rows.append(("all concurrent", sum(len(j.units) for j in jobs),
                 sum(j.num_ranks for j in jobs), combined_worst,
                 round(together.normalized_bandwidth, 3)))

    return render_table(
        ["job", "units", "ranks", "worst HSD", "normBW"],
        rows,
        title=(f"Multi-job isolation on {spec} | unit ="
               f" {alloc.unit_size} end-ports,"
               f" {alloc.num_units} units total\n"
               "(extension of section V: sub-allocated jobs run"
               " concurrently with zero interference)"),
    )


def main(argv=None) -> None:
    parser = make_parser(__doc__)
    parser.add_argument("--topo", default="rlft2-max36")
    parser.add_argument("--job-units", type=int, nargs="+", default=[6, 12, 9])
    parser.add_argument("--message-kb", type=int, default=256)
    args = parser.parse_args(argv)
    print(run(topo=args.topo, job_units=tuple(args.job_units),
              message_kb=args.message_kb))


if __name__ == "__main__":
    main()
