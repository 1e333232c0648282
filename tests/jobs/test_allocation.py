"""Sub-allocation: unit accounting, congestion freedom, job isolation."""

import numpy as np
import pytest

from repro.analysis import sequence_hsd, stage_link_loads
from repro.collectives import hierarchical_recursive_doubling, shift
from repro.collectives.schedule import stage_flows
from repro.fabric import build_fabric
from repro.jobs import AllocationError, SubAllocator
from repro.routing import route_dmodk
from repro.topology import rlft_max


@pytest.fixture
def spec():
    return rlft_max(6, 2)  # 72 end-ports, 12 leaf units of 6


@pytest.fixture
def alloc(spec):
    return SubAllocator(spec)


class TestAccounting:
    def test_paper_unit_structure(self):
        a = SubAllocator(rlft_max(18, 3))
        assert a.num_units == 36       # section V: 36 sub-allocations
        assert a.unit_size == 324      # of 324 nodes each

    def test_units_needed_rounds_up(self, alloc):
        assert alloc.units_needed(1) == 1
        assert alloc.units_needed(6) == 1
        assert alloc.units_needed(7) == 2

    def test_allocate_and_release(self, alloc):
        job = alloc.allocate(13)
        assert job.units == (0, 1, 2)
        assert job.num_ranks == 13
        assert alloc.utilization() == pytest.approx(3 / 12)
        alloc.release(job)
        assert alloc.utilization() == 0.0
        assert alloc.free_units == list(range(12))

    def test_exhaustion(self, alloc):
        alloc.allocate(60)  # 10 units
        with pytest.raises(AllocationError, match="only 2 free"):
            alloc.allocate(30)

    def test_release_unknown(self, alloc):
        with pytest.raises(AllocationError):
            alloc.release(99)

    def test_zero_ranks_rejected(self, alloc):
        with pytest.raises(AllocationError):
            alloc.allocate(0)

    def test_fragmented_reuse(self, alloc):
        a = alloc.allocate(6)
        b = alloc.allocate(6)
        c = alloc.allocate(6)
        alloc.release(b)
        d = alloc.allocate(6)
        assert d.units == (1,)  # first-fit fills the hole

    def test_active_ports_sorted_and_in_units(self, alloc):
        job = alloc.allocate(10)
        assert (np.diff(job.active_ports) > 0).all()
        for p in job.active_ports:
            assert p // alloc.unit_size in job.units


class TestCongestionProperties:
    def test_each_job_congestion_free(self, spec, alloc):
        tables = route_dmodk(build_fabric(spec))
        jobs = [alloc.allocate(18), alloc.allocate(24), alloc.allocate(12)]
        for job in jobs:
            rep = sequence_hsd(tables, shift(job.num_ranks), job.placement)
            assert rep.congestion_free, job

    def test_inter_job_isolation(self, spec, alloc):
        # Concurrent shifts of all jobs never put 2 flows on one link.
        tables = route_dmodk(build_fabric(spec))
        jobs = [alloc.allocate(18), alloc.allocate(24), alloc.allocate(12)]
        stage_lists = [shift(j.num_ranks).stages for j in jobs]
        for k in range(max(len(s) for s in stage_lists)):
            srcs, dsts = [], []
            for job, stages in zip(jobs, stage_lists):
                if k < len(stages):
                    s, d = stage_flows(stages[k], job.placement)
                    srcs.append(s)
                    dsts.append(d)
            loads = stage_link_loads(
                tables, np.concatenate(srcs), np.concatenate(dsts))
            assert loads.max() <= 1

    def test_bidirectional_job_on_three_level(self):
        spec = rlft_max(2, 3)  # 16 nodes, units of 4
        alloc = SubAllocator(spec)
        alloc.allocate(4)  # occupy one unit
        job = alloc.allocate(8)
        tables = route_dmodk(build_fabric(spec))
        # Whole-unit jobs also run the hierarchical sequence cleanly via
        # physical slots.
        from repro.ordering import physical_placement

        slots = physical_placement(job.active_ports, spec.num_endports)
        cps = hierarchical_recursive_doubling(spec)
        rep = sequence_hsd(tables, cps, slots)
        assert rep.congestion_free


class TestTypedJobs:
    def test_node_type_defaults_and_tagging(self, alloc):
        a = alloc.allocate(6)
        b = alloc.allocate(6, node_type="storage")
        assert a.node_type == "compute"
        assert b.node_type == "storage"
        assert "storage" in repr(b)

    def test_job_active_alias(self, alloc):
        job = alloc.allocate(6, node_type="storage")
        assert np.array_equal(job.active, job.active_ports)

    def test_allocator_active_ports_union(self, alloc):
        a = alloc.allocate(6)
        b = alloc.allocate(6, node_type="storage")
        merged = alloc.active_ports()
        assert np.array_equal(
            merged, np.unique(np.concatenate([a.active_ports,
                                              b.active_ports])))
        alloc.release(a)
        assert np.array_equal(alloc.active_ports(), b.active_ports)

    def test_empty_allocator_active_ports(self, alloc):
        assert len(alloc.active_ports()) == 0

    def test_node_type_map_classes(self, spec, alloc):
        a = alloc.allocate(6)
        b = alloc.allocate(12, node_type="storage")
        types = alloc.node_type_map()
        # granted units carry their job's class, the rest is idle
        assert set(types.type_names) >= {"compute", "storage", "idle"}
        for job, name in ((a, "compute"), (b, "storage")):
            idx = types.type_names.index(name)
            assert np.array_equal(np.flatnonzero(types.type_of == idx),
                                  job.active_ports)
        n_idle = spec.num_endports - len(a.active_ports) - len(b.active_ports)
        idle_idx = types.type_names.index("idle")
        assert int((types.type_of == idle_idx).sum()) == n_idle

    def test_node_type_map_merges_same_class_jobs(self, alloc):
        a = alloc.allocate(6, node_type="storage")
        b = alloc.allocate(6, node_type="storage")
        types = alloc.node_type_map()
        idx = types.type_names.index("storage")
        assert int((types.type_of == idx).sum()) == (len(a.active_ports)
                                                    + len(b.active_ports))

    def test_typed_jobs_route_typeaware_cleanly(self, spec, alloc):
        # unit-granular typed jobs: type-aware routing keeps every
        # job's shift collective contention-free
        from repro.routing import route_typeaware

        a = alloc.allocate(18)
        b = alloc.allocate(12, node_type="storage")
        fab = build_fabric(spec)
        fab.node_types = alloc.node_type_map()
        tables = route_typeaware(fab, active=alloc.active_ports())
        for job in (a, b):
            rep = sequence_hsd(tables, shift(job.num_ranks), job.placement)
            assert rep.congestion_free
