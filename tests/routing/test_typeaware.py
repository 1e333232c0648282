"""Type-aware routing: typed ranks, dmodk-equivalence with one class,
and per-class theorem-1 where type-blind D-Mod-K provably fails."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sequence_hsd
from repro.check import build_class_schedules
from repro.fabric import NodeTypeMap, build_fabric
from repro.routing import (
    TypeAwareRouter,
    dense_ranks,
    route_dmodk,
    route_typeaware,
    typed_ranks,
)
from repro.topology import pgft

from ..properties.test_topology_properties import cbb_specs

RLFT16 = pgft(2, [4, 4], [1, 4], [1, 1])
N324 = pgft(2, [18, 18], [1, 9], [1, 2])


class TestTypedRanks:
    def test_uniform_types_are_dense_ranks(self):
        types = NodeTypeMap.uniform(12)
        assert np.array_equal(typed_ranks(12, types), dense_ranks(12, None))

    def test_per_class_ranks_are_dense(self):
        types = NodeTypeMap.from_ports(
            8, {"storage": np.array([1, 4, 6])})
        r = typed_ranks(8, types)
        for t in range(len(types.type_names)):
            members = np.flatnonzero(types.type_of == t)
            assert list(r[members]) == list(range(len(members)))

    def test_active_borrow_semantics(self):
        # inactive members borrow the next active member's rank, exactly
        # like dense_ranks does for the untyped job-aware case
        types = NodeTypeMap.uniform(6)
        active = np.array([1, 3, 4])
        assert np.array_equal(typed_ranks(6, types, active),
                              dense_ranks(6, active))

    def test_raw_array_accepted(self):
        r = typed_ranks(4, np.array([0, 1, 0, 1], dtype=np.int64))
        assert list(r) == [0, 0, 1, 1]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            typed_ranks(5, NodeTypeMap.uniform(4))


class TestDmodkEquivalence:
    def test_single_type_tables_bit_identical(self):
        fab = build_fabric(N324)
        fab.node_types = NodeTypeMap.uniform(N324.num_endports)
        ta = route_typeaware(fab)
        dm = route_dmodk(fab)
        assert np.array_equal(ta.switch_out, dm.switch_out)
        assert (ta.host_up is None) == (dm.host_up is None)
        if ta.host_up is not None:
            assert np.array_equal(ta.host_up, dm.host_up)

    @given(cbb_specs())
    @settings(max_examples=20, deadline=None)
    def test_single_type_equivalence_any_cbb(self, spec):
        if not (2 <= spec.num_endports <= 120):
            return
        fab = build_fabric(spec)
        fab.node_types = NodeTypeMap.uniform(spec.num_endports)
        ta = route_typeaware(fab)
        dm = route_dmodk(fab)
        assert np.array_equal(ta.switch_out, dm.switch_out)

    @given(cbb_specs(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_single_type_job_aware_equivalence(self, spec, seed):
        n = spec.num_endports
        if not (4 <= n <= 120):
            return
        rng = np.random.default_rng(seed)
        active = np.sort(rng.choice(n, size=max(2, n // 2), replace=False))
        fab = build_fabric(spec)
        fab.node_types = NodeTypeMap.uniform(n)
        ta = route_typeaware(fab, active=active)
        dm = route_dmodk(fab, active=active)
        assert np.array_equal(ta.switch_out, dm.switch_out)


class TestPerClassContentionFreedom:
    def test_staggered_classes_each_stay_hsd_one(self):
        # the adversarial layout: one storage port per leaf, rotating
        fab = build_fabric(RLFT16)
        types = NodeTypeMap.staggered(RLFT16, {"storage": 1})
        fab.node_types = types
        tables = route_typeaware(fab)
        for cs in build_class_schedules(types):
            rep = sequence_hsd(tables, cs.cps, cs.ports)
            assert rep.congestion_free, cs.name

    def test_dmodk_refuted_on_same_layout(self):
        # type-blind routing sees non-consecutive class ranks: eq. (1)
        # loses theorem 1 for the scattered class
        fab = build_fabric(RLFT16)
        types = NodeTypeMap.staggered(RLFT16, {"storage": 1})
        fab.node_types = types
        tables = route_dmodk(fab)
        worst = 0
        for cs in build_class_schedules(types):
            rep = sequence_hsd(tables, cs.cps, cs.ports)
            worst = max(worst, rep.worst)
        assert worst > 1

    def test_n324_staggered_both_classes_clean(self):
        fab = build_fabric(N324)
        types = NodeTypeMap.staggered(N324, {"storage": 2})
        fab.node_types = types
        tables = route_typeaware(fab)
        for cs in build_class_schedules(types, max_stages=16):
            rep = sequence_hsd(tables, cs.cps, cs.ports)
            assert rep.congestion_free, cs.name


class TestRouterProtocol:
    def test_router_name_and_call(self):
        fab = build_fabric(RLFT16)
        fab.node_types = NodeTypeMap.staggered(RLFT16, {"storage": 1})
        router = TypeAwareRouter()
        assert router.name == "typeaware"
        tables = router(fab)
        assert tables.switch_out.shape == route_typeaware(fab).switch_out.shape

    def test_untyped_fabric_without_spec_types_ok(self):
        # untyped fabric: node_types defaults to uniform -> dmodk tables
        fab = build_fabric(RLFT16)
        assert np.array_equal(route_typeaware(fab).switch_out,
                              route_dmodk(fab).switch_out)
