"""Section VI: topology-aware hierarchical recursive doubling."""

import numpy as np

from repro.analysis import sequence_hsd
from repro.collectives import (
    group_stage_plan,
    has_constant_displacement,
    hierarchical_recursive_doubling,
)
from repro.fabric import build_fabric
from repro.ordering import topology_order
from repro.routing import route_dmodk
from repro.topology import pgft, rlft_max


class TestPlan:
    def test_constants_for_324(self):
        spec = pgft(2, [18, 18], [1, 9], [1, 2])
        plan = group_stage_plan(spec)
        g1 = plan[0]
        assert g1["m"] == 18 and g1["L"] == 4 and g1["E"] == 16
        assert g1["needs_proxy"]  # 18 is not a power of two
        g2 = plan[1]
        assert g2["block"] == 18
        assert g2["E"] == 18 * 16

    def test_pow2_tree_needs_no_proxies(self):
        spec = rlft_max(4, 2)  # m = (4, 8)
        assert not any(g["needs_proxy"] for g in group_stage_plan(spec))


class TestSequence:
    def test_stage_count_pow2(self):
        spec = rlft_max(4, 2)  # m=(4,8): log2 4 + log2 8 = 2 + 3 stages
        cps = hierarchical_recursive_doubling(spec)
        assert len(cps) == 5

    def test_stage_count_with_proxies(self):
        spec = pgft(2, [6, 6], [1, 6], [1, 1])  # L=2 per level + pre/post x2
        cps = hierarchical_recursive_doubling(spec)
        assert len(cps) == 2 * (2 + 2)

    def test_bulk_stages_bidirectional(self, any_spec):
        cps = hierarchical_recursive_doubling(any_spec)
        from repro.collectives import is_bidirectional_stage

        for st in cps:
            if "pre" in st.label or "post" in st.label:
                continue
            assert is_bidirectional_stage(st), st.label

    def test_constant_displacement_per_stage(self, any_spec):
        n = any_spec.num_endports
        for st in hierarchical_recursive_doubling(any_spec):
            assert has_constant_displacement(st, n), st.label

    def test_level1_matches_local_xor(self):
        spec = rlft_max(4, 2)
        cps = hierarchical_recursive_doubling(spec)
        st = cps.stages[0]  # g1-s0: i <-> i^1 within leaves
        pairs = {tuple(p) for p in st.pairs}
        assert (0, 1) in pairs and (1, 0) in pairs
        assert (2, 3) in pairs

    def test_level2_swaps_whole_blocks(self):
        spec = rlft_max(4, 2)  # leaves of 4
        cps = hierarchical_recursive_doubling(spec)
        # first level-2 stage: blocks of 4 exchange, displacement 4.
        st = next(s for s in cps if s.label.startswith("g2"))
        disp = np.unique((st.destinations - st.sources))
        assert set(np.abs(disp)) == {4}

    def test_all_ranks_covered(self, any_spec):
        cps = hierarchical_recursive_doubling(any_spec)
        ranks = np.unique(cps.all_pairs())
        assert len(ranks) == any_spec.num_endports


class TestCongestionFreedom:
    """Theorem 3: hierarchical RD is HSD = 1 under D-Mod-K + topo order."""

    def test_hsd_one(self, any_spec):
        tables = route_dmodk(build_fabric(any_spec))
        n = any_spec.num_endports
        cps = hierarchical_recursive_doubling(any_spec)
        rep = sequence_hsd(tables, cps, topology_order(n))
        assert rep.congestion_free

    def test_beats_naive_rd_on_non_pow2_arity(self):
        from repro.collectives import recursive_doubling

        spec = pgft(2, [18, 18], [1, 9], [1, 2])
        tables = route_dmodk(build_fabric(spec))
        n = spec.num_endports
        naive = sequence_hsd(tables, recursive_doubling(n), topology_order(n))
        hier = sequence_hsd(
            tables, hierarchical_recursive_doubling(spec), topology_order(n)
        )
        assert hier.congestion_free
        assert naive.worst > 1
