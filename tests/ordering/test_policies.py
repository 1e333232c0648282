"""Scheduler placement policies: block vs cyclic."""

import numpy as np
import pytest

from repro.analysis import sequence_hsd
from repro.collectives import shift
from repro.fabric import build_fabric
from repro.ordering import block_order, cyclic_order, policy_order, topology_order
from repro.routing import route_dmodk
from repro.topology import rlft_max


@pytest.fixture(scope="module")
def spec():
    return rlft_max(6, 2)  # 72 nodes, 12 leaves of 6


class TestBlock:
    def test_block_is_topology_order(self, spec):
        assert np.array_equal(block_order(spec), topology_order(spec.num_endports))

    def test_partial(self, spec):
        assert np.array_equal(block_order(spec, 10), np.arange(10))


class TestCyclic:
    def test_full_is_permutation(self, spec):
        order = cyclic_order(spec)
        assert sorted(order) == list(range(spec.num_endports))

    def test_round_robin_across_leaves(self, spec):
        order = cyclic_order(spec)
        m = spec.m[0]
        leaves = order[: spec.num_endports // m] // m
        # The first L ranks land on L distinct leaves.
        assert len(np.unique(leaves)) == len(leaves)

    def test_partial_injective(self, spec):
        order = cyclic_order(spec, 29)
        assert len(np.unique(order)) == 29

    def test_level2_cyclic(self):
        spec = rlft_max(2, 3)  # 16 nodes, M(2) = 4
        order = cyclic_order(spec, level=2)
        assert sorted(order) == list(range(16))
        # First ranks spread across the 4 level-2 subtrees.
        assert len({int(p) // 4 for p in order[:4]}) == 4


class TestPolicyCost:
    def test_cyclic_is_also_congestion_free(self, spec):
        # A finding beyond the paper: per-leaf cyclic placement is the
        # *transpose* of the topology order, and D-Mod-K's modular
        # spreading survives transposition -- sources of one leaf target
        # stride-unit destinations, which still fan out over distinct
        # up-ports.  Both classic scheduler policies are safe; the
        # danger is unstructured (random) placement.
        tables = route_dmodk(build_fabric(spec))
        n = spec.num_endports
        cps = shift(n)
        assert sequence_hsd(tables, cps, block_order(spec)).congestion_free
        assert sequence_hsd(tables, cps, cyclic_order(spec)).congestion_free

    def test_cyclic_clean_on_three_level(self):
        spec = rlft_max(3, 3)
        tables = route_dmodk(build_fabric(spec))
        n = spec.num_endports
        cps = shift(n)
        for level in (1, 2):
            rep = sequence_hsd(tables, cps, cyclic_order(spec, level=level))
            assert rep.congestion_free, level

    def test_dispatch(self, spec):
        assert np.array_equal(policy_order(spec, "block"), block_order(spec))
        assert np.array_equal(policy_order(spec, "cyclic"), cyclic_order(spec))
        with pytest.raises(ValueError, match="policy"):
            policy_order(spec, "fractal")

    def test_range_checks(self, spec):
        with pytest.raises(ValueError):
            block_order(spec, spec.num_endports + 1)
        with pytest.raises(ValueError):
            cyclic_order(spec, 0)
