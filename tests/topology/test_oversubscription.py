"""Why the paper's first RLFT restriction (constant CBB) is necessary.

Oversubscribed fat-trees (fewer up-links than down-links per leaf) are
cheaper and common in practice -- and provably cannot be congestion-free
for global collectives: during a Shift stage every host sends, so a
leaf's ``m`` flows must squeeze through ``m / r`` up-links, forcing
HSD >= r.  These tests pin the bound and show D-Mod-K still does the
best possible thing (exactly r, never worse).
"""

import pytest

from repro.analysis import sequence_hsd
from repro.collectives import shift
from repro.fabric import build_fabric
from repro.ordering import topology_order
from repro.routing import check_reachability, route_dmodk
from repro.topology import pgft


def _oversubscribed(ratio: int):
    # 8 hosts per leaf, 8/ratio up-links (to 8/ratio spines).
    up = 8 // ratio
    return pgft(2, [8, 8], [1, up], [1, 1])


class TestOversubscribedTrees:
    @pytest.mark.parametrize("ratio", [2, 4])
    def test_not_constant_cbb(self, ratio):
        spec = _oversubscribed(ratio)
        assert not spec.has_constant_cbb()

    @pytest.mark.parametrize("ratio", [2, 4])
    def test_dmodk_still_routes(self, ratio):
        tables = route_dmodk(build_fabric(_oversubscribed(ratio)))
        check_reachability(tables)

    @pytest.mark.parametrize("ratio", [2, 4])
    def test_hsd_exactly_the_oversubscription(self, ratio):
        # The floor is r (pigeonhole); D-Mod-K achieves the floor.
        spec = _oversubscribed(ratio)
        n = spec.num_endports
        tables = route_dmodk(build_fabric(spec))
        rep = sequence_hsd(tables, shift(n), topology_order(n))
        assert rep.worst == ratio
        # Cross-leaf stages saturate at exactly r; no stage exceeds it.
        assert rep.avg_max <= ratio

    def test_full_cbb_reference(self):
        spec = pgft(2, [8, 8], [1, 8], [1, 1])
        n = spec.num_endports
        tables = route_dmodk(build_fabric(spec))
        assert sequence_hsd(tables, shift(n),
                            topology_order(n)).congestion_free
