"""Experiment plumbing helpers."""

import pytest

import repro.collectives
from repro.collectives import shift
from repro.experiments.common import (
    figure3_cps_factories,
    get_topology,
    sampled_shift,
)
from repro.runtime.cache import cps_digest


class TestGetTopology:
    def test_known(self):
        assert get_topology("n324").num_endports == 324

    def test_unknown_exits_with_choices(self):
        with pytest.raises(SystemExit, match="n1944"):
            get_topology("n9999")


class TestSampledShift:
    def test_small_n_unsampled(self):
        cps = sampled_shift(10, max_stages=64)
        assert len(cps) == 9

    def test_large_n_capped(self):
        cps = sampled_shift(1944, max_stages=64)
        assert len(cps) <= 65
        # Sampling keeps distinct displacements.
        disp = [int((st.destinations[0] - st.sources[0]) % 1944)
                for st in cps]
        assert len(set(disp)) == len(disp)

    def test_one_implementation(self):
        assert sampled_shift is repro.collectives.sampled_shift

    def test_stride_schedule_unchanged(self):
        for n, budget in [(324, 64), (1944, 24), (100, 64), (65, 64)]:
            step = (n - 1) // budget
            want = shift(n, displacements=range(1, n, step))
            got = sampled_shift(n, budget)
            assert cps_digest(got) == cps_digest(want)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_rejects_non_positive_budget(self, budget):
        with pytest.raises(ValueError, match="max_stages must be >= 1"):
            sampled_shift(324, budget)


class TestFigure3Factories:
    def test_six_collectives(self):
        fac = figure3_cps_factories()
        assert set(fac) == {"binomial", "butterfly", "dissemination",
                            "ring", "shift", "tournament"}

    def test_each_builds(self):
        for name, factory in figure3_cps_factories(16).items():
            cps = factory(32)
            assert len(cps.stages) >= 1, name
