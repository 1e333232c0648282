"""Proxy pre/post stages for non-power-of-two rank counts."""

import numpy as np
import pytest

from repro.collectives import (
    has_constant_displacement,
    post_stage,
    pow2_floor,
    pre_stage,
    with_proxy_stages,
)


class TestPow2Floor:
    def test_values(self):
        assert pow2_floor(1) == 1
        assert pow2_floor(7) == 4
        assert pow2_floor(8) == 8
        assert pow2_floor(1944) == 1024

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pow2_floor(0)


class TestPrePost:
    def test_none_for_powers_of_two(self):
        assert pre_stage(16) is None
        assert post_stage(16) is None

    def test_pre_folds_remainder(self):
        st = pre_stage(11)  # 2**L = 8, remainder 3
        assert np.array_equal(st.pairs, [[8, 0], [9, 1], [10, 2]])

    def test_post_is_reverse_of_pre(self):
        pre, post = pre_stage(11), post_stage(11)
        assert np.array_equal(pre.pairs, post.pairs[:, ::-1])

    def test_constant_displacement(self):
        for n in (5, 11, 1944):
            assert has_constant_displacement(pre_stage(n), n)
            assert has_constant_displacement(post_stage(n), n)


class TestWithProxyStages:
    def test_stage_count(self):
        cps = with_proxy_stages(11)
        # pre + 3 XOR stages on 8 + post
        assert len(cps) == 5
        assert cps.stages[0].label.startswith("pre")
        assert cps.stages[-1].label.startswith("post")

    def test_pow2_has_no_proxy_stages(self):
        cps = with_proxy_stages(16)
        assert len(cps) == 4
        assert not any("pre" in st.label or "post" in st.label for st in cps)

    def test_core_runs_on_pow2_ranks(self):
        cps = with_proxy_stages(11)
        for st in cps.stages[1:-1]:
            assert st.pairs.max() < 8

    def test_reverse_order(self):
        fwd = with_proxy_stages(11, reverse=False)
        rev = with_proxy_stages(11, reverse=True)
        assert [s.label for s in fwd.stages[1:-1]] == \
            [s.label for s in reversed(rev.stages[1:-1])]

    def test_every_rank_participates(self):
        cps = with_proxy_stages(13)
        ranks = np.unique(cps.all_pairs())
        assert sorted(ranks) == list(range(13))

    def test_proxy_preserves_constant_displacement(self):
        n = 19
        cps = with_proxy_stages(n)
        for st in cps:
            assert has_constant_displacement(st, n), st.label
