"""The blocked wave kernel equals its masked reference, bit for bit.

:func:`repro.sim.batch._advance_wave` groups a wave's rows by packet
count and advances each block over contiguous hop slices;
``tests/wave_reference.py`` keeps the masked form it replaced.  Over
ragged waves -- mixed packet counts, route lengths, last-packet sizes
and link capacities, every credit regime -- both must return the same
IEEE-754 bits for the injection, delivery and host-tail times and for
the occupancy bounds of every hop.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import QDR_PCIE_GEN2
from repro.sim.batch import _advance_wave

from .. import wave_reference as ref

CALS = (QDR_PCIE_GEN2,
        dataclasses.replace(QDR_PCIE_GEN2, name="slow-switch", mtu=4096,
                            switch_latency=0.35, wire_latency=0.0125))
CAPS = (3200.0, 4000.0, 2500.0, 1250.0, 3.0e4)
LIMITS = (None, 1, 2, 3, 5)


@st.composite
def waves(draw):
    """``(cal, limit, f0, links, length, caps, pieces, last_size)``."""
    cal = draw(st.sampled_from(CALS))
    mtu = float(cal.mtu)
    R = draw(st.integers(1, 12))
    H = draw(st.integers(2, 7))
    width = H + draw(st.integers(0, 2))  # callers pass wider route arrays
    rows = st.integers(0, R - 1)
    length = np.asarray(draw(st.lists(st.integers(2, H), min_size=R,
                                      max_size=R)), dtype=np.int64)
    length[draw(rows)] = H
    pieces = np.asarray(draw(st.lists(st.integers(1, 6), min_size=R,
                                      max_size=R)), dtype=np.int64)
    last_size = np.asarray(draw(st.lists(
        st.sampled_from([mtu, 0.5 * mtu, 0.999 * mtu, 17.0, 1.0]),
        min_size=R, max_size=R)))
    caps = np.asarray(draw(st.lists(st.sampled_from(CAPS),
                                    min_size=R * width,
                                    max_size=R * width))).reshape(R, width)
    f0 = np.asarray(draw(st.lists(
        st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False),
        min_size=R, max_size=R)))
    links = np.arange(R * width, dtype=np.int64).reshape(R, width)
    limit = draw(st.sampled_from(LIMITS))
    return cal, limit, f0, links, length, caps, pieces, last_size


def _assert_same_bits(got, want, what):
    assert got.shape == want.shape, what
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), what


def _assert_kernel_equals_reference(args):
    got = _advance_wave(*args)
    want = ref.advance_wave(*args)
    for name, g, w in zip(("inject", "finish", "host tail", "enter",
                           "exit"), got, want):
        _assert_same_bits(g, w, name)


class TestBlockedWaveKernel:
    @given(waves())
    @settings(max_examples=400, deadline=None)
    def test_equals_masked_reference(self, args):
        _assert_kernel_equals_reference(args)

    def test_uniform_block_every_credit_regime(self):
        # One block of the n324 shape: 128 packets, routes of 2 and 4
        # hops, host and switch capacities.
        rng = np.random.default_rng(7)
        R = 40
        length = rng.choice([2, 4], R)
        caps = np.where(np.arange(4)[None, :] % 3 == 0, 3200.0, 4000.0
                        ) * np.ones((R, 1))
        f0 = rng.random(R) * 10
        links = np.zeros((R, 4), dtype=np.int64)
        pieces = np.full(R, 128)
        last_size = np.full(R, 2048.0)
        for limit in LIMITS + (4, 7):
            _assert_kernel_equals_reference(
                (QDR_PCIE_GEN2, limit, f0, links, length, caps, pieces,
                 last_size))

    def test_ragged_blocks_under_credits(self):
        # Several blocks, each with several lengths, more packets than
        # credits: every guard and slice boundary of the kernel runs.
        rng = np.random.default_rng(11)
        R = 30
        length = rng.integers(2, 7, R)
        pieces = rng.integers(1, 9, R)
        caps = rng.choice(CAPS, (R, 6))
        f0 = rng.random(R) * 50
        links = np.zeros((R, 6), dtype=np.int64)
        last_size = rng.choice([2048.0, 700.0, 1.0], R)
        for limit in LIMITS:
            _assert_kernel_equals_reference(
                (QDR_PCIE_GEN2, limit, f0, links, length, caps, pieces,
                 last_size))



@st.composite
def long_trains(draw):
    """Waves whose packet trains are long against the credit limit.

    ``pieces`` reaches ``3*limit + 2``, so packets wait on the credits
    of packets several places ahead and the kernel's tail ring wraps
    many times; limit 1 runs its two-step skew.  Some rows cross only
    very fast links, where ``limit`` packets serialise in less than a
    hop's header latency, so a credit wrongly read past a route's end
    can bind.
    """
    cal = draw(st.sampled_from(CALS))
    mtu = float(cal.mtu)
    limit = draw(st.sampled_from((None, 1, 2, 3, 4, 5)))
    top = 3 * (limit or 5) + 2
    R = draw(st.integers(1, 10))
    H = draw(st.integers(2, 7))
    ints = lambda lo, hi: draw(st.lists(  # noqa: E731
        st.integers(lo, hi), min_size=R, max_size=R))
    length = np.asarray(ints(2, H), dtype=np.int64)
    length[draw(st.integers(0, R - 1))] = H
    pieces = np.asarray(ints(1, top), dtype=np.int64)
    pieces[draw(st.integers(0, R - 1))] = top
    last_size = np.asarray(draw(st.lists(
        st.sampled_from([mtu, 0.5 * mtu, 17.0, 1.0]), min_size=R,
        max_size=R)))
    caps = np.asarray(draw(st.lists(st.sampled_from(CAPS), min_size=R * H,
                                    max_size=R * H))).reshape(R, H)
    fast = np.asarray(draw(st.lists(st.booleans(), min_size=R,
                                    max_size=R)))
    caps[fast] = 1.0e6
    f0 = np.asarray(draw(st.lists(
        st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
        min_size=R, max_size=R)))
    links = np.arange(R * H, dtype=np.int64).reshape(R, H)
    return cal, limit, f0, links, length, caps, pieces, last_size


@given(long_trains())
@settings(max_examples=300, deadline=None)
def test_long_trains_equal_masked_reference(args):
    _assert_kernel_equals_reference(args)
