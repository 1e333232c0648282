"""Calibration constants and derived timings."""

import dataclasses
import math

import pytest

from repro.sim import DDR_PCIE_GEN1, EDR_PCIE_GEN3, QDR_PCIE_GEN2, LinkCalibration


def test_paper_numbers():
    # Section II: QDR 4000 MB/s links, PCIe Gen2 x8 hosts at 3250 MB/s.
    assert QDR_PCIE_GEN2.link_bandwidth == 4000.0
    assert QDR_PCIE_GEN2.host_bandwidth == 3250.0
    assert QDR_PCIE_GEN2.mtu == 2048


def test_min_bandwidth_is_bottleneck():
    assert QDR_PCIE_GEN2.min_bandwidth == 3250.0
    assert EDR_PCIE_GEN3.min_bandwidth == 12000.0  # wire-bound generation


def test_wire_and_host_time():
    assert QDR_PCIE_GEN2.wire_time(4000) == pytest.approx(1.0)
    assert QDR_PCIE_GEN2.host_time(3250) == pytest.approx(1.0)


def test_zero_load_latency_monotone_in_hops_and_size():
    small = QDR_PCIE_GEN2.zero_load_latency(2048, hops=2)
    more_hops = QDR_PCIE_GEN2.zero_load_latency(2048, hops=6)
    bigger = QDR_PCIE_GEN2.zero_load_latency(1 << 20, hops=2)
    assert small < more_hops < bigger


def test_validation():
    with pytest.raises(ValueError):
        LinkCalibration("bad", link_bandwidth=0, host_bandwidth=1)
    with pytest.raises(ValueError):
        LinkCalibration("bad", link_bandwidth=1, host_bandwidth=1, mtu=0)


@pytest.mark.parametrize("bandwidth", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("field", ["link_bandwidth", "host_bandwidth"])
def test_rejects_bad_bandwidths(field, bandwidth):
    with pytest.raises(ValueError, match="bandwidths"):
        dataclasses.replace(QDR_PCIE_GEN2, **{field: bandwidth})


@pytest.mark.parametrize("value", [-0.5, -1e-10, math.nan, math.inf,
                                   -math.inf])
@pytest.mark.parametrize("field", ["switch_latency", "wire_latency",
                                   "host_overhead"])
def test_rejects_negative_or_non_finite_latencies(field, value):
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(QDR_PCIE_GEN2, **{field: value})


@pytest.mark.parametrize("mtu", [0, -1, math.nan, math.inf, 2048.5])
def test_rejects_bad_mtu(mtu):
    with pytest.raises(ValueError, match="mtu"):
        dataclasses.replace(QDR_PCIE_GEN2, mtu=mtu)


def test_accepts_zero_latencies():
    cal = dataclasses.replace(QDR_PCIE_GEN2, switch_latency=0.0,
                              wire_latency=0.0, host_overhead=0.0)
    assert cal.zero_load_latency(2048, hops=2) == 2048 / 3250.0


def test_generations_ordered():
    assert DDR_PCIE_GEN1.min_bandwidth < QDR_PCIE_GEN2.min_bandwidth \
        < EDR_PCIE_GEN3.min_bandwidth
