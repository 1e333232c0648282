"""Link and host calibration constants (paper section II).

The paper's OMNeT++ model is "calibrated against InfiniBand QDR links
(4000 MBps unidirectional bandwidth) of Mellanox IS4 switches (36
ports) connected to hosts with PCIe Gen2 8X slots (supporting 3250 MBps
unidirectional bandwidth)".  We use the same numbers.

Units used throughout the simulators:

* time in **microseconds**,
* sizes in **bytes**,
* bandwidth in **bytes per microsecond** -- conveniently, 1 MB/s
  (10^6 B / 10^6 us) is 1 B/us, so QDR's 4000 MB/s is 4000 B/us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LinkCalibration", "QDR_PCIE_GEN2", "DDR_PCIE_GEN1", "EDR_PCIE_GEN3",
           "link_capacities"]


@dataclass(frozen=True)
class LinkCalibration:
    """Bandwidths and latencies of one fabric generation."""

    name: str
    link_bandwidth: float        # switch-to-switch wire, B/us
    host_bandwidth: float        # host injection/ejection (PCIe), B/us
    switch_latency: float = 0.1  # cut-through port-to-port, us (IS4 ~100ns)
    wire_latency: float = 0.025  # copper cable propagation, us (~5 m)
    host_overhead: float = 1.0   # per-message software/DMA setup, us
    mtu: int = 2048              # bytes per packet (IB MTU)

    def __post_init__(self) -> None:
        # Comparisons written so that NaN fails them.  The simulators
        # cannot run a negative latency (an arrival before its transmit
        # starts) and rely on every time being finite.
        if not (0 < self.link_bandwidth < math.inf
                and 0 < self.host_bandwidth < math.inf):
            raise ValueError("bandwidths must be positive and finite")
        for field in ("switch_latency", "wire_latency", "host_overhead"):
            value = getattr(self, field)
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"{field} must be non-negative and finite, got {value!r}")
        if not (1 <= self.mtu < math.inf and float(self.mtu).is_integer()):
            raise ValueError(f"mtu must be whole bytes >= 1, got {self.mtu!r}")

    @property
    def min_bandwidth(self) -> float:
        """The end-to-end bottleneck of an uncontended flow."""
        return min(self.link_bandwidth, self.host_bandwidth)

    def wire_time(self, nbytes: int | float) -> float:
        """Serialisation time of ``nbytes`` on a switch link."""
        return nbytes / self.link_bandwidth

    def host_time(self, nbytes: int | float) -> float:
        """Serialisation time of ``nbytes`` through the host interface."""
        return nbytes / self.host_bandwidth

    def zero_load_latency(self, nbytes: int, hops: int) -> float:
        """Cut-through latency of one uncontended message over ``hops``
        switch traversals: overhead + per-hop header latency + single
        serialisation at the bottleneck."""
        per_hop = self.switch_latency + self.wire_latency
        return self.host_overhead + hops * per_hop + nbytes / self.min_bandwidth


#: The paper's setup: IB QDR + PCIe Gen2 x8 hosts (section II).
QDR_PCIE_GEN2 = LinkCalibration(
    name="QDR/PCIe-Gen2x8", link_bandwidth=4000.0, host_bandwidth=3250.0
)

#: An older generation, handy for sensitivity studies.
DDR_PCIE_GEN1 = LinkCalibration(
    name="DDR/PCIe-Gen1x8", link_bandwidth=2000.0, host_bandwidth=1600.0
)

#: A newer generation where the host is no longer the bottleneck.
EDR_PCIE_GEN3 = LinkCalibration(
    name="EDR/PCIe-Gen3x16", link_bandwidth=12000.0, host_bandwidth=12800.0
)


def link_capacities(fabric, calibration: LinkCalibration) -> np.ndarray:
    """Serialisation bandwidth per global port, read by every simulator:
    injection at host rate, ejection at the slower of host and wire."""
    N = fabric.num_endports
    cap = np.full(fabric.num_ports, calibration.link_bandwidth)
    cap[fabric.port_owner < N] = calibration.host_bandwidth
    into_host = (fabric.peer_node >= 0) & (fabric.peer_node < N)
    cap[into_host] = np.minimum(cap[into_host], calibration.host_bandwidth)
    return cap
