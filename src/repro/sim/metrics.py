"""Derived simulation metrics: ideal baselines and efficiency ratios.

The paper reports *normalized effective bandwidth*: measured bytes/time
against the full PCIe host bandwidth.  For latency-dominated regimes it
is also useful to compare against the *ideal* (zero-contention) run of
the same workload, which these helpers compute analytically.
"""

from __future__ import annotations

import numpy as np

from .calibration import LinkCalibration, link_capacities
from .records import sequence_columns

__all__ = [
    "ideal_sequence_time",
    "efficiency",
    "bandwidth_lower_bound",
    "link_byte_loads",
    "utilization_report",
    "zero_load_latencies",
]


def ideal_sequence_time(
    sequences: list[list[tuple[int, float]]],
    calibration: LinkCalibration,
) -> float:
    """Zero-contention makespan: the slowest port running its sequence
    back-to-back at full host bandwidth with per-message overhead."""
    worst = 0.0
    for seq in sequences:
        t = sum(
            calibration.host_overhead + size / calibration.min_bandwidth
            for _, size in seq
        )
        worst = max(worst, t)
    return worst


def efficiency(makespan: float, sequences, calibration: LinkCalibration) -> float:
    """Measured vs. ideal makespan (1.0 = contention-free)."""
    ideal = ideal_sequence_time(sequences, calibration)
    return ideal / makespan if makespan > 0 else 0.0


def link_byte_loads(tables, sequences) -> np.ndarray:
    """Total bytes each directed link carries for a workload.

    Routing is deterministic, so the per-link byte totals are exact
    regardless of timing -- this is the post-hoc companion of a fluid
    run, giving time-averaged utilisation when divided by
    ``capacity * makespan``.
    """
    from ..analysis.hsd import _count_links

    src, dst, size = _messages(sequences)
    loads, routes, _, _ = _count_links(tables, src, dst, weights=size)
    routes.raise_fault()
    return loads[0].astype(np.float64)  # bincount of nothing is int


def _messages(sequences) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, size)`` of every message that crosses the fabric
    (not to itself, not empty), by source port then sequence position."""
    src, dst, size = sequence_columns(sequences)
    real = (src != dst) & (size > 0)
    return src[real], dst[real], size[real]


def utilization_report(tables, sequences, makespan: float,
                       calibration: LinkCalibration,
                       top: int = 10) -> str:
    """Text report of the hottest links' time-averaged utilisation."""
    fab = tables.fabric
    loads = link_byte_loads(tables, sequences)
    cap = link_capacities(fab, calibration)
    util = loads / (cap * max(makespan, 1e-12))
    order = np.argsort(-util)[:top]
    lines = [f"time-averaged link utilisation over {makespan:.1f} us "
             f"(top {top}):"]
    for gp in order:
        if util[gp] <= 0:
            break
        owner = int(fab.port_owner[gp])
        peer = int(fab.peer_node[gp])
        local = int(gp - fab.port_start[owner])
        lines.append(
            f"  {util[gp]:6.1%}  {fab.node_names[owner]}[{local}]"
            f" -> {fab.node_names[peer]}"
        )
    return "\n".join(lines)


def zero_load_latencies(
    tables, sequences, calibration: LinkCalibration
) -> np.ndarray:
    """Analytic zero-load cut-through latency of every routed message.

    Uses each message's *actual* hop count (same-leaf destinations are
    cheaper than cross-spine ones), so the array is the per-message
    floor a contention-free packet run should sit on -- the paper's
    section-VII criterion made testable: on an ordered D-Mod-K fabric,
    measured latencies match these values to within float pacing noise.

    Ordered like :attr:`PacketResult.latencies` (by source port, then
    sequence position; self and zero-byte messages excluded).
    """
    src, dst, size = _messages(sequences)
    if not len(src):
        return np.empty(0)
    hops = tables.paths_matrix()[src, dst]
    if (hops < 0).any():
        raise ValueError("workload contains unroutable destinations")
    # hops counts traversed links; switches traversed = links - 1.  The
    # tail crosses the ejection link once more after the header lands
    # (the packet model serialises ejection at the PCIe-limited rate).
    return (
        calibration.host_overhead
        + hops * calibration.wire_latency
        + (hops - 1) * calibration.switch_latency
        + size / calibration.min_bandwidth
    )


def bandwidth_lower_bound(
    max_hsd: float, calibration: LinkCalibration
) -> float:
    """Normalized bandwidth implied by a sustained hot-spot degree: a
    link shared by ``max_hsd`` flows caps each at ``1/max_hsd`` of wire
    speed (the section-II ring-adversary arithmetic: 4000/18 = 222 MB/s,
    7.1 % of PCIe blue-sky bandwidth after normalisation)."""
    if max_hsd < 1:
        return 1.0
    per_flow = calibration.link_bandwidth / max_hsd
    return min(1.0, per_flow / calibration.host_bandwidth)
