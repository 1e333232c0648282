"""One per-link capacity rule for every simulator and report."""

import re

import numpy as np

from repro.fabric import build_fabric
from repro.routing import route_dmodk
from repro.sim import FluidSimulator
from repro.sim.calibration import QDR_PCIE_GEN2
from repro.sim.metrics import utilization_report
from repro.topology import pgft


def _tables():
    return route_dmodk(build_fabric(pgft(2, [4, 4], [1, 2], [1, 2])))


def test_utilization_counts_ejection_at_host_rate():
    """A lone message loads its injection and ejection links alike:
    both carry the same bytes at the PCIe-limited host rate."""
    tables = _tables()
    seqs = [[] for _ in range(tables.fabric.num_endports)]
    seqs[0] = [(1, 1e6)]
    res = FluidSimulator(tables).run_sequences(seqs)
    text = utilization_report(tables, seqs, res.makespan, QDR_PCIE_GEN2)
    util = dict((link, pct) for pct, link in re.findall(
        r"^\s+([\d.]+)%\s+(.+)$", text, flags=re.M))
    assert util["H0000[0] -> SW1-0000"] == util["SW1-0000[1] -> H0001"]


def test_fluid_reads_the_shared_rule():
    from repro.sim.calibration import link_capacities

    tables = _tables()
    fab = tables.fabric
    cap = link_capacities(fab, QDR_PCIE_GEN2)
    assert np.array_equal(FluidSimulator(tables).capacity, cap)
    touches_host = (fab.port_owner < fab.num_endports) \
        | ((fab.peer_node >= 0) & (fab.peer_node < fab.num_endports))
    assert (cap[touches_host] == QDR_PCIE_GEN2.host_bandwidth).all()
    assert (cap[~touches_host] == QDR_PCIE_GEN2.link_bandwidth).all()
