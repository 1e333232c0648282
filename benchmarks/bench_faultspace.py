"""Fault-space sweep: incremental delta vs cold re-certification.

The whole point of building the fault-space analyzer on the symbolic
certifier's link-failure delta (``recertify_link_failure`` and the
lookup index it caches on the healthy case state): certifying 675
degraded n324 fabrics (every cable, every switch) must cost *deltas*,
not 675 cold certifications.  The cold engine re-walks every flow of every stage
per fault; the incremental engine batch-rewalks only the flows whose
healthy path crossed a dead cable (repair locality guarantees those
are the only ones that can move) and patches the healthy per-stage
link-load maxima sparsely.

The asserted ratio (>= 10x, routinely higher) is tabulated in
``artifacts/BENCH_faultspace.json`` together with the differential
check: both engines must produce bit-identical verdicts, stage maxima
and counterexamples across the full single-fault space.

The repair in front of it is fault-local too: the degraded distance
field reuses the healthy one cached on the fabric and re-runs BFS only
for the destinations a fault can change.  ``test_repair_distances_n324``
holds that field equal to a cold BFS on every single fault and >= 5x
faster, as the median of interleaved per-fault pairs.
"""

import statistics
import time

import numpy as np
import pytest

from repro.check.faultspace import (
    certify_prepared,
    enumerate_fault_units,
    prepare_fault_cases,
    sample_fault_combos,
)
from repro.experiments.common import sampled_shift
from repro.fabric import build_fabric
from repro.ordering import topology_subset
from repro.routing import bfs_distances, route_dmodk
from repro.routing.repair import repair_distances
from repro.topology import paper_topologies

EXCLUDE = 36          # Cont.-288 job: idle capacity worth certifying
MAX_SHIFT_STAGES = 128
MIN_DISTANCE_SPEEDUP = 5


@pytest.fixture(scope="module")
def sweep324():
    spec = paper_topologies()["n324"]
    fab = build_fabric(spec)
    active = topology_subset(fab.num_endports, EXCLUDE, seed=0)
    tables = route_dmodk(fab, active=active)
    cps = sampled_shift(len(active), MAX_SHIFT_STAGES)
    placement = np.sort(np.asarray(active, dtype=np.int64))
    units = enumerate_fault_units(fab, units="both")
    combos = sample_fault_combos(units, max_faults=1, samples=0, seed=0)
    prepared = prepare_fault_cases(tables, combos, strategy="balanced",
                                   active=active, check_valleys=False)
    return tables, cps, placement, active, prepared


def test_incremental_sweep_vs_cold_n324(benchmark, sweep324):
    """The headline ratio: sweeping all 675 single faults of n324 via
    the symbolic delta cache must beat cold re-certification >= 10x,
    with bit-identical results."""
    tables, cps, placement, active, prepared = sweep324
    assert len(prepared) == 675       # 648 cables + 27 switches

    t0 = time.perf_counter()
    cold = certify_prepared(tables, prepared, cps, placement,
                            active=active, engine="cold")
    t_cold = time.perf_counter() - t0

    t0 = time.perf_counter()
    inc = benchmark.pedantic(
        certify_prepared, args=(tables, prepared, cps, placement),
        kwargs=dict(active=active, engine="incremental"),
        rounds=1, iterations=1)
    t_inc = time.perf_counter() - t0

    # Differential: the delta engine must be invisible in the results.
    assert len(inc.records) == len(cold.records) == 675
    for a, b in zip(inc.records, cold.records):
        assert a.verdict == b.verdict, a.label
        assert a.stage_maxima == b.stage_maxima, a.label
        assert a.violation == b.violation, a.label
    # Full coverage: every fault gets a verdict (certificate, minimal
    # counterexample, or job-relevant disconnection).
    assert all(r.verdict in ("contention-free", "refuted", "disconnected")
               for r in inc.records)

    speedup = t_cold / t_inc
    benchmark.extra_info["num_faults"] = len(prepared)
    benchmark.extra_info["num_stages"] = len(cps.stages)
    benchmark.extra_info["cold_s"] = round(t_cold, 3)
    benchmark.extra_info["incremental_s"] = round(t_inc, 3)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["verdicts"] = inc.verdict_counts()
    benchmark.extra_info["certified_fraction"] = round(
        inc.certified_fraction, 4)
    benchmark.extra_info["stages_touched"] = inc.stages_touched
    benchmark.extra_info["flows_recomputed"] = inc.flows_recomputed
    assert speedup >= 10, (t_cold, t_inc)


def test_incremental_sweep_throughput_n324(benchmark, sweep324):
    """Steady-state incremental sweep cost (the number an operator
    pays to re-audit the whole single-fault space after a config
    change)."""
    tables, cps, placement, active, prepared = sweep324
    result = benchmark.pedantic(
        certify_prepared, args=(tables, prepared, cps, placement),
        kwargs=dict(active=active, engine="incremental"),
        rounds=3, iterations=1)
    benchmark.extra_info["faults_per_run"] = len(prepared)
    benchmark.extra_info["verdicts"] = result.verdict_counts()
    assert len(result.records) == len(prepared)


def test_repair_distances_n324(benchmark):
    """The fault-local distance field equals a cold BFS on all 675
    single faults of n324, and is >= 5x faster: the median of the
    per-fault time ratios, cold and cached runs interleaved with the
    first of each pair alternating."""
    fab = build_fabric(paper_topologies()["n324"])
    dests = np.arange(fab.num_endports)
    degraded = [fab.with_failed_cables(list(u.gports))
                for u in enumerate_fault_units(fab, units="both")]
    assert len(degraded) == 675
    repair_distances(fab, fab)            # fill the healthy cache
    ratios, columns = [], []
    for i, deg in enumerate(degraded):
        times = [0.0, 0.0]
        for k in ((0, 1) if i % 2 == 0 else (1, 0)):
            t0 = time.perf_counter()
            if k:
                local, cols = repair_distances(fab, deg)
            else:
                cold = bfs_distances(deg, dests)
            times[k] = time.perf_counter() - t0
        assert np.array_equal(local, cold), i
        ratios.append(times[0] / times[1])
        columns.append(len(cols))

    def sweep():
        for deg in degraded:
            repair_distances(fab, deg)

    benchmark.pedantic(sweep, rounds=3, iterations=1)
    speedup = statistics.median(ratios)
    benchmark.extra_info["num_faults"] = len(degraded)
    benchmark.extra_info["median_pair_speedup"] = round(speedup, 1)
    benchmark.extra_info["destinations_recomputed"] = {
        str(c): columns.count(c) for c in sorted(set(columns))}
    assert speedup >= MIN_DISTANCE_SPEEDUP, speedup
