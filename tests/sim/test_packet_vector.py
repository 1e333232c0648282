"""Vectorized packet engine vs event-driven reference: bit-identical.

The vector engine (``repro.sim.batch``, a batch of one) is a reimplementation
of the packet model, not an approximation: on every run it must either
produce the *exact* float timestamps the reference core would (fast
path, proven conflict-free), or detect the conflict and fall back to
the reference core itself.  Either way the observable result is
bit-identical -- which this suite checks across the same topology, CPS
and ordering families the check suite enumerates, plus credit-limit
regimes and edge-case workloads.

Scale behaviour (n324, the paper's fabric) is asserted separately: an
ordered D-Mod-K all-to-all window must deliver full bandwidth with
every message at its analytic zero-load cut-through latency.
"""

import numpy as np
import pytest

from repro.collectives.cps import (
    binomial,
    dissemination,
    recursive_doubling,
    ring,
    shift,
)
from repro.fabric import build_fabric
from repro.ordering import random_order, topology_order
from repro.routing import route_dmodk
from repro.sim import (
    FluidSimulator,
    PacketSimulator,
    SimulationError,
    cps_workload,
)
from repro.sim.metrics import zero_load_latencies
from repro.topology import paper_topologies, pgft

TOPOLOGIES = {
    "rlft2": pgft(2, [4, 4], [1, 4], [1, 1]),
    "fig1": pgft(2, [4, 4], [1, 2], [1, 2]),
    "deep": pgft(3, [2, 2, 2], [1, 2, 2], [1, 1, 1]),
    "oblong": pgft(3, [3, 2, 4], [1, 3, 2], [1, 1, 1]),
    "multirail": pgft(2, [4, 3], [2, 4], [2, 3]),
}

CPS_FACTORIES = {
    "shift": shift,
    "ring": ring,
    "dissemination": dissemination,
    "recursive-doubling": recursive_doubling,
    "binomial": binomial,
}

SIZE = 8 * 1024.0  # 4 MTU segments: multi-packet but quick


@pytest.fixture(scope="module", params=sorted(TOPOLOGIES))
def topo_tables(request):
    spec = TOPOLOGIES[request.param]
    return route_dmodk(build_fabric(spec))


def run_both(tables, wl, **kw):
    kw.setdefault("credit_limit", 4)
    vec = PacketSimulator(tables, engine="vector", **kw).run_sequences(wl)
    ref = PacketSimulator(tables, engine="reference", **kw).run_sequences(wl)
    return vec, ref


def assert_identical(vec, ref):
    """Bit-identical observable results -- no tolerances anywhere."""
    assert np.array_equal(vec.latencies, ref.latencies)
    assert vec.makespan == ref.makespan
    assert vec.total_bytes == ref.total_bytes
    assert vec.normalized_bandwidth == ref.normalized_bandwidth
    assert vec.messages == ref.messages  # per-message start/inject/finish


@pytest.mark.parametrize("cps_name", sorted(CPS_FACTORIES))
@pytest.mark.parametrize("order_kind", ["ordered", "random"])
def test_differential_families(topo_tables, cps_name, order_kind):
    n = topo_tables.fabric.num_endports
    cps = CPS_FACTORIES[cps_name](n)
    order = (topology_order(n) if order_kind == "ordered"
             else random_order(n, seed=7))
    wl = cps_workload(cps, order, n, SIZE)
    vec, ref = run_both(topo_tables, wl)
    assert_identical(vec, ref)
    assert vec.engine_stats is not None
    # Exactly one of the two resolution modes fired.
    assert vec.engine_stats.fast_path != vec.engine_stats.fallback


@pytest.mark.parametrize("credits", [None, 2, 1])
@pytest.mark.parametrize("order_kind", ["ordered", "random"])
def test_differential_credit_regimes(credits, order_kind):
    tables = route_dmodk(build_fabric(TOPOLOGIES["fig1"]))
    n = tables.fabric.num_endports
    order = (topology_order(n) if order_kind == "ordered"
             else random_order(n, seed=11))
    wl = cps_workload(shift(n), order, n, SIZE)
    vec, ref = run_both(tables, wl, credit_limit=credits)
    assert_identical(vec, ref)


def test_fast_path_on_ordered_contention_free():
    tables = route_dmodk(build_fabric(TOPOLOGIES["rlft2"]))
    n = tables.fabric.num_endports
    wl = cps_workload(shift(n), topology_order(n), n, SIZE)
    res = PacketSimulator(tables, credit_limit=4).run_sequences(wl)
    stats = res.engine_stats
    assert stats is not None and stats.fast_path and not stats.fallback
    assert stats.conflicts == 0
    assert stats.events_saved > 0  # heap events the calendar never paid


def test_fallback_on_contended_random_order():
    tables = route_dmodk(build_fabric(TOPOLOGIES["rlft2"]))
    n = tables.fabric.num_endports
    wl = cps_workload(shift(n), random_order(n, seed=7), n, SIZE)
    vec, ref = run_both(tables, wl)
    stats = vec.engine_stats
    assert stats is not None and stats.fallback and not stats.fast_path
    assert stats.conflicts > 0
    assert_identical(vec, ref)  # fallback is the reference core itself


def test_edge_case_workload_identical():
    """Self-messages, zero-byte sends, sub-MTU and odd sizes."""
    tables = route_dmodk(build_fabric(TOPOLOGIES["fig1"]))
    n = tables.fabric.num_endports
    wl = [[] for _ in range(n)]
    wl[0] = [(0, 4096.0), (5, 100.0), (3, 0.0), (9, 2048.0)]
    wl[5] = [(2, 2049.0)]  # one full MTU + 1-byte tail
    wl[7] = [(7, 0.0)]
    vec, ref = run_both(tables, wl)
    assert_identical(vec, ref)
    assert len(vec.messages) == 6


def test_credit_starvation_hol_blocking():
    """credit_limit=1 makes convoys self-throttle (head-of-line): both
    engines must agree on the degraded schedule, and it must be slower
    than the infinite-credit run."""
    tables = route_dmodk(build_fabric(TOPOLOGIES["fig1"]))
    n = tables.fabric.num_endports
    wl = cps_workload(shift(n), topology_order(n), n, 64 * 1024.0)
    vec1, ref1 = run_both(tables, wl, credit_limit=1)
    assert_identical(vec1, ref1)
    free, _ = run_both(tables, wl, credit_limit=None)
    assert vec1.normalized_bandwidth < free.normalized_bandwidth
    assert vec1.makespan > free.makespan


def test_event_budget_enforced_by_both_engines():
    tables = route_dmodk(build_fabric(TOPOLOGIES["fig1"]))
    n = tables.fabric.num_endports
    wl = cps_workload(shift(n), topology_order(n), n, 64 * 1024.0)
    for engine in ("vector", "reference"):
        with pytest.raises(SimulationError):
            PacketSimulator(
                tables, engine=engine, max_events=100
            ).run_sequences(wl)


def test_engine_name_validated():
    tables = route_dmodk(build_fabric(TOPOLOGIES["fig1"]))
    with pytest.raises(ValueError, match="engine"):
        PacketSimulator(tables, engine="quantum")


@pytest.mark.slow
def test_n324_ordered_full_bandwidth_and_cut_through():
    """Paper scale: contention-free all-to-all window on the 324-node
    RLFT runs at the overhead-limited ideal bandwidth with *every*
    message at its analytic zero-load cut-through latency."""
    spec = paper_topologies()["n324"]
    tables = route_dmodk(build_fabric(spec))
    n = tables.fabric.num_endports
    assert n == 324
    size = 64 * 1024.0
    wl = cps_workload(shift(n, displacements=range(1, 9)),
                      topology_order(n), n, size)
    res = PacketSimulator(
        tables, max_events=50_000_000
    ).run_sequences(wl)
    stats = res.engine_stats
    assert stats is not None and stats.fast_path

    cal = PacketSimulator(tables).cal
    ideal = (size / cal.host_bandwidth) / (
        size / cal.host_bandwidth + cal.host_overhead)
    assert res.normalized_bandwidth == pytest.approx(ideal, rel=0.02)

    # Packet-vs-fluid agreement at scale: with zero contention the two
    # models must land on the same (overhead-limited) bandwidth.
    fres = FluidSimulator(tables).run_sequences(wl)
    assert res.normalized_bandwidth == pytest.approx(
        fres.normalized_bandwidth, rel=0.02)

    zl = zero_load_latencies(tables, wl, cal)
    assert res.latencies.shape == zl.shape
    # Cut-through: measured latency IS the zero-load latency (float
    # noise only) -- the paper's section-VII claim, message by message.
    np.testing.assert_allclose(res.latencies, zl, rtol=1e-9, atol=1e-6)
    assert res.mean_latency == pytest.approx(zl.mean(), rel=1e-6)
