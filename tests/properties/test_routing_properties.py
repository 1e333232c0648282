"""Property-based tests: the paper's theorems over random RLFT-class
fabrics -- D-Mod-K stays congestion-free on Shift for *any* valid
constant-CBB tree, not just the hand-picked evaluation topologies --
and the one vectorised route walk against the scalar ``trace_route``
oracle on generated tables, repaired and hostile ones included."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    down_port_destination_counts,
    sequence_hsd,
    stage_max_hsd,
    walk_flow_links,
)
from repro.check import flow_valleys
from repro.collectives import hierarchical_recursive_doubling, shift
from repro.fabric import ForwardingTables, Routes, build_fabric
from repro.ordering import physical_placement, topology_order
from repro.routing import (
    RoutingError,
    channel_dependencies,
    down_port_destinations,
    route_dmodk,
    route_minhop,
    route_random,
    trace_route,
)
from repro.routing.repair import REPAIR_STRATEGIES, repair_tables
from repro.sim import BatchSpec, PacketSimulator, ScenarioSpec, run_batch
from repro.topology import pgft

from .test_topology_properties import cbb_specs, pgft_specs


def _small(spec, limit=120):
    return spec.num_endports <= limit and spec.num_endports >= 2


class TestTheorem1:
    @given(cbb_specs())
    @settings(max_examples=30, deadline=None)
    def test_shift_hsd_one(self, spec):
        if not _small(spec):
            return
        tables = route_dmodk(build_fabric(spec))
        n = spec.num_endports
        rep = sequence_hsd(tables, shift(n), topology_order(n))
        assert rep.congestion_free, spec

    @given(cbb_specs(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_single_stage_permutation_hsd_one(self, spec, data):
        # Any constant-displacement permutation (not only the Shift
        # stages we enumerate) is clean: draw a random displacement.
        if not _small(spec):
            return
        n = spec.num_endports
        s = data.draw(st.integers(1, n - 1))
        tables = route_dmodk(build_fabric(spec))
        src = np.arange(n)
        assert stage_max_hsd(tables, src, (src + s) % n) == 1


class TestTheorem2:
    @given(cbb_specs())
    @settings(max_examples=15, deadline=None)
    def test_one_destination_per_down_port(self, spec):
        if not _small(spec, limit=60):
            return
        tables = route_dmodk(build_fabric(spec))
        assert down_port_destination_counts(tables).max() <= 1


class TestTheorem3:
    @given(cbb_specs())
    @settings(max_examples=25, deadline=None)
    def test_hierarchical_rd_hsd_one(self, spec):
        if not _small(spec):
            return
        tables = route_dmodk(build_fabric(spec))
        n = spec.num_endports
        cps = hierarchical_recursive_doubling(spec)
        rep = sequence_hsd(tables, cps, topology_order(n))
        assert rep.congestion_free, spec


class TestPartialPopulations:
    @given(cbb_specs(), st.data())
    @settings(max_examples=20, deadline=None)
    def test_skip_semantics_hsd_one(self, spec, data):
        if not _small(spec):
            return
        n = spec.num_endports
        if n < 4:
            return
        excluded = data.draw(st.integers(1, n // 2))
        rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
        active = np.sort(rng.permutation(n)[: n - excluded])
        tables = route_dmodk(build_fabric(spec))
        slots = physical_placement(active, n)
        rep = sequence_hsd(tables, shift(n), slots)
        assert rep.congestion_free, spec


class TestGenericRouters:
    @given(cbb_specs())
    @settings(max_examples=15, deadline=None)
    def test_minhop_reaches_everything(self, spec):
        if not _small(spec, limit=80):
            return
        tables = route_minhop(build_fabric(spec))
        hops = tables.paths_matrix()
        assert (hops >= 0).all()
        assert hops.max() <= 2 * spec.h + 1


# ----------------------------------------------------------------------
# The one route walk against the scalar oracle
# ----------------------------------------------------------------------

def _fault_kind(exc):
    """The :class:`Routes` fault code a ``trace_route`` error names."""
    text = str(exc)
    if "dead cable" in text:
        return Routes.DEAD_CABLE
    if "dead end" in text:
        return Routes.UNROUTED
    assert "exceeded" in text, text
    return Routes.LOOP


def _trace(tables, s, d):
    """``(fault, links)`` of one route from ``trace_route`` at the
    walk's hop limit.  A faulted route reports how many links it crossed
    before the fault: the smallest hop budget that still reaches it."""
    budget = tables.hop_limit + 1
    try:
        return Routes.ARRIVED, trace_route(tables, s, d, max_hops=budget)
    except RoutingError as exc:
        kind = _fault_kind(exc)
    if kind == Routes.LOOP:
        return kind, budget
    for m in range(1, budget + 1):
        try:
            trace_route(tables, s, d, max_hops=m)
        except RoutingError as exc:
            if _fault_kind(exc) == kind:
                return kind, m
    raise AssertionError("fault vanished")  # pragma: no cover


def _expected_fault_text(traces):
    """The walker's error text for the earliest fault, or ``None``."""
    faults = [(n, kind, r) for r, (kind, n) in enumerate(traces)
              if kind != Routes.ARRIVED]
    if not faults:
        return None
    n, kind, r = min(faults)
    if kind == Routes.LOOP:
        return "routing loop: flows did not terminate"
    if kind == Routes.DEAD_CABLE:
        return f"flow {r} walked into a dead cable"
    return f"flow {r} hit an unrouted destination"


def _raises_text(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _hostile(tables, kind, rng):
    """``tables`` with one hostile edit (or ``None`` when the fabric has
    nowhere to put it)."""
    fab = tables.fabric
    N = fab.num_endports
    lvl = fab.node_level
    goes_up = fab.port_goes_up()
    sw = tables.switch_out.copy()
    d = int(rng.integers(N))
    if kind == "dead":
        live = np.flatnonzero(fab.port_peer >= 0)
        g = int(live[rng.integers(len(live))])
        return ForwardingTables(fab.with_failed_cables([g]), sw,
                                tables.host_up)
    if kind == "minus1":
        sw[rng.integers(fab.num_switches), d] = -1
        return ForwardingTables(fab, sw, tables.host_up)
    if kind == "loop":
        # a switch bounces d to a parent, the parent sends it back down
        rows = [r for r in range(fab.num_switches)
                if goes_up[fab.ports_of(N + r)].any()]
        if not rows:
            return None
        r = rows[rng.integers(len(rows))]
        ups = fab.ports_of(N + r)[goes_up[fab.ports_of(N + r)]]
        g = int(ups[rng.integers(len(ups))])
        sw[r, d] = g
        sw[int(fab.peer_node[g]) - N, d] = int(fab.port_peer[g])
        return ForwardingTables(fab, sw, tables.host_up)
    # valley: a switch above the leaves sends d down a wrong child
    # (only a switch with a live down cable left can do that)
    def live_downs(r):
        ports = fab.ports_of(N + r)
        return ports[~goes_up[ports] & (fab.port_peer[ports] >= 0)]
    rows = [r for r in range(fab.num_switches)
            if lvl[N + r] >= 2 and len(live_downs(r))]
    if not rows:
        return None
    r = rows[rng.integers(len(rows))]
    downs = live_downs(r)
    sw[r, d] = int(downs[rng.integers(len(downs))])
    return ForwardingTables(fab, sw, tables.host_up)


@st.composite
def walk_cases(draw):
    """Small PGFT/RLFT tables from every router, repaired or edited."""
    spec = draw(st.one_of(pgft_specs(max_levels=3, max_digit=3),
                          cbb_specs(max_levels=2)))
    fab = build_fabric(spec)
    if not 2 <= fab.num_endports <= 36:
        return None
    router = draw(st.sampled_from(["dmodk", "minhop", "random", "repair"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    base = route_dmodk(fab)
    if router == "minhop":
        tables = route_minhop(fab)
    elif router == "random":
        tables = route_random(fab, seed=int(rng.integers(1000)))
    elif router == "repair":
        live = np.flatnonzero(fab.port_peer >= 0)
        g = int(live[rng.integers(len(live))])
        strategy = draw(st.sampled_from(sorted(REPAIR_STRATEGIES)))
        tables = repair_tables(base, fab.with_failed_cables([g]),
                               strategy=strategy).tables
    else:
        tables = base
    edit = draw(st.sampled_from(["none", "dead", "minus1", "loop",
                                 "valley"]))
    if edit != "none":
        tables = _hostile(tables, edit, rng) or tables
    return tables


class TestRouteWalkOracle:
    """:meth:`ForwardingTables.walk` and every view over it equal
    brute-force answers built from the scalar ``trace_route``."""

    @given(walk_cases())
    @settings(max_examples=100, deadline=None)
    def test_views_equal_scalar_traces(self, tables):
        if tables is None:
            return
        fab = tables.fabric
        N = fab.num_endports
        src, dst = np.divmod(np.arange(N * N), N)
        routes = tables.flow_routes(src, dst)
        traces = [(Routes.ARRIVED, []) if s == d else _trace(tables, s, d)
                  for s, d in zip(src.tolist(), dst.tolist())]
        kinds = [k for k, _ in traces]

        # the kernel, row by row
        assert routes.fault.tolist() == kinds
        for r, (kind, path) in enumerate(traces):
            n = len(path) if kind == Routes.ARRIVED else path
            assert routes.length[r] == n
            if kind == Routes.ARRIVED:
                row = routes.links[r]
                assert row[:n].tolist() == path
                assert (row[n:] == -1).all()

        # paths_matrix: route length, or -1 on a fault
        want = np.array([len(p) if k == Routes.ARRIVED else -1
                         for k, p in traces]).reshape(N, N)
        assert np.array_equal(tables.paths_matrix(), want)

        err = _expected_fault_text([(k, len(p) if k == Routes.ARRIVED
                                     else p) for k, p in traces])
        assert _raises_text(walk_flow_links, tables, src, dst) == err
        assert _raises_text(flow_valleys, tables, src, dst) == err
        assert _raises_text(channel_dependencies, tables) == err
        assert _raises_text(down_port_destination_counts, tables) == err
        if err is not None:
            return
        paths = [p for _, p in traces]

        # walk_flow_links: (flow, gport) of every hop, hop-major
        longest = max(map(len, paths))
        want_f = [r for k in range(longest) for r, p in enumerate(paths)
                  if len(p) > k]
        want_g = [paths[r][k] for k in range(longest)
                  for r, p in enumerate(paths) if len(p) > k]
        flow_idx, gports = walk_flow_links(tables, src, dst)
        assert flow_idx.tolist() == want_f
        assert gports.tolist() == want_g

        # flow_valleys: a hop ascends after an earlier hop descended
        lvl = fab.node_level

        def step(g):
            return int(lvl[fab.peer_node[g]]) - int(lvl[fab.port_owner[g]])

        def has_valley(path):
            steps = [step(g) for g in path]
            return any(s > 0 and any(t < 0 for t in steps[:i])
                       for i, s in enumerate(steps))

        assert flow_valleys(tables, src, dst).tolist() == \
            [r for r, p in enumerate(paths) if has_valley(p)]

        # channel_dependencies: consecutive hops of every route
        assert channel_dependencies(tables) == {
            (p[i], p[i + 1]) for p in paths for i in range(len(p) - 1)}

        # down_port_destination_counts: distinct destinations per down link
        dests: dict[int, set[int]] = {}
        for (s, d), p in zip(zip(src.tolist(), dst.tolist()), paths):
            for g in p:
                if step(g) < 0:
                    dests.setdefault(g, set()).add(d)
        want_c = np.zeros(fab.num_ports, dtype=np.int64)
        for g, ds in dests.items():
            want_c[g] = len(ds)
        counts = down_port_destination_counts(tables)
        assert np.array_equal(counts, want_c)
        assert np.array_equal(counts, down_port_destinations(tables))


def _double_valley(tables, src, dst):
    """Re-point entries of a two-level tree so ``src -> dst`` takes two
    valleys: eight links, loop-free, and longer than the old walkers'
    ``2h + 3``-link bound."""
    fab = tables.fabric
    N = fab.num_endports
    sw = tables.switch_out.copy()

    def port(a, b):
        return next(int(g) for g in fab.ports_of(a) if fab.peer_node[g] == b)

    leaf = [int(fab.peer_node[fab.port_start[h]]) for h in range(N)]
    leaves = list(dict.fromkeys([leaf[src]] + leaf))
    leaves.remove(leaf[dst])
    spines = [s for s in range(N, fab.num_nodes) if fab.node_level[s] == 2]
    first = int(fab.peer_node[sw[leaf[src] - N, dst]])
    spines.remove(first)
    hops = [first, leaves[1], spines[0], leaves[2], spines[1], leaf[dst]]
    for a, b in zip(hops, hops[1:]):
        sw[a - N, dst] = port(a, b)
    return ForwardingTables(fab, sw, tables.host_up)


class TestHopBound:
    """One hop limit, ``2h + 4`` forwarding steps, for every view."""

    def test_long_loop_free_route_is_walked(self):
        tables = route_dmodk(build_fabric(pgft(2, [4, 4], [1, 4], [1, 1])))
        long = _double_valley(tables, 0, 15)
        path = trace_route(long, 0, 15)
        assert len(path) == 8 == 2 * 2 + 4
        flow_idx, gports = walk_flow_links(long, np.array([0]),
                                           np.array([15]))
        assert gports.tolist() == path
        assert long.paths_matrix()[0, 15] == 8
        assert flow_valleys(long, np.array([0]), np.array([15])).tolist() \
            == [0]
        # the wave calendar walks it too instead of demoting the element
        seqs = [[] for _ in range(16)]
        seqs[0] = [(15, 4096.0)]
        res = run_batch(BatchSpec(tables=long,
                                  elements=[ScenarioSpec(sequences=seqs)]))
        assert res.statuses() == ["fast"]
        ref = PacketSimulator(long, engine="reference").run_sequences(seqs)
        assert res[0].makespan == ref.makespan

    def test_loop_stops_at_the_limit(self):
        tables = route_dmodk(build_fabric(pgft(2, [4, 4], [1, 4], [1, 1])))
        rng = np.random.default_rng(0)
        looped = _hostile(tables, "loop", rng)
        routes = looped.flow_routes(*np.divmod(np.arange(256), 16))
        stuck = routes.fault == Routes.LOOP
        assert stuck.any()
        assert (routes.length[stuck] == looped.hop_limit + 1).all()
        assert routes.links.shape[1] == looped.hop_limit + 1
