"""The table-native routing lint against its all-pairs reference.

Every all-pairs pass reads the tables per ``(first switch, destination)``
entry (:class:`repro.fabric.lft.EntryRoutes`); ``tests/lint_reference.py``
keeps the brute-force bodies that walk every ``(src, dst)`` pair.  On
generated tables -- every router, repaired or hostile (dead cables,
``-1`` entries, loops, valleys), single- and multi-rail hosts -- with
partial active sets, sampled and strict up-down passes, both sides must
emit the same diagnostics, publish the same artifacts and raise the
same errors.  ``bfs_distances`` must equal the end-port-rooted BFS on
degraded fabrics, isolated hosts and multi-rail hosts.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import down_port_destination_counts
from repro.check import (
    CdgCyclePass,
    CheckContext,
    DiagnosticReport,
    DownPortBalancePass,
    MinimalityPass,
    ReachabilityPass,
    UpDownPass,
    UpPortBalancePass,
)
from repro.fabric import ForwardingTables, build_fabric
from repro.routing import (
    acyclic,
    bfs_distances,
    channel_dependencies,
    dependency_edges,
    find_cycle,
    route_dmodk,
    route_minhop,
    route_random,
)
from repro.routing.repair import REPAIR_STRATEGIES, repair_tables
from repro.topology import pgft

from .. import lint_reference as ref
from .test_routing_properties import _hostile, walk_cases
from .test_topology_properties import cbb_specs, pgft_specs


@st.composite
def multirail_cases(draw):
    """Small PGFTs whose hosts have two or three up-ports, routed by
    every router, repaired or edited; some with a random rail choice
    per (src, dst)."""
    h = draw(st.integers(1, 2))
    m = [draw(st.integers(1, 3)) for _ in range(h)]
    w = [draw(st.integers(2, 3))] + [draw(st.integers(1, 2))
                                      for _ in range(h - 1)]
    p = [1] * h
    fab = build_fabric(pgft(h, m, w, p))
    if not 2 <= fab.num_endports <= 36:
        return None
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    router = draw(st.sampled_from(["dmodk", "minhop", "random", "repair"]))
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
    if draw(st.booleans()):
        N = fab.num_endports
        rails = np.diff(fab.port_start[:N + 1])
        host_up = (rng.integers(0, 1 << 16, size=(N, N))
                   % rails[:, None]).astype(np.int32)
        tables = ForwardingTables(tables.fabric, tables.switch_out, host_up)
    edit = draw(st.sampled_from(["none", "dead", "minus1", "loop",
                                 "valley"]))
    fab = tables.fabric
    live_down = (fab.port_peer >= 0) & ~fab.port_goes_up() \
        & (fab.node_level[fab.port_owner] >= 2)
    if edit == "valley" and not live_down.any():
        edit = "none"  # no switch above the leaves has a child left
    if edit != "none":
        tables = _hostile(tables, edit, rng) or tables
    return tables


@st.composite
def valley_cases(draw):
    """Tables with up to four valleys that still arrive: a switch above
    the leaves sends ``d`` down a wrong child switch, which climbs back
    through another parent.  Several valleys can close a channel
    dependency cycle."""
    spec = draw(st.one_of(pgft_specs(max_levels=3, max_digit=3),
                          cbb_specs(max_levels=3)))
    fab = build_fabric(spec)
    if not 2 <= fab.num_endports <= 36:
        return None
    router = draw(st.sampled_from([route_dmodk, route_minhop,
                                   route_random]))
    tables = router(fab)
    N = fab.num_endports
    lvl = fab.node_level
    goes_up = fab.port_goes_up()
    sw = tables.switch_out.copy()
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    for _ in range(draw(st.integers(1, 4))):
        d = int(rng.integers(N))
        rows = [r for r in range(fab.num_switches)
                if lvl[N + r] >= 2 and sw[r, d] >= 0
                and not goes_up[sw[r, d]]]
        if not rows:
            break
        r = rows[rng.integers(len(rows))]
        wrong = [int(g) for g in fab.ports_of(N + r)
                 if not goes_up[g] and fab.peer_node[g] >= N
                 and g != sw[r, d]]
        if not wrong:
            continue
        g = wrong[rng.integers(len(wrong))]
        c = int(fab.peer_node[g])
        sw[r, d] = g
        back = [int(u) for u in fab.ports_of(c)
                if goes_up[u] and fab.peer_node[u] != N + r]
        if back:
            sw[c - N, d] = back[rng.integers(len(back))]
    return ForwardingTables(fab, sw, tables.host_up)


@st.composite
def cycle_cases(draw):
    """Two-level tables with two crossing valleys that close a channel
    dependency cycle yet deliver every route: spine ``S1`` sends ``d1``
    down to leaf ``La``, which climbs to ``S2``; ``S2`` sends ``d2``
    down to leaf ``Lb``, which climbs to ``S1``."""
    spec = draw(cbb_specs(max_levels=2))
    fab = build_fabric(spec)
    if not 2 <= fab.num_endports <= 36:
        return None
    tables = draw(st.sampled_from([route_dmodk, route_minhop,
                                   route_random]))(fab)
    N = fab.num_endports
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    level = fab.node_level
    spines = [v for v in range(N, fab.num_nodes) if level[v] == 2]
    leaves = [v for v in range(N, fab.num_nodes) if level[v] == 1]
    d1, d2 = (int(x) for x in rng.integers(N, size=2))
    home = {int(fab.peer_node[fab.port_start[d]]) for d in (d1, d2)}
    others = [v for v in leaves if v not in home]
    if len(spines) < 2 or len(others) < 2:
        return None
    s1, s2 = (spines[i] for i in rng.permutation(len(spines))[:2])
    la, lb = (others[i] for i in rng.permutation(len(others))[:2])

    def port(a, b):
        return next((int(g) for g in fab.ports_of(a)
                     if fab.peer_node[g] == b), None)

    sw = tables.switch_out.copy()
    for a, b, d in ((s1, la, d1), (la, s2, d1), (lb, s1, d1),
                    (s2, lb, d2), (lb, s1, d2), (la, s2, d2)):
        g = port(a, b)
        if g is None:
            return None
        sw[a - N, d] = g
    return ForwardingTables(fab, sw, tables.host_up)


def lint_cases():
    return st.one_of(walk_cases(), multirail_cases(), valley_cases(),
                     cycle_cases())


PASSES = (ReachabilityPass, UpDownPass, CdgCyclePass, DownPortBalancePass,
          UpPortBalancePass, MinimalityPass)


def _lint(classes, tables, active, updown, threshold):
    """Diagnostics, artifacts and per-pass ``ValueError`` texts."""
    ctx = CheckContext.for_tables(tables, active=active)
    report = DiagnosticReport(max_diags_per_code=10**9)
    errors = []
    for cls in classes:
        if cls.name == "up-down":
            p = cls(**updown)
        elif cls.name == "up-balance":
            p = cls(threshold=threshold)
        else:
            p = cls()
        try:
            p.run(ctx, report)
        except ValueError as exc:
            errors.append((p.name, str(exc)))
    diags = [(d.code, d.message, d.severity, d.loc, d.data)
             for d in report.diagnostics]
    return diags, ctx.artifacts, errors


def _same_artifacts(got, want):
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        other = got[key]
        assert type(other) is type(value), key
        if isinstance(value, np.ndarray):
            assert other.dtype == value.dtype, key
            assert np.array_equal(other, value), key
        else:
            assert other == value, key


def _raises_text(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    return None


class TestTableNativeLint:
    @given(lint_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_passes_equal_reference(self, tables, data):
        if tables is None:
            return
        N = tables.fabric.num_endports
        active = None
        if data.draw(st.booleans()):
            size = data.draw(st.integers(1, N))
            seed = data.draw(st.integers(0, 2**16))
            active = np.sort(np.random.default_rng(seed).permutation(N)
                             [:size])
        sample = data.draw(st.one_of(st.none(),
                                     st.integers(1, max(1, N * (N - 1)))))
        updown = {"sample": sample, "seed": data.draw(st.integers(0, 99)),
                  "strict": data.draw(st.booleans())}
        threshold = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        got = _lint(PASSES, tables, active, updown, threshold)
        want = _lint([ref.REFERENCE_PASSES[c.name] for c in PASSES],
                     tables, active, updown, threshold)
        assert got[0] == want[0]
        assert got[2] == want[2]
        _same_artifacts(got[1], want[1])

    @given(lint_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_views_equal_reference(self, tables, data):
        if tables is None:
            return
        N = tables.fabric.num_endports
        hops = tables.paths_matrix()
        want = ref.paths_matrix(tables)
        assert hops.dtype == want.dtype and np.array_equal(hops, want)

        err = _raises_text(ref.channel_dependencies, tables)
        assert _raises_text(channel_dependencies, tables) == err
        assert _raises_text(dependency_edges, tables) == err
        if err is None:
            deps = ref.channel_dependencies(tables)
            a, b = dependency_edges(tables)
            keys = a * tables.fabric.num_ports + b
            assert (np.diff(keys) > 0).all()  # sorted, no repeats
            assert set(zip(a.tolist(), b.tolist())) == deps
            assert channel_dependencies(tables) == deps
            assert acyclic(a, b) == (find_cycle(deps) is None)

        active = None
        if data.draw(st.booleans()):
            active = data.draw(st.lists(st.integers(0, N - 1), max_size=N))
        err = _raises_text(ref.down_port_destination_counts, tables,
                           active=active)
        assert _raises_text(down_port_destination_counts, tables,
                            active=active) == err
        if err is None:
            assert np.array_equal(
                down_port_destination_counts(tables, active=active),
                ref.down_port_destination_counts(tables, active=active))


class TestPeel:
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                    max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_peel_agrees_with_dfs(self, edges):
        a = np.array([e[0] for e in edges], dtype=np.int64)
        b = np.array([e[1] for e in edges], dtype=np.int64)
        assert acyclic(a, b) == (find_cycle(set(edges)) is None)


@st.composite
def bfs_cases(draw):
    """A fabric (single- or multi-rail), degraded by dead cables, dead
    switches or a fully unplugged host, and a list of sources."""
    if draw(st.booleans()):
        spec = draw(pgft_specs(max_levels=3, max_digit=3))
    else:
        h = draw(st.integers(1, 2))
        spec = pgft(h, [draw(st.integers(1, 3)) for _ in range(h)],
                    [draw(st.integers(2, 3))]
                    + [draw(st.integers(1, 2)) for _ in range(h - 1)],
                    [1] * h)
    fab = build_fabric(spec)
    if fab.num_nodes > 120:
        return None
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    live = np.flatnonzero(fab.port_peer >= 0)
    dead = rng.choice(live, size=draw(st.integers(0, min(4, len(live)))),
                      replace=False)
    fab = fab.with_failed_cables(dead)
    if draw(st.booleans()):
        host = int(rng.integers(fab.num_endports))
        fab = fab.with_failed_cables(fab.ports_of(host))
    if draw(st.booleans()):
        fab = fab.with_failed_switches(
            [int(rng.integers(fab.num_endports, fab.num_nodes))])
    sources = rng.integers(0, fab.num_nodes,
                           size=draw(st.integers(0, fab.num_nodes)))
    return fab, sources


class TestBfs:
    @given(bfs_cases())
    @settings(max_examples=150, deadline=None)
    def test_bfs_equals_endport_rooted_reference(self, case):
        if case is None:
            return
        fab, sources = case
        got = bfs_distances(fab, sources)
        want = ref.bfs_distances(fab, sources)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        every = np.arange(fab.num_nodes)
        assert np.array_equal(bfs_distances(fab, every),
                              ref.bfs_distances(fab, every))
