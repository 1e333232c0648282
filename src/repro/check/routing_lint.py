"""Forwarding-table lint (``RTE0xx``).

All passes read the :class:`~repro.fabric.lft.ForwardingTables` of the
context; none mutate it.  The all-pairs checks read the tables, not an
N² route walk: the tables are destination-based, so every (src, dst)
route is its host link followed by the route of one ``(first switch,
destination)`` entry, and :class:`~repro.fabric.lft.EntryRoutes` walks
each used entry once (~5.8k entries for 105k pairs at n324).  One
``EntryRoutes`` per context (:meth:`CheckContext.entry_routes`) serves
the reachability, up-down, CDG and down-balance passes.  Only failing
or sampled pairs are walked one by one, to render findings:

* ``RTE001``/``RTE002`` reachability (dead ends, loops), named from
  each failing route's fault code,
* ``RTE010`` up*/down* shape (no valleys) -- one mask over the entry
  routes' link columns; the seeded pair sample is drawn only when some
  route faults or has a valley,
* ``RTE020`` channel-dependency-graph cycles (deadlock): the edges are
  proven acyclic by bulk peeling
  (:func:`repro.routing.deadlock.acyclic`), and only a cyclic graph
  goes to :func:`repro.routing.deadlock.find_cycle`,
* ``RTE030`` D-Mod-K conformance against the closed form of eq. (1),
* ``RTE040`` theorem-2 down-port destination counts,
* ``RTE041`` up-port destination balance, one ``bincount`` per table,
* ``RTE050`` non-minimal entries vs BFS distances.

Artifacts published: ``hops`` (the hop matrix), ``cdg_dependencies``
(count), ``down_port_counts``, ``theorem2_violations``,
``up_balance_worst``, ``non_minimal_entries``, ``unreachable_entries``.
"""

from __future__ import annotations

import numpy as np

from ..analysis.hsd import down_port_destination_counts
from ..fabric.lft import Routes
from ..routing.deadlock import acyclic, dependency_edges, find_cycle
from ..routing.minhop import bfs_distances
from .common import link_loc as _link_loc
from .common import sample_pairs, valley_hops
from .diagnostics import Diagnostic, DiagnosticReport, Loc
from .passes import CheckContext, CheckPass

__all__ = [
    "ReachabilityPass",
    "UpDownPass",
    "CdgCyclePass",
    "DmodkConformancePass",
    "DownPortBalancePass",
    "UpPortBalancePass",
    "MinimalityPass",
    "sample_pairs",
]


class ReachabilityPass(CheckPass):
    """RTE001 dead ends / RTE002 loops, from the all-pairs hop matrix."""

    name = "reachability"
    needs_tables = True

    def run(self, ctx: CheckContext, report: DiagnosticReport) -> None:
        tables = ctx.tables
        fab = ctx.fabric
        hops = tables.paths_matrix(ctx.entry_routes())
        ctx.artifacts["hops"] = hops
        src, dst = np.nonzero(hops < 0)
        if not len(src):
            return
        # Re-walk only the failing pairs to name each fault.
        routes = tables.flow_routes(src, dst)
        last = routes.links[np.arange(len(src)), routes.length - 1]
        for s, d, fault, gp in zip(src.tolist(), dst.tolist(),
                                   routes.fault.tolist(), last.tolist()):
            if fault == Routes.DEAD_CABLE:
                code, msg = "RTE001", (
                    f"route {s}->{d} walks into a dead cable"
                    " (stale tables on a degraded fabric?)")
            elif fault == Routes.UNROUTED:
                code, msg = "RTE001", (
                    f"route {s}->{d} dead-ends at "
                    f"{fab.node_names[int(fab.peer_node[gp])]} (-1 LFT entry)")
            else:
                code, msg = "RTE002", (
                    f"route {s}->{d} exceeds {tables.hop_limit} hops "
                    "without arriving (forwarding loop)")
            report.add(Diagnostic(code=code, message=msg, loc=Loc(lid=d)))


class UpDownPass(CheckPass):
    """RTE010: every route must ascend then descend (no valleys).

    A hop that increases the level after any earlier decrease within
    the same route is a violation
    (:func:`~repro.check.common.valley_hops` over the entry routes; a
    route's host link ascends, so its valleys are its entry's).  Only
    when some route faults or has a valley is the seeded pair sample
    drawn, and its findings named.
    """

    name = "up-down"
    needs_tables = True

    def __init__(self, sample: int | None = 250_000, seed: int = 0,
                 strict: bool = False) -> None:
        self.sample = sample
        self.seed = seed
        self.strict = strict

    def run(self, ctx: CheckContext, report: DiagnosticReport) -> None:
        tables = ctx.tables
        fab = ctx.fabric
        entries = ctx.entry_routes()
        valley = valley_hops(fab, entries.routes)
        if not entries.faulty and not valley.any():
            return
        src, dst = sample_pairs(fab.num_endports, self.sample, self.seed)
        try:
            entries.raise_fault(src, dst)
        except ValueError:
            if self.strict:
                raise
            return  # reachability pass owns broken walks
        entry = entries.outcome(src, dst)[0]
        rows = np.flatnonzero(entry >= 0)
        rows = rows[valley[entry[rows]].any(axis=1)]
        lvl = fab.node_level
        links = entries.routes.links
        for r in rows.tolist():
            e = int(entry[r])
            for k in np.flatnonzero(valley[e]).tolist():
                g = int(links[e, k])
                report.add(Diagnostic(
                    code="RTE010",
                    message=(f"route {int(src[r])}->{int(dst[r])} ascends "
                             f"from level {int(lvl[fab.port_owner[g]])} to "
                             f"{int(lvl[fab.peer_node[g]])} after descending"),
                    loc=_link_loc(fab, g, lid=int(dst[r]),
                                  level=int(lvl[fab.port_owner[g]])),
                ))


class CdgCyclePass(CheckPass):
    """RTE020: the channel dependency graph must be acyclic."""

    name = "cdg"
    needs_tables = True

    def run(self, ctx: CheckContext, report: DiagnosticReport) -> None:
        tables = ctx.tables
        fab = ctx.fabric
        try:
            a, b = dependency_edges(tables, ctx.entry_routes())
        except ValueError:
            return  # broken walks are reachability findings
        ctx.artifacts["cdg_dependencies"] = len(a)
        if acyclic(a, b):
            return
        cycle = find_cycle(set(zip(a.tolist(), b.tolist())))
        if cycle is None:
            return
        desc = " -> ".join(
            f"{fab.node_names[fab.port_owner[gp]]}[{int(fab.local_port(gp))}]"
            for gp in cycle
        )
        report.add(Diagnostic(
            code="RTE020",
            message=f"channel dependency cycle: {desc}",
            loc=_link_loc(fab, int(cycle[0])),
            data={"cycle_gports": [int(gp) for gp in cycle]},
        ))


class DmodkConformancePass(CheckPass):
    """RTE030: tables claiming to be D-Mod-K must equal eq. (1).

    Rebuilds the closed-form reference tables for the fabric and diffs
    every (switch, destination) entry.  Runs only when the context says
    the tables came from the ``dmodk`` engine (or ``always=True``).
    """

    name = "dmodk-conformance"
    needs_tables = True

    def __init__(self, always: bool = False) -> None:
        self.always = always

    def applicable(self, ctx: CheckContext) -> bool:
        if not super().applicable(ctx):
            return False
        if ctx.fabric.spec is None:
            return False
        return self.always or ctx.routing_name == "dmodk"

    def run(self, ctx: CheckContext, report: DiagnosticReport) -> None:
        from ..routing.dmodk import route_dmodk

        tables = ctx.tables
        fab = ctx.fabric
        ref = route_dmodk(fab, active=ctx.active)
        diff = np.argwhere(tables.switch_out != ref.switch_out)
        ctx.artifacts["dmodk_mismatches"] = len(diff)
        for row, dest in diff.tolist():
            node = fab.num_endports + int(row)
            have = int(tables.switch_out[row, dest])
            want = int(ref.switch_out[row, dest])
            report.add(Diagnostic(
                code="RTE030",
                message=(f"LFT entry for dest {dest} uses local port "
                         f"{int(have - fab.port_start[node]) if have >= 0 else -1}, "
                         f"eq. (1) mandates "
                         f"{int(want - fab.port_start[node])}"),
                loc=Loc(switch=fab.node_names[node], lid=int(dest),
                        level=int(fab.node_level[node])),
            ))
        if tables.host_up is not None or ref.host_up is not None:
            have_h = tables.host_up
            want_h = ref.host_up
            if have_h is None or want_h is None or not np.array_equal(
                    have_h, want_h):
                report.add(Diagnostic(
                    code="RTE030",
                    message="host up-port choices differ from eq. (1)",
                ))


class DownPortBalancePass(CheckPass):
    """RTE040: theorem-2 -- at most one destination per down link."""

    name = "down-balance"
    needs_tables = True

    def run(self, ctx: CheckContext, report: DiagnosticReport) -> None:
        tables = ctx.tables
        fab = ctx.fabric
        try:
            counts = down_port_destination_counts(
                tables, active=ctx.active,
                entries=ctx.entry_routes(ctx.active))
        except ValueError:
            return
        ctx.artifacts["down_port_counts"] = counts
        ctx.artifacts["theorem2_violations"] = int((counts > 1).sum())
        for gp in np.flatnonzero(counts > 1).tolist():
            report.add(Diagnostic(
                code="RTE040",
                message=(f"down link carries {int(counts[gp])} distinct "
                         "destinations (theorem 2 wants at most 1)"),
                loc=_link_loc(fab, gp),
            ))


class UpPortBalancePass(CheckPass):
    """RTE041: per-switch spread of destinations over up ports.

    Publishes the worst skew ``(max-min)/mean`` as an artifact; emits a
    warning per switch whose skew exceeds ``threshold``.
    """

    name = "up-balance"
    needs_tables = True

    def __init__(self, threshold: float = 0.5) -> None:
        self.threshold = threshold

    def run(self, ctx: CheckContext, report: DiagnosticReport) -> None:
        tables = ctx.tables
        fab = ctx.fabric
        N = fab.num_endports
        sw_out = tables.switch_out if ctx.active is None \
            else tables.switch_out[:, ctx.active]
        rows, cols = np.nonzero(sw_out >= 0)
        gp = sw_out[rows, cols]
        # a switch counts only its own ports' entries
        per_port = np.bincount(gp[fab.port_owner[gp] == N + rows],
                               minlength=fab.num_ports)
        up = np.flatnonzero(fab.port_goes_up() & (fab.port_owner >= N))
        owner = fab.port_owner[up]
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        size = np.diff(np.append(starts, len(up)))
        counts = per_port[up].astype(np.float64)
        total = np.add.reduceat(counts, starts)
        spread = (np.maximum.reduceat(counts, starts)
                  - np.minimum.reduceat(counts, starts))
        skew = spread / np.maximum(total / size, 1e-12)
        busy = total > 0
        worst = float(skew[busy].max()) if busy.any() else 0.0
        for i in np.flatnonzero(busy & (skew > self.threshold)).tolist():
            node = int(owner[starts[i]])
            mine = counts[starts[i]:starts[i] + size[i]]
            report.add(Diagnostic(
                code="RTE041",
                message=(f"destinations spread unevenly over up ports "
                         f"(skew {float(skew[i]):.2f}, counts "
                         f"{mine.astype(int).tolist()})"),
                loc=Loc(switch=fab.node_names[node],
                        level=int(fab.node_level[node])),
            ))
        ctx.artifacts["up_balance_worst"] = worst


class MinimalityPass(CheckPass):
    """RTE050: every next hop must strictly reduce the BFS distance."""

    name = "minimality"
    needs_tables = True

    def run(self, ctx: CheckContext, report: DiagnosticReport) -> None:
        tables = ctx.tables
        fab = ctx.fabric
        N = fab.num_endports
        sw_out = tables.switch_out
        ctx.artifacts["unreachable_entries"] = int((sw_out < 0).sum())
        dists = bfs_distances(fab, np.arange(N))
        nodes = N + np.arange(fab.num_switches)
        valid = sw_out >= 0
        next_node = np.where(valid, fab.peer_node[np.where(valid, sw_out, 0)],
                             -1)
        d_here = dists[np.arange(N)[None, :], nodes[:, None]]
        d_next = np.where(next_node >= 0,
                          dists[np.arange(N)[None, :], next_node], -2)
        non_min = valid & (d_next != d_here - 1)
        ctx.artifacts["non_minimal_entries"] = int(non_min.sum())
        for row, dest in np.argwhere(non_min).tolist():
            node = N + int(row)
            report.add(Diagnostic(
                code="RTE050",
                message=(f"next hop toward dest {dest} is at BFS distance "
                         f"{int(d_next[row, dest])}, expected "
                         f"{int(d_here[row, dest]) - 1}"),
                loc=Loc(switch=fab.node_names[node], lid=int(dest)),
            ))
