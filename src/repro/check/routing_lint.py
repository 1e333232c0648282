"""Forwarding-table lint (``RTE0xx``).

All passes read the :class:`~repro.fabric.lft.ForwardingTables` of the
context; none mutate it.  The heavy passes walk every (src, dst) pair
through the tables with the one vectorised route walk
(:meth:`~repro.fabric.lft.ForwardingTables.walk`), so even the
all-pairs checks stay a few NumPy calls:

* ``RTE001``/``RTE002`` reachability (dead ends, loops), named from
  each failing route's fault code,
* ``RTE010`` up*/down* shape (no valleys) -- one mask over the routes'
  per-hop link columns,
* ``RTE020`` channel-dependency-graph cycles (deadlock), reusing
  :func:`repro.routing.deadlock.find_cycle`,
* ``RTE030`` D-Mod-K conformance against the closed form of eq. (1),
* ``RTE040`` theorem-2 down-port destination counts,
* ``RTE041`` up-port destination balance,
* ``RTE050`` non-minimal entries vs BFS distances.

Artifacts published: ``hops`` (the hop matrix), ``cdg_dependencies``
(count), ``down_port_counts``, ``theorem2_violations``,
``up_balance_worst``, ``non_minimal_entries``, ``unreachable_entries``.
"""

from __future__ import annotations

import numpy as np

from ..analysis.hsd import down_port_destination_counts
from ..fabric.lft import Routes
from ..routing.deadlock import channel_dependencies, find_cycle
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
        hops = tables.paths_matrix()
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
    (:func:`~repro.check.common.valley_hops` over the sampled routes).
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
        src, dst = sample_pairs(fab.num_endports, self.sample, self.seed)
        routes = tables.flow_routes(src, dst)
        try:
            routes.raise_fault()
        except ValueError:
            if self.strict:
                raise
            return  # reachability pass owns broken walks
        lvl = fab.node_level
        for r, k in np.argwhere(valley_hops(fab, routes)).tolist():
            g = int(routes.links[r, k])
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
            deps = channel_dependencies(tables)
        except ValueError:
            return  # broken walks are reachability findings
        ctx.artifacts["cdg_dependencies"] = len(deps)
        cycle = find_cycle(deps)
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
            counts = down_port_destination_counts(tables, active=ctx.active)
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
        goes_up = fab.port_goes_up()
        worst = 0.0
        for row in range(fab.num_switches):
            node = fab.num_endports + row
            ports = fab.ports_of(node)
            up_ports = ports[goes_up[ports]]
            if len(up_ports) == 0:
                continue
            entries = tables.switch_out[row] if ctx.active is None \
                else tables.switch_out[row][ctx.active]
            entries = entries[entries >= 0]
            counts = np.array([(entries == gp).sum() for gp in up_ports],
                              dtype=np.float64)
            if counts.sum() == 0:
                continue
            skew = float((counts.max() - counts.min())
                         / max(counts.mean(), 1e-12))
            worst = max(worst, skew)
            if skew > self.threshold:
                report.add(Diagnostic(
                    code="RTE041",
                    message=(f"destinations spread unevenly over up ports "
                             f"(skew {skew:.2f}, counts "
                             f"{counts.astype(int).tolist()})"),
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
