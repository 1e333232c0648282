"""All-pairs reference bodies of the routing lint, kept as a test oracle.

The package's lint reads the forwarding tables per ``(first switch,
destination)`` entry (:class:`repro.fabric.lft.EntryRoutes`).  The
functions and passes below are the brute-force forms it replaced: they
walk every ``(src, dst)`` pair through the tables, scan a seeded sample
of pair routes for valleys, count destinations port by port and run the
breadth-first search from every end-port.  Tests and benchmarks hold the
table-native views to these, output for output.
"""

from __future__ import annotations

import numpy as np

from repro.check import routing_lint as lint
from repro.check.common import link_loc, sample_pairs, valley_hops
from repro.check.diagnostics import Diagnostic, Loc
from repro.fabric.lft import Routes
from repro.routing.deadlock import find_cycle

__all__ = ["paths_matrix", "channel_dependencies",
           "down_port_destination_counts", "bfs_distances",
           "REFERENCE_PASSES"]


def _all_pairs(n):
    return np.divmod(np.arange(n * n), n)


def paths_matrix(tables):
    """Hop count of every (src, dst) pair, ``-1`` on a route fault."""
    N = tables.fabric.num_endports
    routes = tables.flow_routes(*_all_pairs(N))
    hops = np.where(routes.fault == Routes.ARRIVED, routes.length, -1)
    return hops.astype(np.int32).reshape(N, N)


def channel_dependencies(tables):
    """(link a -> link b) for consecutive hops of every pair's route."""
    fab = tables.fabric
    routes = tables.flow_routes(*_all_pairs(fab.num_endports))
    routes.raise_fault()
    a = routes.links[:, :-1]
    b = routes.links[:, 1:]
    hop = b >= 0
    a, b = a[hop], b[hop]
    radix = int(np.diff(fab.port_start).max())
    keys = np.flatnonzero(np.bincount(
        a * radix + (b - fab.port_start[fab.port_owner[b]]),
        minlength=fab.num_ports * radix))
    a, local = np.divmod(keys, radix)
    b = fab.port_start[fab.peer_node[a]] + local
    return set(zip(a.tolist(), b.tolist()))


def down_port_destination_counts(tables, active=None):
    """Distinct destinations per down link over all pairs of ``active``."""
    fab = tables.fabric
    N = fab.num_endports
    ends = np.arange(N, dtype=np.int64) if active is None \
        else np.unique(np.asarray(active, dtype=np.int64))
    src = np.repeat(ends, len(ends))
    dst = np.tile(ends, len(ends))
    routes = tables.flow_routes(src, dst)
    routes.raise_fault()
    flow_idx, gports = routes.flat()
    seen = np.bincount(gports * N + dst[flow_idx],
                       minlength=fab.num_ports * N) > 0
    counts = seen.reshape(fab.num_ports, N).sum(axis=1)
    counts[fab.port_goes_up()] = 0
    return counts


def bfs_distances(fabric, sources):
    """Hop distances ``dist[i, v]`` by a frontier BFS from every source."""
    V = fabric.num_nodes
    S = len(sources)
    dist = np.full((S, V), -1, dtype=np.int32)
    dist[np.arange(S), sources] = 0
    peer = fabric.peer_node
    frontier = dist == 0
    d = 0
    while frontier.any():
        d += 1
        pin = np.zeros((S, fabric.num_ports), dtype=bool)
        valid = peer >= 0
        pin[:, valid] = frontier[:, peer[valid]]
        nxt = np.zeros((S, V), dtype=bool)
        np.logical_or.reduceat(pin, fabric.port_start[:-1], axis=1, out=nxt)
        nxt &= dist < 0
        dist[nxt] = d
        frontier = nxt
    return dist


class ReachabilityPass(lint.ReachabilityPass):
    def run(self, ctx, report):
        tables = ctx.tables
        fab = ctx.fabric
        hops = paths_matrix(tables)
        ctx.artifacts["hops"] = hops
        src, dst = np.nonzero(hops < 0)
        if not len(src):
            return
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


class UpDownPass(lint.UpDownPass):
    def run(self, ctx, report):
        tables = ctx.tables
        fab = ctx.fabric
        src, dst = sample_pairs(fab.num_endports, self.sample, self.seed)
        routes = tables.flow_routes(src, dst)
        try:
            routes.raise_fault()
        except ValueError:
            if self.strict:
                raise
            return
        lvl = fab.node_level
        for r, k in np.argwhere(valley_hops(fab, routes)).tolist():
            g = int(routes.links[r, k])
            report.add(Diagnostic(
                code="RTE010",
                message=(f"route {int(src[r])}->{int(dst[r])} ascends "
                         f"from level {int(lvl[fab.port_owner[g]])} to "
                         f"{int(lvl[fab.peer_node[g]])} after descending"),
                loc=link_loc(fab, g, lid=int(dst[r]),
                             level=int(lvl[fab.port_owner[g]])),
            ))


class CdgCyclePass(lint.CdgCyclePass):
    def run(self, ctx, report):
        fab = ctx.fabric
        try:
            deps = channel_dependencies(ctx.tables)
        except ValueError:
            return
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
            loc=link_loc(fab, int(cycle[0])),
            data={"cycle_gports": [int(gp) for gp in cycle]},
        ))


class DownPortBalancePass(lint.DownPortBalancePass):
    def run(self, ctx, report):
        fab = ctx.fabric
        try:
            counts = down_port_destination_counts(ctx.tables,
                                                  active=ctx.active)
        except ValueError:
            return
        ctx.artifacts["down_port_counts"] = counts
        ctx.artifacts["theorem2_violations"] = int((counts > 1).sum())
        for gp in np.flatnonzero(counts > 1).tolist():
            report.add(Diagnostic(
                code="RTE040",
                message=(f"down link carries {int(counts[gp])} distinct "
                         "destinations (theorem 2 wants at most 1)"),
                loc=link_loc(fab, gp),
            ))


class UpPortBalancePass(lint.UpPortBalancePass):
    def run(self, ctx, report):
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


class MinimalityPass(lint.MinimalityPass):
    def run(self, ctx, report):
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


#: pass name -> its all-pairs reference class
REFERENCE_PASSES = {p.name: p for p in (
    ReachabilityPass, UpDownPass, CdgCyclePass, DownPortBalancePass,
    UpPortBalancePass, MinimalityPass)}
