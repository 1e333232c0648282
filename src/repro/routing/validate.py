"""Routing validators: reachability, up*/down* shape, theorem-2 checks.

These are the safety nets every routing engine is run through in the
test suite.  They are thin *raising* wrappers over the corresponding
:mod:`repro.check` passes -- one implementation of each invariant lives
in the analyzer, and these entry points keep the historical
raise-on-first-violation API:

* :func:`check_reachability` -- every (src, dst) pair arrives within
  the tables' hop limit (``RTE001``/``RTE002``); returns the hop-count
  matrix.
* :func:`check_up_down` -- every path ascends zero or more levels and
  then descends (no "valleys", ``RTE010``), the classic
  deadlock-freedom shape for fat-tree routing.
* :func:`down_port_destinations` -- per down-going directed link, the
  number of destinations whose (unique, destination-based) route uses
  it; theorem 2 states D-Mod-K yields at most one on complete RLFTs.
  This deliberately scalar form is a test oracle only: the lint reads
  the table-native :func:`repro.analysis.hsd.down_port_destination_counts`,
  and the tests hold the two equal.
* :func:`trace_route` -- one route, hop by hop: the scalar oracle of
  :meth:`~repro.fabric.lft.ForwardingTables.walk`, the one vectorised
  walk every other route consumer is a view over.
"""

from __future__ import annotations

import numpy as np

from ..fabric.lft import ForwardingTables

__all__ = [
    "check_reachability",
    "check_up_down",
    "down_port_destinations",
    "trace_route",
    "RoutingError",
]


class RoutingError(Exception):
    """A routing invariant was violated.

    Deliberately **not** an ``AssertionError`` subclass: ``python -O``
    strips ``assert`` statements, and an exception type rooted in
    ``AssertionError`` invites callers to guard these checks the same
    way.  The validators must keep firing in optimised runs.
    """


def _lint(tables: ForwardingTables, passes):
    """Run check passes over ``tables``; raise :class:`RoutingError`
    with the first error finding, return the pass artifacts."""
    # Imported lazily: repro.check imports routing primitives at module
    # level, so the reverse edge must not exist at import time.
    from ..check.diagnostics import DiagnosticReport
    from ..check.passes import CheckContext

    ctx = CheckContext.for_tables(tables)
    report = DiagnosticReport()
    for p in passes:
        if p.applicable(ctx):
            p.run(ctx, report)
    if report.has_errors:
        raise RoutingError(report.diagnostics[0].render())
    return ctx.artifacts


def trace_route(tables: ForwardingTables, src: int, dst: int,
                max_hops: int = 64) -> list[int]:
    """Global port ids traversed from ``src`` to ``dst`` (directed)."""
    fab = tables.fabric
    if src == dst:
        return []
    path = []
    gp = int(tables.host_out_port(src, dst))
    path.append(gp)
    cur = int(fab.peer_node[gp])
    for _ in range(max_hops):
        if cur == dst:
            return path
        if cur < 0:
            raise RoutingError(
                f"route {src}->{dst} walks into a dead cable")
        gp = int(tables.out_port(cur, dst))
        if gp < 0:
            raise RoutingError(f"dead end at node {cur} toward {dst}")
        path.append(gp)
        cur = int(fab.peer_node[gp])
    raise RoutingError(f"route {src}->{dst} exceeded {max_hops} hops (loop?)")


def check_reachability(tables: ForwardingTables) -> np.ndarray:
    """Hop-count matrix; raises :class:`RoutingError` on any failure."""
    from ..check.routing_lint import ReachabilityPass

    artifacts = _lint(tables, [ReachabilityPass()])
    return artifacts["hops"]


def check_up_down(tables: ForwardingTables, sample: int | None = None,
                  seed: int = 0) -> None:
    """Verify the up-then-down shape of every (or a sampled set of) route.

    ``sample`` bounds the number of (src, dst) pairs checked on large
    fabrics; ``None`` checks all pairs.
    """
    from ..check.routing_lint import UpDownPass

    try:
        _lint(tables, [UpDownPass(sample=sample, seed=seed, strict=True)])
    except ValueError as exc:
        # strict walks surface broken routes (dead ends / loops) here
        raise RoutingError(str(exc)) from exc


def down_port_destinations(tables: ForwardingTables) -> np.ndarray:
    """Number of distinct destinations carried by each down-going directed
    link under all-to-all traffic.

    Returns an array over global port ids; up-going and host ports hold
    zero.  Theorem 2: D-Mod-K on a complete RLFT gives at most one
    destination per down port.
    """
    fab = tables.fabric
    N = fab.num_endports
    goes_up = fab.port_goes_up()
    used = np.zeros((fab.num_ports,), dtype=np.int64)
    # Walk each destination's routes from every source; count *distinct*
    # destinations per directed port by per-destination marking.
    for dst in range(N):
        marked: set[int] = set()
        for src in range(N):
            if src == dst:
                continue
            for gp in trace_route(tables, src, dst):
                if not goes_up[gp] and gp not in marked:
                    marked.add(gp)
                    used[gp] += 1
    return used
