"""Forwarding-table audit ("table lint").

Given any destination-based tables, report the structural health an
operator would want before trusting a fabric with collective traffic:

* **up-port balance** per switch: how evenly the non-descendant
  destinations spread over the up ports (D-Mod-K is perfectly even;
  a skew is the first symptom of an SM gone wrong);
* **theorem-2 violations**: down-going directed links serving more
  than one destination;
* **non-minimal entries**: (switch, dest) pairs whose next hop does
  not strictly reduce the BFS distance (valleys, detours, or repair
  leftovers).

The audit powers ``repro-fabric validate --audit`` and is exercised as
a regression net over every routing engine in the test suite.  Since
the ``repro.check`` analyzer grew passes for each of these properties,
:func:`audit_tables` is a thin wrapper assembling the summary from the
passes' artifacts (``up_balance_worst``, ``theorem2_violations``,
``non_minimal_entries``, ``unreachable_entries``) -- one implementation
per invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fabric.lft import ForwardingTables

__all__ = ["audit_tables", "TableAudit"]


@dataclass(frozen=True)
class TableAudit:
    """Summary of a forwarding-table audit."""

    num_switches: int
    up_balance_worst: float       # max over switches of (max-min)/mean dests/up-port
    theorem2_violations: int      # down links serving >1 destination
    non_minimal_entries: int      # (switch, dest) detours
    unreachable_entries: int      # -1 entries

    @property
    def clean(self) -> bool:
        return (self.theorem2_violations == 0
                and self.non_minimal_entries == 0
                and self.unreachable_entries == 0)

    def render(self) -> str:
        flag = "CLEAN" if self.clean else "ISSUES FOUND"
        return "\n".join([
            f"table audit: {flag}",
            f"  switches             : {self.num_switches}",
            f"  worst up-port skew   : {self.up_balance_worst:.3f}"
            "  (0 = perfectly even)",
            f"  theorem-2 violations : {self.theorem2_violations}",
            f"  non-minimal entries  : {self.non_minimal_entries}",
            f"  unreachable entries  : {self.unreachable_entries}",
        ])


def audit_tables(tables: ForwardingTables,
                 check_theorem2: bool = True) -> TableAudit:
    """Run the full audit.  ``check_theorem2=False`` skips the
    theorem-2 down-port count (a walk of every used table entry)."""
    # Imported lazily: repro.check pulls in analysis primitives at
    # module level, so the reverse edge must not exist at import time.
    from ..check.diagnostics import DiagnosticReport
    from ..check.passes import CheckContext
    from ..check.routing_lint import (
        DownPortBalancePass,
        MinimalityPass,
        UpPortBalancePass,
    )

    ctx = CheckContext.for_tables(tables)
    report = DiagnosticReport()
    passes = [UpPortBalancePass(), MinimalityPass()]
    if check_theorem2:
        passes.append(DownPortBalancePass())
    for p in passes:
        p.run(ctx, report)

    return TableAudit(
        num_switches=tables.fabric.num_switches,
        up_balance_worst=float(ctx.artifacts["up_balance_worst"]),
        theorem2_violations=int(ctx.artifacts.get("theorem2_violations", 0)),
        non_minimal_entries=int(ctx.artifacts["non_minimal_entries"]),
        unreachable_entries=int(ctx.artifacts["unreachable_entries"]),
    )
