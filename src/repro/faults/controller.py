"""SM-style self-healing: sweep-delayed live table repair.

A real InfiniBand subnet manager does not react to a failure instantly:
it notices on its next sweep, recomputes routes around the damage and
pushes updated LFTs to the switches.  :class:`HealingController` models
exactly that loop on top of :func:`repro.routing.repair.repair_tables`:

* every topology-changing fault event triggers a sweep ``sweep_delay``
  microseconds later;
* the sweep observes the cable state *at sweep time* (a cable that
  already recovered is healthy again) and repairs the **base** tables
  against that degraded fabric;
* the resulting timeline of ``(sweep_time, tables)`` swaps is applied
  *live* by the faulty packet engine -- packets launched after a swap
  follow the repaired routes, packets already queued re-resolve their
  next hop against the new tables.

The ``strategy`` argument picks *which* repair each sweep pushes:
``"naive"`` round-robin, ``"balanced"`` least-loaded (quality-aware),
or ``"auto"`` -- compute both and keep the one with the better static
score (:func:`repro.routing.repair.score_repair`: fewest lost
destinations, then lowest worst-link destination multiplicity).  That
is the live-path counterpart of the ``repro.check.faultspace`` static
sweep: the same scoring that certifies degraded fabrics offline
chooses the repair pushed to the switches.

Because the dead-cable evolution is a pure function of the schedule,
the sweep times come from schedule algebra at construction, and each
sweep's repair is computed the first time a run or a caller needs it
and memoised: a run that ends before the first sweep repairs nothing,
lookups are O(log n) bisects, and two runs against the same controller
see identical tables at identical times.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from ..fabric.lft import ForwardingTables
from ..routing.repair import (
    REPAIR_STRATEGIES,
    RepairReport,
    repair_tables,
    score_repair,
)
from .schedule import FaultSchedule

__all__ = ["HealingController", "RepairAction"]


@dataclass(frozen=True)
class RepairAction:
    """One subnet-manager sweep that pushed repaired tables."""

    fault_time: float            # the event that triggered the sweep
    sweep_time: float            # when the repaired tables went live
    dead_cables: int             # directed gports down at sweep time
    repaired_entries: int        # (switch, dest) entries re-pointed
    unreachable: tuple[int, ...]  # destinations no repair can restore
    strategy: str = "naive"      # which repair the sweep pushed
    worst_multiplicity: int = 0  # static worst-link load of the push

    @property
    def recovery_latency(self) -> float:
        return self.sweep_time - self.fault_time


class HealingController:
    """Repair timeline for one ``(tables, schedule)`` pair; each sweep's
    repair is computed on first use."""

    def __init__(
        self,
        tables: ForwardingTables,
        faults: FaultSchedule,
        sweep_delay: float = 50.0,
        strategy: str = "naive",
    ):
        if sweep_delay < 0:
            raise ValueError("sweep_delay must be >= 0")
        if strategy not in REPAIR_STRATEGIES + ("auto",):
            raise ValueError(f"unknown repair strategy {strategy!r}; "
                             f"known: {REPAIR_STRATEGIES + ('auto',)}")
        self.base_tables = tables
        self.faults = faults
        self.sweep_delay = float(sweep_delay)
        self.strategy = strategy
        # One sweep per distinct topology-event time; a later event
        # inside the same sweep window simply triggers its own sweep.
        sweeps: dict[float, float] = {}
        for e in faults.topology_events():
            sweeps.setdefault(e.time + self.sweep_delay, e.time)
        #: sweep times, ascending
        self.sweep_times: tuple[float, ...] = tuple(sorted(sweeps))
        self._fault_times = [sweeps[t] for t in self.sweep_times]
        self._swaps: list[tuple[ForwardingTables, RepairAction] | None] = \
            [None] * len(self.sweep_times)

    def swap(self, i: int) -> tuple[ForwardingTables, RepairAction]:
        """The tables sweep ``i`` pushes and its action (memoised)."""
        got = self._swaps[i]
        if got is None:
            sweep_time = self.sweep_times[i]
            fabric = self.base_tables.fabric
            dead = self.faults.dead_gports_at(fabric, sweep_time)
            degraded = fabric.with_failed_cables(dead)
            rep = self._pick_repair(self.base_tables, degraded)
            score = score_repair(rep)
            got = self._swaps[i] = (rep.tables, RepairAction(
                fault_time=self._fault_times[i],
                sweep_time=sweep_time,
                dead_cables=len(dead),
                repaired_entries=rep.repaired_entries,
                unreachable=rep.unreachable,
                strategy=rep.strategy,
                worst_multiplicity=score[1],
            ))
        return got

    def _pick_repair(self, tables: ForwardingTables,
                     degraded) -> RepairReport:
        if self.strategy != "auto":
            return repair_tables(tables, degraded, strategy=self.strategy)
        # min() keeps the first candidate on ties -- prefer the
        # quality-aware repair when the static scores are equal, the
        # same tie-break sweep_fault_space(strategy="auto") applies.
        candidates = [repair_tables(tables, degraded, strategy=s)
                      for s in ("balanced", "naive")]
        return min(candidates, key=score_repair)

    @property
    def actions(self) -> tuple[RepairAction, ...]:
        return self.actions_until(math.inf)

    def actions_until(self, t: float) -> tuple[RepairAction, ...]:
        """The actions of the sweeps at or before time ``t``."""
        i = bisect.bisect_right(self.sweep_times, t)
        return tuple(self.swap(j)[1] for j in range(i))

    def tables_at(self, t: float) -> ForwardingTables:
        """The tables a packet injected at time ``t`` is routed by."""
        i = bisect.bisect_right(self.sweep_times, t)
        return self.base_tables if i == 0 else self.swap(i - 1)[0]

    def swaps_after(
        self, t0: float
    ) -> list[tuple[float, ForwardingTables, RepairAction]]:
        """Repair pushes strictly after ``t0``, in order."""
        i = bisect.bisect_right(self.sweep_times, t0)
        return [(self.sweep_times[j], *self.swap(j))
                for j in range(i, len(self.sweep_times))]

    def earliest_swap(self) -> float:
        """Time of the first repair push (``inf`` when there is none)."""
        return self.sweep_times[0] if self.sweep_times else math.inf

    def recovery_latency(self) -> float:
        """Worst fault-to-repair latency over the timeline (0 if none)."""
        return max((t - f for t, f in zip(self.sweep_times,
                                          self._fault_times)), default=0.0)
