"""Pass pipeline over the fabric model, forwarding tables and schedules.

The analyzer is organised like a compiler: an immutable-ish
:class:`CheckContext` (the "IR": fabric + tables + schedule cases) is
threaded through a sequence of :class:`CheckPass` objects, each of which
appends :class:`~repro.check.diagnostics.Diagnostic` findings to a
shared report and may publish *artifacts* (hop matrices, link-load
tensors, certificates) for later passes and callers.

Passes declare what they need (``needs_tables`` / ``needs_schedule``);
the pipeline skips passes whose inputs are absent, so one pipeline
definition serves both "lint this topology file" and "certify this full
(fabric, routing, schedule) triple".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..collectives.cps import CPS
from ..fabric.lft import EntryRoutes, ForwardingTables
from ..fabric.model import Fabric
from .diagnostics import DiagnosticReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.schedule import FaultSchedule

__all__ = [
    "ScheduleCase",
    "CheckContext",
    "CheckPass",
    "CheckResult",
    "Pipeline",
]


@dataclass(frozen=True)
class ScheduleCase:
    """One (CPS, placement) pair to lint/certify.

    ``placement`` is the ``rank_to_port`` vector (slots may hold ``-1``
    for the physical-placement semantics of partially populated jobs);
    ``label`` names the case in diagnostics and certificates.
    """

    cps: CPS
    placement: np.ndarray
    label: str = ""

    def name(self) -> str:
        return self.label or self.cps.name


@dataclass
class CheckContext:
    """Everything a pass may inspect.

    ``tables`` and ``schedule`` are optional -- wiring lint runs on a
    bare fabric.  ``routing_name`` is advisory metadata (which engine
    claims to have produced the tables); the D-Mod-K conformance pass
    keys off it.  ``active`` is the job's active end-port set for
    partially populated (Cont.-X) contexts: job-aware passes -- D-Mod-K
    conformance, the balance lints, the symbolic certifier -- evaluate
    against it instead of the full population.  ``faults`` is an
    optional :class:`~repro.faults.FaultSchedule` for the fault lint.
    ``artifacts`` is the inter-pass scratch space.
    """

    fabric: Fabric
    tables: ForwardingTables | None = None
    schedule: list[ScheduleCase] = field(default_factory=list)
    routing_name: str = ""
    active: np.ndarray | None = None
    faults: "FaultSchedule | None" = None
    artifacts: dict[str, Any] = field(default_factory=dict)
    _entries: dict[bytes | None, EntryRoutes] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def entry_routes(self, ends: np.ndarray | None = None) -> EntryRoutes:
        """``EntryRoutes(self.tables, ends)``, built once per context and
        shared by every pass that reads entry routes.  It is kept off
        ``artifacts``, the pipeline's published outputs."""
        key = None if ends is None \
            else np.asarray(ends, dtype=np.int64).tobytes()
        if key not in self._entries:
            if self.tables is None:
                raise ValueError("entry routes need forwarding tables")
            self._entries[key] = EntryRoutes(self.tables, ends)
        return self._entries[key]

    @classmethod
    def for_tables(cls, tables: ForwardingTables,
                   routing_name: str = "",
                   schedule: list[ScheduleCase] | None = None,
                   active: np.ndarray | None = None,
                   faults: "FaultSchedule | None" = None,
                   ) -> "CheckContext":
        return cls(fabric=tables.fabric, tables=tables,
                   schedule=list(schedule or []), routing_name=routing_name,
                   active=active, faults=faults)


class CheckPass:
    """Base class: subclasses set the class attributes and implement
    :meth:`run`, appending diagnostics to ``report``."""

    #: stable pass name (CLI ``--passes`` selector, JSON summary)
    name: str = "base"
    #: skip when ``ctx.tables`` is None
    needs_tables: bool = False
    #: skip when ``ctx.schedule`` is empty
    needs_schedule: bool = False
    #: skip when ``ctx.faults`` is None
    needs_faults: bool = False

    def applicable(self, ctx: CheckContext) -> bool:
        if self.needs_tables and ctx.tables is None:
            return False
        if self.needs_schedule and not ctx.schedule:
            return False
        if self.needs_faults and ctx.faults is None:
            return False
        return True

    def run(self, ctx: CheckContext, report: DiagnosticReport) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


@dataclass
class CheckResult:
    """Outcome of a pipeline run: the findings plus published artifacts."""

    report: DiagnosticReport
    artifacts: dict[str, Any]
    passes_run: list[str]

    @property
    def certificates(self) -> list[dict[str, Any]]:
        """Machine-readable contention-freedom certificates (may be
        empty when certification was refuted or not requested)."""
        return self.artifacts.get("certificates", [])

    def exit_code(self) -> int:
        return self.report.exit_code()

    def to_json(self) -> dict[str, Any]:
        return {
            "tool": "repro.check",
            "version": 1,
            "passes": self.passes_run,
            "diagnostics": self.report.to_json(),
            "certificates": self.certificates,
            "summary": self.report.summary(),
        }


class Pipeline:
    """An ordered list of passes; running it yields a :class:`CheckResult`.

    Passes whose declared inputs are absent from the context are skipped
    (not errors): the same pipeline lints a bare fabric or certifies a
    fully populated context.
    """

    def __init__(self, passes: list[CheckPass]) -> None:
        self.passes = list(passes)

    def run(self, ctx: CheckContext,
            max_diags_per_code: int = 25) -> CheckResult:
        report = DiagnosticReport(max_diags_per_code=max_diags_per_code)
        ran: list[str] = []
        for p in self.passes:
            if not p.applicable(ctx):
                continue
            p.run(ctx, report)
            ran.append(p.name)
        return CheckResult(report=report, artifacts=ctx.artifacts,
                           passes_run=ran)
