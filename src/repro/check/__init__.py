"""``repro.check`` -- pass-based static fabric analyzer.

One diagnostics-producing subsystem for everything that used to be
scattered ad-hoc validators: wiring lint (``FAB0xx``), forwarding-table
lint (``RTE0xx``), collective-schedule lint (``SCH0xx``) and the
contention-freedom certifier (``CFC0xx``) that either emits a
machine-readable certificate or a minimal counterexample -- all without
running the simulator.

Typical use::

    from repro.check import CheckContext, ScheduleCase, run_check

    ctx = CheckContext.for_tables(tables, routing_name="dmodk",
                                  schedule=[ScheduleCase(cps, order)])
    result = run_check(ctx)
    print(result.report.render_text())
    result.certificates        # [] unless every stage has link load <= 1

or from the command line::

    python -m repro.check --topo n324 --routing dmodk --cps shift

See ``docs/CHECKS.md`` for the diagnostic-code catalogue.
"""

from __future__ import annotations

import numpy as np

from ..fabric.lft import ForwardingTables
from .certify import ContentionCertifierPass, placement_digest
from .common import colliding_pairs_payload, link_loc, sample_pairs
from .diagnostics import (
    CODES,
    Diagnostic,
    DiagnosticReport,
    Loc,
    Severity,
    describe_code,
)
from .fault_lint import FaultSchedulePass
from .faultspace import (
    FaultRecord,
    FaultSpacePass,
    FaultSpaceResult,
    FaultUnit,
    PreparedFault,
    enumerate_fault_units,
    flow_valleys,
    prepare_fault_cases,
    sample_fault_combos,
    sweep_fault_space,
    up_port_spread,
)
from .isolation import (
    ISOLATION_ENGINES,
    ClassSchedule,
    IsolationPass,
    build_class_schedules,
    routing_ranks,
)
from .passes import CheckContext, CheckPass, CheckResult, Pipeline, ScheduleCase
from .routing_lint import (
    CdgCyclePass,
    DmodkConformancePass,
    DownPortBalancePass,
    MinimalityPass,
    ReachabilityPass,
    UpDownPass,
    UpPortBalancePass,
)
from .schedule_lint import PlacementLintPass, StageLintPass
from .symbolic import (
    EngineAgreementPass,
    IncrementalStats,
    SymbolicCertifier,
    SymbolicContentionPass,
    SymbolicResult,
    canonical_peer,
    symbolic_flow_links,
)
from .wiring import SpecConformancePass, WiringLintPass

__all__ = [
    "CODES",
    "CdgCyclePass",
    "CheckContext",
    "CheckPass",
    "CheckResult",
    "ClassSchedule",
    "ContentionCertifierPass",
    "Diagnostic",
    "DiagnosticReport",
    "DmodkConformancePass",
    "DownPortBalancePass",
    "ENGINES",
    "EngineAgreementPass",
    "FaultRecord",
    "FaultSchedulePass",
    "FaultSpacePass",
    "FaultSpaceResult",
    "FaultUnit",
    "ISOLATION_ENGINES",
    "IncrementalStats",
    "IsolationPass",
    "Loc",
    "MinimalityPass",
    "Pipeline",
    "PlacementLintPass",
    "PreparedFault",
    "ReachabilityPass",
    "ScheduleCase",
    "Severity",
    "SpecConformancePass",
    "StageLintPass",
    "SymbolicCertifier",
    "SymbolicContentionPass",
    "SymbolicResult",
    "UpDownPass",
    "UpPortBalancePass",
    "WiringLintPass",
    "build_class_schedules",
    "canonical_peer",
    "colliding_pairs_payload",
    "default_pipeline",
    "describe_code",
    "enumerate_fault_units",
    "flow_valleys",
    "link_loc",
    "placement_digest",
    "precheck_tables",
    "prepare_fault_cases",
    "routing_ranks",
    "run_check",
    "sample_fault_combos",
    "sample_pairs",
    "sweep_fault_space",
    "symbolic_flow_links",
    "up_port_spread",
]

#: pass names in canonical pipeline order (CLI ``--passes`` accepts these)
PASS_ORDER = (
    "wiring",
    "spec-conformance",
    "reachability",
    "up-down",
    "cdg",
    "dmodk-conformance",
    "down-balance",
    "up-balance",
    "minimality",
    "placement",
    "stage",
    "faults",
    "certify",
    "symbolic-certify",
    "differential",
    "fault-space",
    "isolation",
)

#: certification engines accepted by ``default_pipeline``/``run_check``
#: (and the CLI's ``--engine``): ``enumerate`` walks materialised
#: tables, ``symbolic`` proves from the closed form, ``both`` runs the
#: two and cross-checks them (``SYM090`` on any disagreement).
ENGINES = ("enumerate", "symbolic", "both")


def default_pipeline(
    only: set[str] | None = None,
    updown_sample: int | None = 250_000,
    certify: bool = True,
    engine: str = "enumerate",
    symbolic_active: np.ndarray | None = None,
    fault_space: dict | None = None,
    isolation: dict | None = None,
) -> Pipeline:
    """The canonical full pipeline, optionally restricted to ``only``.

    Passes whose inputs are absent from the context skip themselves, so
    this single pipeline serves bare-fabric lint, table lint and full
    certification alike.  ``engine`` selects the certification
    engine(s); ``symbolic_active`` is the job's active end-port set for
    job-aware symbolic certification (Cont.-X).

    The fault-space sweep is opt-in (it certifies *hundreds* of
    degraded fabrics): pass ``fault_space`` -- keyword arguments for
    :class:`FaultSpacePass`, ``{}`` for the defaults -- or name
    ``"fault-space"`` in ``only``.  The traffic-class isolation
    analyzer is opt-in the same way: pass ``isolation`` -- keyword
    arguments for :class:`IsolationPass`, ``{}`` for the defaults --
    or name ``"isolation"`` in ``only``.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {list(ENGINES)}")
    passes: list[CheckPass] = [
        WiringLintPass(),
        SpecConformancePass(),
        ReachabilityPass(),
        UpDownPass(sample=updown_sample),
        CdgCyclePass(),
        DmodkConformancePass(),
        DownPortBalancePass(),
        UpPortBalancePass(),
        MinimalityPass(),
        PlacementLintPass(),
        StageLintPass(),
        FaultSchedulePass(),
    ]
    if certify:
        if engine in ("enumerate", "both"):
            passes.append(ContentionCertifierPass())
        if engine in ("symbolic", "both"):
            passes.append(SymbolicContentionPass(active=symbolic_active))
        if engine == "both":
            passes.append(EngineAgreementPass())
    if fault_space is not None or (only is not None and "fault-space" in only):
        passes.append(FaultSpacePass(**(fault_space or {})))
    if isolation is not None or (only is not None and "isolation" in only):
        passes.append(IsolationPass(**(isolation or {})))
    if only is not None:
        unknown = only - set(PASS_ORDER)
        if unknown:
            raise ValueError(f"unknown pass name(s): {sorted(unknown)}; "
                             f"known: {list(PASS_ORDER)}")
        passes = [p for p in passes if p.name in only]
    return Pipeline(passes)


def run_check(ctx: CheckContext,
              only: set[str] | None = None,
              updown_sample: int | None = 250_000,
              certify: bool = True,
              engine: str = "enumerate",
              symbolic_active: np.ndarray | None = None,
              fault_space: dict | None = None,
              isolation: dict | None = None,
              max_diags_per_code: int = 25) -> CheckResult:
    """Run the default pipeline over a prepared context."""
    pipeline = default_pipeline(only=only, updown_sample=updown_sample,
                                certify=certify, engine=engine,
                                symbolic_active=symbolic_active,
                                fault_space=fault_space,
                                isolation=isolation)
    return pipeline.run(ctx, max_diags_per_code=max_diags_per_code)


def precheck_tables(tables: ForwardingTables,
                    routing_name: str = "",
                    updown_sample: int | None = 50_000,
                    ) -> CheckResult:
    """Fast input gate for the experiment drivers (``--check``).

    Lints the wiring and the forwarding tables (no schedule passes, no
    certification) with a bounded up*/down* sample, so even the
    1944-port sweeps can afford it before committing hours of compute.
    """
    ctx = CheckContext.for_tables(tables, routing_name=routing_name)
    only = {"wiring", "spec-conformance", "reachability", "up-down", "cdg",
            "dmodk-conformance", "down-balance"}
    return run_check(ctx, only=only, updown_sample=updown_sample,
                     certify=False)
