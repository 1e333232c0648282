"""Fault-space static analysis (``RQL0xx``): certify degraded-fabric
routing *quality*, not just survival.

PR 5's healing restores reachability after a failure; this module asks
the stronger question statically, for **every** fault the spec admits:
after the repair under test, how good is the degraded routing?  For
each fault unit (any single cable, any single switch; sampled
k-bounded combinations) the sweep

(a) applies the repair under test (:func:`repro.routing.repair`,
    ``naive`` or ``balanced``),
(b) scores the result statically -- surviving-up-port load spread,
    per-link flow multiplicity via the same accounting as
    :mod:`repro.analysis.hsd`, up/down valley freedom on the detoured
    routes (:func:`flow_valleys`, a view over the one route walk
    :meth:`~repro.fabric.lft.ForwardingTables.walk` that raises on a
    broken route exactly like the HSD walker) -- and
(c) obtains a contention certificate or a minimal counterexample for
    the schedule under test through the symbolic certifier's
    incremental mode, so an n324 sweep costs per-fault *deltas*, not
    cold certifications.

The incremental engine is
:meth:`~repro.check.symbolic.SymbolicCertifier.recertify_link_failure`
on one healthy case state: it re-walks only the flows whose healthy
closed-form path crossed a dead cable, through a lookup index built
once per state, and reconstructs the first counterexample from index +
delta.  ``engine="cold"`` re-certifies each degraded fabric from
scratch by enumeration; the two produce bit-identical records (the
test suite diffs them), and ``BENCH_faultspace.json`` tracks the
speedup.

Findings surface as stable ``RQL0xx`` diagnostics through
:class:`FaultSpacePass` (``python -m repro.check --fault-space``); the
full machine-readable sweep lands in the ``faultspace`` artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Iterable, Sequence

import numpy as np

from ..analysis.hsd import walk_flow_links
from ..collectives.cps import CPS
from ..collectives.schedule import stage_flows
from ..fabric.lft import ForwardingTables
from ..fabric.model import Fabric
from ..routing.repair import (
    REPAIR_STRATEGIES,
    RepairReport,
    destination_multiplicity,
    repair_tables,
    score_repair,
)
from .common import colliding_pairs_payload, link_loc, valley_hops
from .diagnostics import Diagnostic, DiagnosticReport, Loc
from .passes import CheckContext, CheckPass
from .symbolic import CaseState, SymbolicCertifier, _sparse_loads

__all__ = [
    "FAULT_UNIT_KINDS",
    "SWEEP_ENGINES",
    "FaultUnit",
    "PreparedFault",
    "FaultRecord",
    "FaultSpaceResult",
    "enumerate_fault_units",
    "sample_fault_combos",
    "prepare_fault_cases",
    "certify_prepared",
    "sweep_fault_space",
    "up_port_spread",
    "flow_valleys",
    "FaultSpacePass",
]

#: fault-unit kinds the enumerator produces
FAULT_UNIT_KINDS = ("cable", "switch")

#: degraded-case certification engines: ``incremental`` reuses the
#: healthy symbolic state, ``cold`` re-enumerates every degraded case
SWEEP_ENGINES = ("incremental", "cold")


# ----------------------------------------------------------------------
# Fault-space enumeration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultUnit:
    """One atomic fault: a cable cut or a switch death.

    ``gports`` lists *both* directed global port ids of every cable the
    unit kills (a cable unit has two, a switch unit two per attached
    cable), sorted -- the exact set handed to
    :meth:`Fabric.with_failed_cables` and the incremental certifier.
    """

    kind: str
    label: str
    gports: tuple[int, ...]
    node: int = -1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_UNIT_KINDS:
            raise ValueError(f"unknown fault-unit kind {self.kind!r}; "
                             f"known: {FAULT_UNIT_KINDS}")


def enumerate_fault_units(fabric: Fabric, units: str = "both",
                          include_host_cables: bool = True,
                          ) -> tuple[FaultUnit, ...]:
    """Every single-fault unit of a fabric, in deterministic order.

    ``units`` selects ``"cable"``, ``"switch"`` or ``"both"``; cables
    come first (by lower global port id), then switches (by node id).
    ``include_host_cables=False`` drops host uplinks -- their loss is a
    disconnection, not a routing problem, so sweeps focused on repair
    quality may exclude them.
    """
    if units not in ("cable", "switch", "both"):
        raise ValueError(f"units must be 'cable', 'switch' or 'both', "
                         f"got {units!r}")
    N = fabric.num_endports
    out: list[FaultUnit] = []
    if units in ("cable", "both"):
        peers = fabric.port_peer
        for gp in range(fabric.num_ports):
            peer = int(peers[gp])
            if peer < gp:        # dead port or canonical side already seen
                continue
            owner = int(fabric.port_owner[gp])
            peer_owner = int(fabric.port_owner[peer])
            if not include_host_cables and (owner < N or peer_owner < N):
                continue
            out.append(FaultUnit(
                kind="cable",
                label=f"cable {fabric.node_names[owner]}/"
                      f"{int(fabric.local_port(gp))}--"
                      f"{fabric.node_names[peer_owner]}/"
                      f"{int(fabric.local_port(peer))}",
                gports=(gp, peer)))
    if units in ("switch", "both"):
        for node in range(N, fabric.num_nodes):
            dead: set[int] = set()
            for gp in fabric.ports_of(node):
                peer = int(fabric.port_peer[gp])
                if peer >= 0:
                    dead.add(int(gp))
                    dead.add(peer)
            if not dead:
                continue
            out.append(FaultUnit(
                kind="switch",
                label=f"switch {fabric.node_names[node]}",
                gports=tuple(sorted(dead)),
                node=node))
    return tuple(out)


def sample_fault_combos(units: Sequence[FaultUnit], max_faults: int,
                        samples: int, seed: int = 0,
                        ) -> tuple[tuple[FaultUnit, ...], ...]:
    """k-bounded multi-fault combinations, deterministically sampled.

    Every single-unit combo is always included (the exhaustive k=1
    layer); for each ``k`` in ``2..max_faults``, ``samples`` distinct
    k-subsets are drawn from a seeded generator.  Combos are tuples in
    enumeration order, with no duplicates.
    """
    combos: list[tuple[FaultUnit, ...]] = [(u,) for u in units]
    if max_faults <= 1 or len(units) < 2:
        return tuple(combos)
    rng = np.random.default_rng(seed)
    seen: set[tuple[int, ...]] = set()
    for k in range(2, max_faults + 1):
        if k > len(units):
            break
        total = math.comb(len(units), k)
        want = min(samples, total)
        guard = 0
        while len([c for c in seen if len(c) == k]) < want:
            pick = tuple(sorted(rng.choice(len(units), size=k,
                                           replace=False).tolist()))
            guard += 1
            if pick in seen:
                if guard > 50 * want:
                    break  # pathological tiny spaces; keep what we have
                continue
            seen.add(pick)
            combos.append(tuple(units[i] for i in pick))
    return tuple(combos)


# ----------------------------------------------------------------------
# Per-fault preparation (repair + static quality)
# ----------------------------------------------------------------------
def up_port_spread(tables: ForwardingTables,
                   active: np.ndarray | None = None,
                   ) -> list[tuple[int, int, int, int]]:
    """Destination spread over each switch's *live* up ports.

    Returns ``(node, live_up_ports, max_load, ceil_bound)`` per switch
    that has at least one live up port, where ``ceil_bound`` is the best
    achievable max (``ceil(total / live)``).  A ``max_load`` above the
    bound means the repair spread detours unevenly -- the ``RQL010``
    condition.  Fully even healthy D-Mod-K meets the bound everywhere.
    """
    fab = tables.fabric
    up = np.flatnonzero(fab.port_goes_up()
                        & (fab.port_owner >= fab.num_endports))
    if not up.size:
        return []
    loads = destination_multiplicity(tables, active=active)[up]
    owner = fab.port_owner[up]
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    live = np.diff(starts, append=len(up))
    bound = -(-np.add.reduceat(loads, starts) // live)
    return list(zip(owner[starts].tolist(), live.tolist(),
                    np.maximum.reduceat(loads, starts).tolist(),
                    bound.tolist()))


def flow_valleys(tables: ForwardingTables, src: np.ndarray,
                 dst: np.ndarray) -> np.ndarray:
    """Indices of flows whose route descends and then ascends again (an
    up*/down* valley, :func:`~repro.check.common.valley_hops`).  Route
    faults raise exactly like
    :func:`repro.analysis.hsd.walk_flow_links`."""
    routes = tables.flow_routes(src, dst)
    routes.raise_fault()
    return np.flatnonzero(valley_hops(tables.fabric, routes).any(axis=1))


@dataclass(frozen=True)
class PreparedFault:
    """One degraded case, repaired and statically scored -- the unit the
    certification engines consume."""

    units: tuple[FaultUnit, ...]
    dead_gports: tuple[int, ...]
    repair: RepairReport
    worst_multiplicity: int
    spread_violations: tuple[tuple[int, int, int, int], ...]
    valley_flows: int = 0

    @property
    def label(self) -> str:
        return " + ".join(u.label for u in self.units)

    @property
    def kind(self) -> str:
        kinds = {u.kind for u in self.units}
        return kinds.pop() if len(kinds) == 1 else "mixed"


def prepare_fault_cases(tables: ForwardingTables,
                        combos: Iterable[tuple[FaultUnit, ...]],
                        strategy: str = "balanced",
                        active: np.ndarray | None = None,
                        check_valleys: bool = True,
                        ) -> list[PreparedFault]:
    """Apply the repair under test to every fault combo and score it.

    The static quality score -- worst-link destination multiplicity,
    per-switch up-port spread violations and up/down valleys on the
    detoured routes -- is engine-independent, so it is computed here
    once; :func:`certify_prepared` then only decides contention freedom.
    """
    fabric = tables.fabric
    active_set = None if active is None else {
        int(a) for a in np.asarray(active, dtype=np.int64)}
    out: list[PreparedFault] = []
    for combo in combos:
        dead = sorted({g for u in combo for g in u.gports})
        degraded = fabric.with_failed_cables(np.asarray(dead, dtype=np.int64))
        rep = repair_tables(tables, degraded, strategy=strategy)
        counts = destination_multiplicity(rep.tables, active=active)
        spread = tuple(
            (node, live, mx, bound)
            for node, live, mx, bound in up_port_spread(rep.tables,
                                                        active=active)
            if mx > bound)
        lost = set(rep.unreachable) if active_set is None else \
            set(rep.unreachable) & active_set
        valleys = 0
        if check_valleys and not lost:
            valleys = _count_valleys(tables, rep.tables, active)
        out.append(PreparedFault(
            units=tuple(combo), dead_gports=tuple(dead), repair=rep,
            worst_multiplicity=int(counts.max()) if counts.size else 0,
            spread_violations=spread, valley_flows=valleys))
    return out


# ----------------------------------------------------------------------
# Certification engines
# ----------------------------------------------------------------------
def _cold_certify(tables: ForwardingTables, cps: CPS,
                  placement: np.ndarray,
                  ) -> tuple[list[int], dict[str, Any] | None]:
    """Cold re-certification of one degraded case by full enumeration;
    the baseline the incremental engine is benchmarked against."""
    maxima: list[int] = []
    violation: dict[str, Any] | None = None
    for i, st in enumerate(cps):
        src, dst = stage_flows(st, placement)
        if not len(src):
            maxima.append(0)
            continue
        flow_idx, gports = walk_flow_links(tables, src, dst)
        ids, counts = _sparse_loads(gports)
        stage_max = int(counts.max()) if len(counts) else 0
        maxima.append(stage_max)
        if stage_max > 1 and violation is None:
            gp = int(ids[int(np.argmax(counts))])
            on_link = np.unique(flow_idx[gports == gp])
            violation = {
                "stage": i, "stage_label": st.label, "gport": gp,
                "link_load": stage_max,
                **colliding_pairs_payload(src, dst, on_link),
            }
    return maxima, violation


# ----------------------------------------------------------------------
# Sweep records and driver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultRecord:
    """Outcome of one fault combo: repair stats, static quality and the
    contention verdict of the schedule under test."""

    label: str
    kind: str
    num_units: int
    dead_cables: int
    strategy: str
    repaired_entries: int
    unreachable: tuple[int, ...]
    worst_multiplicity: int
    spread_violations: tuple[tuple[int, int, int, int], ...]
    valley_flows: int
    stage_maxima: tuple[int, ...]
    verdict: str                       # contention-free | refuted |
    violation: dict[str, Any] | None   # disconnected | unchecked
    gports: tuple[int, ...] = ()

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "label": self.label, "kind": self.kind,
            "num_units": self.num_units, "dead_cables": self.dead_cables,
            "strategy": self.strategy,
            "repaired_entries": self.repaired_entries,
            "unreachable": list(self.unreachable),
            "worst_multiplicity": self.worst_multiplicity,
            "spread_violations": [list(v) for v in self.spread_violations],
            "valley_flows": self.valley_flows,
            "max_link_load": max(self.stage_maxima, default=0),
            "verdict": self.verdict,
        }
        if self.violation is not None:
            out["violation"] = self.violation
        return out


@dataclass
class FaultSpaceResult:
    """A full sweep: one record per fault combo plus engine statistics."""

    records: list[FaultRecord]
    engine: str
    strategy: str
    cps_name: str
    num_stages: int
    healthy_max_multiplicity: int
    load_bound: int
    stages_touched: int = 0
    flows_recomputed: int = 0

    def verdict_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            out[r.verdict] = out.get(r.verdict, 0) + 1
        return {k: out[k] for k in sorted(out)}

    @property
    def certified_fraction(self) -> float:
        checked = [r for r in self.records
                   if r.verdict in ("contention-free", "refuted")]
        if not checked:
            return 0.0
        good = sum(1 for r in checked if r.verdict == "contention-free")
        return good / len(checked)

    def to_json(self) -> dict[str, Any]:
        return {
            "engine": self.engine,
            "strategy": self.strategy,
            "cps": self.cps_name,
            "num_stages": self.num_stages,
            "healthy_max_multiplicity": self.healthy_max_multiplicity,
            "load_bound": self.load_bound,
            "num_faults": len(self.records),
            "verdicts": self.verdict_counts(),
            "certified_fraction": self.certified_fraction,
            "stages_touched": self.stages_touched,
            "flows_recomputed": self.flows_recomputed,
            "records": [r.to_json() for r in self.records],
        }


def certify_prepared(tables: ForwardingTables,
                     prepared: Sequence[PreparedFault],
                     cps: CPS, placement: np.ndarray,
                     active: np.ndarray | None = None,
                     engine: str = "incremental",
                     load_bound: int | None = None,
                     healthy_state: CaseState | None = None,
                     ) -> FaultSpaceResult:
    """Contention-certify every prepared fault under one schedule.

    The certification phase proper: repairs and static scores come in
    via ``prepared`` (see :func:`prepare_fault_cases`), so benchmarking
    this function compares pure incremental-vs-cold certification cost.
    The incremental engine is
    :meth:`SymbolicCertifier.recertify_link_failure` on one healthy
    :class:`CaseState`; ``healthy_state`` lets callers reuse one across
    sweeps (its lookup index is built on first use and stays cached).
    """
    if engine not in SWEEP_ENGINES:
        raise ValueError(f"unknown sweep engine {engine!r}; "
                         f"known: {SWEEP_ENGINES}")
    spec = tables.fabric.spec
    placement = np.asarray(placement, dtype=np.int64)
    healthy_mult = int(destination_multiplicity(tables, active=active).max())
    max_units = max((len(p.units) for p in prepared), default=1)
    bound = load_bound if load_bound is not None \
        else healthy_mult + max_units
    if engine == "incremental":
        if spec is None:
            raise ValueError("the incremental engine needs a PGFT spec "
                             "(symbolic closed form); use engine='cold'")
        certifier = SymbolicCertifier(spec, active)
        if healthy_state is None:
            healthy_state = certifier.certify(cps, placement)[1]
        if healthy_state.link_counts.max(initial=0) > 1:
            raise ValueError(
                "healthy schedule is already refuted; there is no "
                "contention certificate to lose (use engine='cold')")
        recertify = partial(certifier.recertify_link_failure, healthy_state)
    result = FaultSpaceResult(
        records=[], engine=engine, strategy=prepared[0].repair.strategy
        if prepared else "", cps_name=cps.name,
        num_stages=len(cps.stages), healthy_max_multiplicity=healthy_mult,
        load_bound=bound)
    active_set = None if active is None else {
        int(a) for a in np.asarray(active, dtype=np.int64)}
    for p in prepared:
        rep = p.repair
        # Only endpoints the job actually uses block certification: a
        # Cont.-X job is indifferent to a disconnected idle host.
        lost_relevant = rep.unreachable if active_set is None else \
            tuple(sorted(set(rep.unreachable) & active_set))
        if lost_relevant:
            record = FaultRecord(
                label=p.label, kind=p.kind, num_units=len(p.units),
                dead_cables=len(p.dead_gports),
                strategy=rep.strategy,
                repaired_entries=rep.repaired_entries,
                unreachable=rep.unreachable,
                worst_multiplicity=p.worst_multiplicity,
                spread_violations=p.spread_violations,
                valley_flows=p.valley_flows, stage_maxima=(),
                verdict="disconnected", violation=None,
                gports=p.dead_gports)
            result.records.append(record)
            continue
        if engine == "incremental":
            res, stats = recertify(rep.tables, p.dead_gports)
            maxima = res.maxima
            violation = res.violations[0] if res.violations else None
            result.stages_touched += stats.stages_touched
            result.flows_recomputed += stats.flows_recomputed
        else:
            maxima, violation = _cold_certify(rep.tables, cps, placement)
        verdict = "refuted" if max(maxima, default=0) > 1 \
            else "contention-free"
        result.records.append(FaultRecord(
            label=p.label, kind=p.kind, num_units=len(p.units),
            dead_cables=len(p.dead_gports),
            strategy=rep.strategy,
            repaired_entries=rep.repaired_entries,
            unreachable=rep.unreachable,
            worst_multiplicity=p.worst_multiplicity,
            spread_violations=p.spread_violations,
            valley_flows=p.valley_flows,
            stage_maxima=tuple(maxima),
            verdict=verdict, violation=violation,
            gports=p.dead_gports))
    return result


def _count_valleys(base: ForwardingTables, repaired: ForwardingTables,
                   active: np.ndarray | None) -> int:
    """Valley count over the all-to-all flows toward every destination
    whose forwarding entry the repair re-pointed."""
    fab = repaired.fabric
    N = fab.num_endports
    changed = np.flatnonzero((repaired.switch_out != base.switch_out)
                             .any(axis=0))
    if active is not None:
        changed = changed[np.isin(changed, np.asarray(active,
                                                      dtype=np.int64))]
    if not len(changed):
        return 0
    ends = np.arange(N, dtype=np.int64) if active is None \
        else np.unique(np.asarray(active, dtype=np.int64))
    src = np.repeat(ends, len(changed))
    dst = np.tile(changed, len(ends))
    return int(len(flow_valleys(repaired, src, dst)))


def _prepare_space(tables: ForwardingTables, units: str, max_faults: int,
                   samples: int, seed: int, strategy: str,
                   active: np.ndarray | None, include_host_cables: bool,
                   check_valleys: bool) -> list[PreparedFault]:
    """Enumerate, sample, repair and score the fault space of the
    tables' fabric (``strategy="auto"`` keeps the better repair per
    fault)."""
    if strategy not in REPAIR_STRATEGIES + ("auto",):
        raise ValueError(f"unknown repair strategy {strategy!r}")
    units_t = enumerate_fault_units(tables.fabric, units=units,
                                    include_host_cables=include_host_cables)
    combos = sample_fault_combos(units_t, max_faults=max_faults,
                                 samples=samples, seed=seed)
    if strategy != "auto":
        return prepare_fault_cases(tables, combos, strategy=strategy,
                                   active=active, check_valleys=check_valleys)
    nav = prepare_fault_cases(tables, combos, strategy="naive",
                              active=active, check_valleys=check_valleys)
    bal = prepare_fault_cases(tables, combos, strategy="balanced",
                              active=active, check_valleys=check_valleys)
    return [b if score_repair(b.repair) <= score_repair(n.repair) else n
            for n, b in zip(nav, bal)]


def sweep_fault_space(tables: ForwardingTables, cps: CPS,
                      placement: np.ndarray,
                      units: str = "both",
                      max_faults: int = 1,
                      samples: int = 16,
                      seed: int = 0,
                      strategy: str = "balanced",
                      active: np.ndarray | None = None,
                      load_bound: int | None = None,
                      include_host_cables: bool = True,
                      check_valleys: bool = True,
                      ) -> FaultSpaceResult:
    """Enumerate, repair, score and certify the whole fault space.

    The one-call driver: :func:`enumerate_fault_units` +
    :func:`sample_fault_combos` + :func:`prepare_fault_cases` +
    :func:`certify_prepared`.  A fabric with a PGFT spec is certified
    by the incremental engine, which reads the tables as D-Mod-K's; a
    fabric without one by the cold engine.
    """
    prepared = _prepare_space(tables, units, max_faults, samples, seed,
                              strategy, active, include_host_cables,
                              check_valleys)
    return certify_prepared(
        tables, prepared, cps, placement, active=active,
        engine="cold" if tables.fabric.spec is None else "incremental",
        load_bound=load_bound)


# ----------------------------------------------------------------------
# The pipeline pass
# ----------------------------------------------------------------------
class FaultSpacePass(CheckPass):
    """Sweep the fault space of the context's fabric and surface the
    routing-quality findings as ``RQL0xx`` diagnostics.

    Runs one sweep per schedule case, certified incrementally for
    D-Mod-K tables on a fabric with a PGFT spec and cold otherwise.
    Certified degraded cases land as compact per-fault certificates in
    the ``faultspace`` artifact; the diagnostics name (capped per code)
    every fault whose repair loses endpoints, breaks balance, exceeds
    the load bound, valleys, or invalidates the healthy contention
    certificate.
    """

    name = "fault-space"
    needs_tables = True
    needs_schedule = True

    def __init__(self, units: str = "both", max_faults: int = 1,
                 samples: int = 16, seed: int = 0,
                 strategy: str = "balanced",
                 load_bound: int | None = None,
                 check_valleys: bool = True) -> None:
        self.units = units
        self.max_faults = max_faults
        self.samples = samples
        self.seed = seed
        self.strategy = strategy
        self.load_bound = load_bound
        self.check_valleys = check_valleys

    def run(self, ctx: CheckContext, report: DiagnosticReport) -> None:
        tables = ctx.tables
        assert tables is not None
        # the delta engine proves the D-Mod-K closed form
        dmodk = tables.fabric.spec is not None and \
            ctx.routing_name in ("", "dmodk")
        sweeps: dict[str, Any] = {}
        ctx.artifacts["faultspace"] = sweeps
        for case in ctx.schedule:
            try:
                prepared = _prepare_space(
                    tables, self.units, self.max_faults, self.samples,
                    self.seed, self.strategy, ctx.active, True,
                    self.check_valleys)
                result = certify_prepared(
                    tables, prepared, case.cps, case.placement,
                    active=ctx.active,
                    engine="incremental" if dmodk else "cold",
                    load_bound=self.load_bound)
            except ValueError as exc:
                report.add(Diagnostic(
                    code="RQL090",
                    message=f"{case.name()}: fault-space sweep skipped "
                            f"({exc})"))
                continue
            sweeps[case.name()] = result.to_json()
            self._emit(case.name(), result, tables.fabric, report)

    def _emit(self, case: str, result: FaultSpaceResult, fabric: Fabric,
              report: DiagnosticReport) -> None:
        for r in result.records:
            loc = Loc() if not r.gports else \
                link_loc(fabric, int(r.gports[0]))
            if r.unreachable:
                expected = self._expected_losses(fabric, r)
                lost = set(r.unreachable)
                if lost - expected:
                    report.add(Diagnostic(
                        code="RQL001", loc=loc,
                        message=(f"{case}: fault [{r.label}] leaves "
                                 f"{len(lost - expected)} physically "
                                 f"reachable destination(s) unrouted "
                                 f"after {r.strategy} repair: "
                                 f"{sorted(lost - expected)[:8]}"),
                        data={"case": case, "fault": r.label,
                              "unrouted": sorted(lost - expected)}))
                elif r.verdict == "disconnected":
                    report.add(Diagnostic(
                        code="RQL002", loc=loc,
                        message=(f"{case}: fault [{r.label}] disconnects "
                                 f"{len(lost)} end-port(s); repair routes "
                                 "the surviving fabric (certification "
                                 "skipped)"),
                        data={"case": case, "fault": r.label,
                              "lost": sorted(lost)}))
            if r.verdict == "disconnected":
                continue
            if r.spread_violations:
                node, live, mx, bound = r.spread_violations[0]
                report.add(Diagnostic(
                    code="RQL010", loc=loc,
                    message=(f"{case}: fault [{r.label}] + {r.strategy} "
                             f"repair spreads destinations unevenly over "
                             f"{fabric.node_names[node]}'s {live} "
                             f"surviving up ports (max {mx} > ceil bound "
                             f"{bound}); {len(r.spread_violations)} "
                             "switch(es) affected"),
                    data={"case": case, "fault": r.label,
                          "violations": [list(v) for v in
                                         r.spread_violations]}))
            if r.worst_multiplicity > result.load_bound:
                report.add(Diagnostic(
                    code="RQL011", loc=loc,
                    message=(f"{case}: fault [{r.label}] + {r.strategy} "
                             f"repair inflates the worst-link destination "
                             f"multiplicity to {r.worst_multiplicity} "
                             f"(bound {result.load_bound}, healthy "
                             f"{result.healthy_max_multiplicity})"),
                    data={"case": case, "fault": r.label,
                          "worst_multiplicity": r.worst_multiplicity,
                          "load_bound": result.load_bound}))
            if r.valley_flows:
                report.add(Diagnostic(
                    code="RQL030", loc=loc,
                    message=(f"{case}: fault [{r.label}] + {r.strategy} "
                             f"repair routes {r.valley_flows} flow(s) "
                             "through an up-after-down valley "
                             "(deadlock-prone under credit flow control)"),
                    data={"case": case, "fault": r.label,
                          "valley_flows": r.valley_flows}))
            if r.verdict == "refuted":
                v = r.violation or {}
                if "gport" in v:
                    loc = link_loc(fabric, int(v["gport"]),
                                   stage=v.get("stage"))
                report.add(Diagnostic(
                    code="RQL020", loc=loc,
                    message=(f"{case}: fault [{r.label}] invalidates the "
                             f"healthy contention certificate -- stage "
                             f"{v.get('stage')} places "
                             f"{v.get('link_load')} concurrent flows on "
                             f"one directed link after {r.strategy} "
                             "repair"),
                    data={"case": case, "fault": r.label, **v}))
        counts = result.verdict_counts()
        report.add(Diagnostic(
            code="RQL090",
            message=(f"{case}: fault-space sweep covered "
                     f"{len(result.records)} fault(s) "
                     f"[engine={result.engine}, "
                     f"strategy={result.strategy}]: "
                     + ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
                     + f"; certified fraction "
                       f"{result.certified_fraction:.3f}"),
            data={"case": case, **result.to_json()}))

    @staticmethod
    def _expected_losses(fabric: Fabric, r: FaultRecord) -> set[int]:
        """End-ports whose loss is physically forced by the fault: hosts
        whose own uplink died (directly, or with their leaf switch)."""
        N = fabric.num_endports
        lost: set[int] = set()
        for gp in r.gports:
            owner = int(fabric.port_owner[gp])
            if owner < N:
                lost.add(owner)
        return lost
