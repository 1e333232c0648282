"""Traffic-class isolation analysis (``ISO0xx``).

The paper's certificates cover one global collective over one
homogeneous population.  Real clusters are multi-tenant: a compute
population runs its collective while storage targets stream I/O, and
the question becomes **per class** -- does each traffic class stay
contention-free over its *own* collective, and how hard can one class
step on another's links?

This pass answers both questions statically.  For every traffic class
``c`` of the fabric's :class:`~repro.fabric.nodetypes.NodeTypeMap` it
builds the class's own constant-displacement schedule (ranks = the
class's active members, in fabric order).  Stage ``k`` of every class
runs at once.  Every class's flows of the whole case are walked once,
in stage-aligned blocks -- by
:func:`~repro.check.symbolic.symbolic_flow_links` (eq. (1) closed form,
no tables, the engine that scales to 27k+ end-ports) or
:func:`~repro.analysis.hsd.walk_flow_links`'s table walk (for arbitrary
routing engines) -- and counted into sparse ``(stage, link, class)``
cells; verdicts and bounds are array reductions over them.  The pass
derives:

* a **per-class contention verdict**: class ``c`` is contention-free
  iff no directed link ever carries two of its concurrent flows
  (``ISO001`` with a colliding-pairs counterexample otherwise, a
  per-class certificate when proven);
* the **cross-class interference matrix**: ``interference[a][b]`` is
  the maximum number of class-``b`` flows on any link some class-``a``
  flow occupies in the same stage -- a hard static bound that dynamic
  (packet/fluid) simulation of the same schedules can never exceed
  (``ISO012`` when it tops the configured bound);
* **per-type balance lint** (``ISO011``): the theorems need each
  class's routing indices to be *consecutive*; gaps mean eq. (1) no
  longer guarantees the class's own collective (type-aware routing
  restores density by construction);
* **type conformance** (``ISO020``): tables claiming ``typeaware``
  must equal the per-type closed form, entry for entry;
* **degraded-mode isolation** (``ISO030``, opt-in): compose with the
  fault-space machinery -- sample single-fault units, repair, and flag
  classes whose contention-freedom a repaired fabric loses.

``ISO090`` always summarises classes, engine, per-class worst loads
and the interference matrix; the machine-readable result lands in the
``isolation`` artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from ..analysis.hsd import _stage_fault, walk_flow_links
from ..collectives import by_name, sampled_shift
from ..collectives.cps import CPS
from ..collectives.schedule import case_flows
from ..fabric.lft import ForwardingTables
from ..fabric.nodetypes import NodeTypeMap
from ..routing.dmodk import dense_ranks
from ..routing.repair import repair_tables
from ..routing.typeaware import route_typeaware, typed_ranks
from ..runtime.cache import (
    active_digest,
    cps_digest,
    spec_digest,
    tables_digest,
    types_digest,
)
from ..topology.spec import PGFTSpec
from .certify import CERTIFICATE_VERSION, placement_digest
from .common import colliding_pairs_payload, link_loc
from .diagnostics import Diagnostic, DiagnosticReport, Loc
from .faultspace import enumerate_fault_units
from .passes import CheckContext, CheckPass
from .symbolic import (
    _sparse_loads,
    _stage_blocks,
    symbolic_flow_links,
    symbolic_link_loc,
)

__all__ = [
    "ISOLATION_ENGINES",
    "ClassSchedule",
    "build_class_schedules",
    "routing_ranks",
    "IsolationPass",
]

#: isolation accounting engines: ``auto`` prefers the closed form when
#: the routing's rank function is known, else walks the tables
ISOLATION_ENGINES = ("auto", "symbolic", "enumerate")


@dataclass(frozen=True)
class ClassSchedule:
    """One traffic class's own collective: the class index, its active
    members (= placement, fabric order) and the CPS over them."""

    name: str
    cls: int
    ports: np.ndarray
    cps: CPS


def build_class_schedules(types: NodeTypeMap,
                          active: np.ndarray | None = None,
                          cps_name: str = "shift",
                          max_stages: int = 64,
                          ) -> list[ClassSchedule]:
    """Per-class schedules: each class's collective over its own active
    members.  Classes with fewer than two active members get no
    schedule (their collective is vacuous -- ``ISO002``)."""
    active_mask = None
    if active is not None:
        active_mask = np.zeros(types.num_endports, dtype=bool)
        active_mask[np.asarray(active, dtype=np.int64)] = True
    out: list[ClassSchedule] = []
    for ci, name in enumerate(types.type_names):
        ports = types.ports_of(name)
        if active_mask is not None:
            ports = ports[active_mask[ports]]
        if len(ports) < 2:
            continue
        if cps_name == "shift":
            cps = sampled_shift(len(ports), max_stages)
        else:
            cps = by_name(cps_name, len(ports))
        out.append(ClassSchedule(name=name, cls=ci, ports=ports, cps=cps))
    return out


def routing_ranks(routing_name: str, num_endports: int,
                  types: NodeTypeMap | None,
                  active: np.ndarray | None = None,
                  ) -> tuple[np.ndarray | None, bool]:
    """The routing-index vector the named engine applies eq. (1) to.

    Returns ``(ridx, known)``: ``ridx`` is ``None`` for the identity
    ranking, ``known`` is False when the engine's rank function is not
    expressible (random/minhop/ftree tables) -- the symbolic engine and
    the balance lint then do not apply.
    """
    if routing_name == "typeaware":
        return typed_ranks(num_endports, types, active), True
    if routing_name in ("", "dmodk"):
        if active is None:
            return None, True
        return dense_ranks(num_endports, active), True
    return None, False


class _ClassFlows(NamedTuple):
    """Every class's flows of the whole case, stage-major: stage ``k``
    holds each class's stage-``k`` flows, class after class in schedule
    order."""

    src: np.ndarray
    dst: np.ndarray
    stage: np.ndarray
    cls: np.ndarray


def _class_flows(schedules: list[ClassSchedule]) -> _ClassFlows:
    parts = [case_flows(cs.cps, cs.ports) for cs in schedules]
    cols = [np.concatenate([p[i] for p in parts] + [np.empty(0, np.int64)])
            for i in range(3)]
    cols.append(np.repeat([cs.cls for cs in schedules],
                          [len(p[0]) for p in parts]).astype(np.int64))
    del parts   # free the per-class columns before the sorted copies
    order = np.argsort(cols[2], kind="stable")
    return _ClassFlows(*(col[order] for col in cols))


class _ClassLoads(NamedTuple):
    """Per-class link loads of a whole case.  ``refuted`` maps each
    class some link carries two of to ``(stage, load, gport)``: its
    first such stage, its worst load there and the lowest link at it.
    ``fault`` is the error of the first stage with a faulty route;
    counting stops before that stage."""

    worst: np.ndarray       # (C,) worst per-class link load
    inter: np.ndarray       # (C, C) interference matrix
    combined: int           # worst link load over all classes
    refuted: dict[int, tuple[int, int, int]]
    fault: str | None


def _count_classes(flows: _ClassFlows, num_classes: int,
                   spec: PGFTSpec | None, ridx: np.ndarray | None,
                   tables: ForwardingTables | None) -> _ClassLoads:
    """Walk the case once in stage-aligned blocks -- by the closed form
    over ``ridx`` when ``tables`` is None, else through the tables (a
    fault named by :func:`~repro.analysis.hsd._stage_fault`) -- and count
    the crossed links per sparse ``(stage, link, class)`` cell.  A
    block's cells are sorted by link, so one column of ``load`` per
    ``(stage, link)`` holds every class's count on it, and every
    statistic is a reduction over those columns, folded across
    blocks."""
    C = num_classes
    worst = np.zeros(C, dtype=np.int64)
    inter = np.zeros((C, C), dtype=np.int64)
    combined = 0
    refuted: dict[int, tuple[int, int, int]] = {}
    fault: str | None = None
    for lo, hi in _stage_blocks(flows.stage):
        src, dst = flows.src[lo:hi], flows.dst[lo:hi]
        stage = flows.stage[lo:hi]
        stage_fault = None
        if tables is None:
            assert spec is not None
            fi, gp = symbolic_flow_links(spec, src, dst, ridx)
        else:
            routes = tables.flow_routes(src, dst)
            fi, gp = routes.flat()
            stage_fault = _stage_fault(routes, stage)
        if stage_fault is not None:
            keep = stage[fi] < stage_fault[0]
            fi, gp, fault = fi[keep], gp[keep], stage_fault[1]
        P = int(gp.max()) + 1 if len(gp) else 1
        keys, counts = _sparse_loads(
            (stage[fi] * P + gp) * C + flows.cls[lo:hi][fi])
        if len(keys):
            link = keys // C                    # stage * P + gport
            head = np.r_[True, link[1:] != link[:-1]]
            links = link[head]
            load = np.zeros((C, len(links)), dtype=np.int64)
            load[keys % C, np.cumsum(head) - 1] = counts
            block_worst = load.max(axis=1)
            worst = np.maximum(worst, block_worst)
            combined = max(combined, int(load.sum(axis=0).max()))
            for a in np.flatnonzero(block_worst):
                inter[a] = np.maximum(inter[a],
                                      load[:, load[a] >= 1].max(axis=1))
            for c in np.flatnonzero(block_worst > 1).tolist():
                if c in refuted:
                    continue
                k = int(links[np.argmax(load[c] > 1)] // P)
                at_k = links // P == k
                peak = int(load[c, at_k].max())
                gport = int(links[np.argmax(at_k & (load[c] == peak))] % P)
                refuted[c] = (k, peak, gport)
        if fault is not None:
            break
    return _ClassLoads(worst, inter, combined, refuted, fault)


class IsolationPass(CheckPass):
    """Per-traffic-class contention certification, cross-class
    interference bounding and type-aware routing lint (``ISO0xx``)."""

    name = "isolation"

    def __init__(self, types: NodeTypeMap | None = None,
                 cps_name: str = "shift",
                 max_stages: int = 64,
                 bound: int | None = None,
                 engine: str = "auto",
                 check_conformance: bool = True,
                 fault_units: str | None = None,
                 fault_samples: int = 4,
                 fault_strategy: str = "balanced") -> None:
        if engine not in ISOLATION_ENGINES:
            raise ValueError(f"unknown isolation engine {engine!r}; "
                             f"known: {ISOLATION_ENGINES}")
        self.types = types
        self.cps_name = cps_name
        self.max_stages = max_stages
        self.bound = bound
        self.engine = engine
        self.check_conformance = check_conformance
        self.fault_units = fault_units
        self.fault_samples = fault_samples
        self.fault_strategy = fault_strategy

    # -- engine / input resolution ----------------------------------------
    def _resolve_types(self, ctx: CheckContext,
                       report: DiagnosticReport) -> NodeTypeMap:
        types = self.types if self.types is not None \
            else ctx.fabric.node_types
        if types is None:
            report.add(Diagnostic(
                code="ISO010",
                message="fabric carries no node-type map: all "
                        f"{ctx.fabric.num_endports} end-ports are untyped; "
                        "analysing as one homogeneous class (tag types via "
                        "Fabric.node_types or --types)"))
            types = NodeTypeMap.uniform(ctx.fabric.num_endports)
        return types

    def _resolve_engine(self, ctx: CheckContext, ridx_known: bool) -> str:
        spec = ctx.fabric.spec
        symbolic_ok = spec is not None and ridx_known
        enumerate_ok = ctx.tables is not None
        if self.engine == "symbolic":
            return "symbolic" if symbolic_ok else "none"
        if self.engine == "enumerate":
            return "enumerate" if enumerate_ok else "none"
        if symbolic_ok:
            return "symbolic"
        if enumerate_ok:
            return "enumerate"
        return "none"

    # -- the pass ----------------------------------------------------------
    def run(self, ctx: CheckContext, report: DiagnosticReport) -> None:
        types = self._resolve_types(ctx, report)
        spec = ctx.fabric.spec
        N = ctx.fabric.num_endports
        ridx, ridx_known = routing_ranks(ctx.routing_name, N, types,
                                         ctx.active)
        engine = self._resolve_engine(ctx, ridx_known)
        if engine == "none":
            report.add(Diagnostic(
                code="ISO090",
                message="isolation analysis skipped: the symbolic engine "
                        "needs a PGFT spec and a D-Mod-K-family routing "
                        f"({ctx.routing_name or 'dmodk'!r} given), the "
                        "enumerating engine needs materialised tables"))
            return

        schedules = build_class_schedules(types, active=ctx.active,
                                          cps_name=self.cps_name,
                                          max_stages=self.max_stages)
        scheduled = {cs.cls for cs in schedules}
        counts = types.counts()
        for ci, name in enumerate(types.type_names):
            if ci not in scheduled and counts[name] > 0:
                report.add(Diagnostic(
                    code="ISO002",
                    message=f"class {name!r} has fewer than two active "
                            "members; its own collective is vacuous and "
                            "certifies trivially"))

        if ridx_known:
            self._check_balance(types, schedules, ridx, report)
        if self.check_conformance:
            self._check_conformance(ctx, types, report)

        worst, flows, inter, combined, violations = self._account(
            ctx, engine, spec, types, schedules, ridx, report)

        if self.bound is not None:
            self._check_bound(types, inter, report)

        certs = self._certify(ctx, engine, spec, types, schedules, worst,
                              flows, inter)
        ctx.artifacts.setdefault("certificates", []).extend(certs)

        degraded: list[dict[str, Any]] = []
        if self.fault_units is not None and ctx.tables is not None:
            degraded = self._check_degraded(ctx, types, schedules, worst,
                                            report)

        C = types.num_types
        inter_json = {
            types.type_names[a]: {
                types.type_names[b]: int(inter[a, b])
                for b in range(C) if b != a}
            for a in range(C)}
        cross = max((int(inter[a, b]) for a in range(C) for b in range(C)
                     if a != b), default=0)
        summary: dict[str, Any] = {
            "engine": engine,
            "routing": ctx.routing_name or "dmodk",
            "cps": self.cps_name,
            "classes": counts,
            "per_class_worst": {cs.name: int(worst[cs.cls])
                                for cs in schedules},
            "per_class_flows": {cs.name: int(flows[cs.cls])
                                for cs in schedules},
            "interference": inter_json,
            "cross_class_bound": cross,
            "max_combined_load": combined,
            "bound": self.bound,
            "certified": len(certs),
            "refuted": len(violations),
            "degraded": degraded,
        }
        ctx.artifacts["isolation"] = summary
        report.add(Diagnostic(
            code="ISO090",
            message=(f"isolation [{engine}]: "
                     f"{len(schedules)} class(es) analysed "
                     f"({', '.join(f'{k}={v}' for k, v in sorted(counts.items()))}); "
                     f"{len(certs)} certified, {len(violations)} refuted; "
                     f"cross-class interference bound {cross}, "
                     f"combined worst link load {combined}"),
            data=summary))

    # -- accounting --------------------------------------------------------
    def _account(self, ctx: CheckContext, engine: str,
                 spec: PGFTSpec | None, types: NodeTypeMap,
                 schedules: list[ClassSchedule],
                 ridx: np.ndarray | None, report: DiagnosticReport,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int,
                            dict[int, dict[str, Any]]]:
        """One count of the whole case: per-class worst link loads, flow
        counts, the interference matrix, the combined worst load, and
        the first counterexample per refuted class (``ISO001``, in
        stage order)."""
        C = types.num_types
        flows = _class_flows(schedules)
        tables = ctx.tables if engine == "enumerate" else None
        loads = _count_classes(flows, C, spec, ridx, tables)
        violations = {
            c: self._violation(ctx, engine, spec, types, c, *loads.refuted[c],
                               flows, ridx, report)
            for c in sorted(loads.refuted,
                            key=lambda c: (loads.refuted[c][0], c))}
        if loads.fault is not None:
            raise ValueError(loads.fault)
        return (loads.worst, np.bincount(flows.cls, minlength=C), loads.inter,
                loads.combined, violations)

    def _violation(self, ctx: CheckContext, engine: str,
                   spec: PGFTSpec | None, types: NodeTypeMap, c: int,
                   stage: int, load: int, gp: int, flows: _ClassFlows,
                   ridx: np.ndarray | None, report: DiagnosticReport,
                   ) -> dict[str, Any]:
        """Emit ``ISO001`` with the class's first counterexample: the
        lowest-id link at the class's maximum load in its first refuted
        stage, plus the colliding same-class pairs (one walk of that
        stage)."""
        lo, hi = np.searchsorted(flows.stage, [stage, stage + 1])
        src, dst, fc = flows.src[lo:hi], flows.dst[lo:hi], flows.cls[lo:hi]
        if engine == "symbolic":
            assert spec is not None
            flow_idx, gports = symbolic_flow_links(spec, src, dst, ridx)
            loc = symbolic_link_loc(spec, gp, stage=stage)
        else:
            assert ctx.tables is not None
            flow_idx, gports = walk_flow_links(ctx.tables, src, dst)
            loc = link_loc(ctx.fabric, gp, stage=stage)
        on_link = np.unique(
            flow_idx[(gports == gp) & (fc[flow_idx] == c)])
        name = types.type_names[c]
        payload = {
            "class": name, "stage": stage, "gport": gp, "link_load": load,
            **colliding_pairs_payload(src, dst, on_link),
        }
        report.add(Diagnostic(
            code="ISO001", loc=loc,
            message=(f"class {name!r} is not contention-free over its own "
                     f"{self.cps_name} collective: stage {stage} places "
                     f"{load} concurrent class-{name} flows on one "
                     f"directed link under "
                     f"{ctx.routing_name or 'dmodk'} routing "
                     "(type-aware routing restores per-class density)"),
            data=payload))
        return payload

    # -- lint sub-checks ---------------------------------------------------
    def _check_balance(self, types: NodeTypeMap,
                       schedules: list[ClassSchedule],
                       ridx: np.ndarray | None,
                       report: DiagnosticReport) -> None:
        """``ISO011``: each class's routing indices must be consecutive
        (the precondition of the paper's lemmas, applied per class)."""
        for cs in schedules:
            r = np.arange(types.num_endports,
                          dtype=np.int64)[cs.ports] if ridx is None \
                else np.asarray(ridx, dtype=np.int64)[cs.ports]
            gaps = np.flatnonzero(np.diff(r) != 1)
            if not len(gaps):
                continue
            g = int(gaps[0])
            report.add(Diagnostic(
                code="ISO011",
                loc=Loc(lid=int(cs.ports[g + 1])),
                message=(f"class {cs.name!r} routing indices are not "
                         f"consecutive under the routing in effect: "
                         f"{len(gaps)} gap(s), first between members "
                         f"{int(cs.ports[g])} (index {int(r[g])}) and "
                         f"{int(cs.ports[g + 1])} (index {int(r[g + 1])}); "
                         "eq. (1) no longer guarantees this class's own "
                         "collective -- route type-aware"),
                data={"class": cs.name, "gaps": int(len(gaps)),
                      "first_gap_ports": [int(cs.ports[g]),
                                          int(cs.ports[g + 1])]}))

    def _check_conformance(self, ctx: CheckContext, types: NodeTypeMap,
                           report: DiagnosticReport) -> None:
        """``ISO020``: tables claiming ``typeaware`` must equal the
        per-type closed form entry for entry."""
        if ctx.routing_name != "typeaware" or ctx.tables is None \
                or ctx.fabric.spec is None:
            return
        want = route_typeaware(ctx.fabric, types, active=ctx.active)
        bad = np.flatnonzero(
            (ctx.tables.switch_out != want.switch_out).any(axis=1))
        host_bad = 0
        if ctx.tables.host_up is not None and want.host_up is not None:
            host_bad = int((ctx.tables.host_up != want.host_up).sum())
        if not len(bad) and not host_bad:
            return
        loc = Loc()
        if len(bad):
            node = ctx.fabric.num_endports + int(bad[0])
            loc = Loc(switch=ctx.fabric.node_names[node])
        report.add(Diagnostic(
            code="ISO020", loc=loc,
            message=(f"tables claim 'typeaware' but diverge from the "
                     f"per-type closed form: {len(bad)} switch(es) "
                     f"and {host_bad} host entr(ies) differ; the fabric "
                     "is not routed for its node-type map"),
            data={"switches_differing": int(len(bad)),
                  "host_entries_differing": host_bad}))

    def _check_bound(self, types: NodeTypeMap, inter: np.ndarray,
                     report: DiagnosticReport) -> None:
        """``ISO012``: cross-class link sharing above the declared
        interference bound."""
        assert self.bound is not None
        C = types.num_types
        for a in range(C):
            for b in range(C):
                if a == b or inter[a, b] <= self.bound:
                    continue
                na, nb = types.type_names[a], types.type_names[b]
                report.add(Diagnostic(
                    code="ISO012",
                    message=(f"cross-class interference above bound: up to "
                             f"{int(inter[a, b])} class-{nb!r} flow(s) "
                             f"share a directed link with class {na!r} "
                             f"traffic (declared bound {self.bound})"),
                    data={"victim": na, "aggressor": nb,
                          "interference": int(inter[a, b]),
                          "bound": self.bound}))

    # -- certificates ------------------------------------------------------
    def _certify(self, ctx: CheckContext, engine: str,
                 spec: PGFTSpec | None, types: NodeTypeMap,
                 schedules: list[ClassSchedule], worst: np.ndarray,
                 flows: np.ndarray, inter: np.ndarray,
                 ) -> list[dict[str, Any]]:
        certs: list[dict[str, Any]] = []
        C = types.num_types
        for cs in schedules:
            if worst[cs.cls] > 1 or flows[cs.cls] == 0:
                continue
            cross = max((int(inter[cs.cls, b]) for b in range(C)
                         if b != cs.cls), default=0)
            cert: dict[str, Any] = {
                "kind": "traffic-class-isolation-certificate",
                "version": CERTIFICATE_VERSION,
                "certificate_kind": "symbolic" if engine == "symbolic"
                                    else "enumerated",
                "case": f"isolation/{self.cps_name}/{cs.name}",
                "topology": str(spec) if spec is not None else None,
                "num_endports": int(ctx.fabric.num_endports),
                "routing": ctx.routing_name or "dmodk",
                "node_type": cs.name,
                "class_size": int(len(cs.ports)),
                "cps": cs.cps.name,
                "num_stages": len(cs.cps.stages),
                "num_flows": int(flows[cs.cls]),
                "max_link_load": int(worst[cs.cls]),
                "cross_class_interference": cross,
                "types_digest": types_digest(types),
                "cps_digest": cps_digest(cs.cps),
                "placement_digest": placement_digest(cs.ports),
                "active_digest": active_digest(ctx.fabric.num_endports,
                                               ctx.active),
                "verdict": "contention-free",
            }
            if spec is not None:
                cert["spec_digest"] = spec_digest(spec)
            if ctx.tables is not None and engine == "enumerate":
                cert["tables_digest"] = tables_digest(ctx.tables)
            certs.append(cert)
        return certs

    # -- degraded-mode composition ----------------------------------------
    def _check_degraded(self, ctx: CheckContext, types: NodeTypeMap,
                        schedules: list[ClassSchedule], healthy: np.ndarray,
                        report: DiagnosticReport) -> list[dict[str, Any]]:
        """``ISO030``: sample single-fault units, repair, and re-derive
        the per-class worst loads by enumeration on the repaired tables
        -- a class losing its healthy contention-freedom is an isolation
        regression the healthy certificate does not cover."""
        tables = ctx.tables
        assert tables is not None
        units = enumerate_fault_units(ctx.fabric, units=self.fault_units
                                      or "cable",
                                      include_host_cables=False)
        if not units:
            return []
        take = np.unique(np.linspace(0, len(units) - 1,
                                     num=min(self.fault_samples, len(units)),
                                     dtype=np.int64))
        used = np.unique(np.concatenate([cs.ports for cs in schedules])) \
            if schedules else np.empty(0, dtype=np.int64)
        C = types.num_types
        flows = _class_flows(schedules)
        out: list[dict[str, Any]] = []
        for ui in take:
            unit = units[int(ui)]
            degraded = ctx.fabric.with_failed_cables(
                np.asarray(unit.gports, dtype=np.int64))
            rep = repair_tables(tables, degraded,
                                strategy=self.fault_strategy)
            lost = sorted(set(rep.unreachable) & set(used.tolist()))
            if lost:
                out.append({"fault": unit.label, "verdict": "disconnected",
                            "lost": [int(x) for x in lost]})
                continue
            loads = _count_classes(flows, C, None, None, rep.tables)
            if loads.fault is not None:
                raise ValueError(loads.fault)
            dworst = loads.worst
            regressed = [cs for cs in schedules
                         if dworst[cs.cls] > max(int(healthy[cs.cls]), 1)]
            out.append({
                "fault": unit.label,
                "verdict": "regressed" if regressed else "isolated",
                "per_class_worst": {cs.name: int(dworst[cs.cls])
                                    for cs in schedules}})
            for cs in regressed:
                report.add(Diagnostic(
                    code="ISO030",
                    loc=link_loc(ctx.fabric, int(unit.gports[0])),
                    message=(f"fault [{unit.label}] + "
                             f"{self.fault_strategy} repair breaks class "
                             f"{cs.name!r} isolation: its own collective's "
                             f"worst link load rises from "
                             f"{int(healthy[cs.cls])} to "
                             f"{int(dworst[cs.cls])}"),
                    data={"fault": unit.label, "class": cs.name,
                          "healthy_worst": int(healthy[cs.cls]),
                          "degraded_worst": int(dworst[cs.cls])}))
        return out
