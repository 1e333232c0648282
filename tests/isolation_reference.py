"""Stage-by-stage isolation accounting, kept as a test oracle.

:class:`repro.check.isolation.IsolationPass` counts every traffic
class's flows of a whole case at once: one walk per stage-aligned block
into sparse ``(stage, link, class)`` cells, reduced to per-class worst
loads, flow counts, the interference matrix, the combined load and each
refuted class's first stage.  The pass below is the form it replaced:
one loop over the aligned stages, rebuilding every class's flows per
stage and counting them with a one-stage per-class helper (closed form
or table walk), healthy and on each repaired table.  Tests hold the
artifact, certificates and diagnostics of the package pass to it.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.analysis.hsd import walk_flow_links
from repro.check import isolation as iso
from repro.check.common import colliding_pairs_payload, link_loc
from repro.check.diagnostics import Diagnostic, DiagnosticReport
from repro.check.faultspace import enumerate_fault_units
from repro.check.isolation import ClassSchedule
from repro.check.passes import CheckContext
from repro.check.symbolic import (_sparse_loads, symbolic_flow_links,
                                  symbolic_link_loc)
from repro.collectives.schedule import stage_flows
from repro.fabric.lft import ForwardingTables
from repro.fabric.nodetypes import NodeTypeMap
from repro.routing.repair import repair_tables
from repro.topology.spec import PGFTSpec

from .hsd_reference import stage_class_link_loads

__all__ = ["symbolic_class_loads", "IsolationPass"]


def symbolic_class_loads(
    spec: PGFTSpec, src: np.ndarray, dst: np.ndarray,
    flow_class: np.ndarray, num_classes: int | None = None,
    ridx: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-traffic-class sparse link loads of one stage, from eq. (1).

    :func:`symbolic_flow_links` partitioned by traffic class:
    ``flow_class[i]`` is the class of flow ``i``, and the result is
    ``(links, loads)`` where ``links`` lists the distinct global port
    ids any flow traverses (sorted) and ``loads[c, k]`` counts class-
    ``c`` flows crossing ``links[k]``.  Summing over classes recovers
    :func:`_sparse_loads` of the unpartitioned stage.  This is what
    lets the isolation analyzer *statically* prove per-class
    contention-freedom (``loads[c].max() <= 1`` for class ``c``'s own
    collective) and read off cross-class interference (class-``b`` load
    on links where class ``a`` is present) without tables or
    simulation.
    """
    flow_class = np.asarray(flow_class, dtype=np.int64)
    src = np.asarray(src, dtype=np.int64)
    if flow_class.shape != src.shape:
        raise ValueError("flow_class/src shape mismatch")
    C = int(num_classes) if num_classes is not None \
        else int(flow_class.max()) + 1 if len(flow_class) else 1
    if len(flow_class) and (flow_class.min() < 0 or flow_class.max() >= C):
        raise ValueError("flow_class references a class index out of range")
    flow_idx, gports = symbolic_flow_links(spec, src, dst, ridx)
    links = _sparse_loads(gports)[0]
    if len(links) == 0:
        return links, np.zeros((C, 0), dtype=np.int64)
    col = np.searchsorted(links, gports)
    keys = flow_class[flow_idx] * len(links) + col
    loads = np.bincount(keys, minlength=C * len(links)).reshape(C, len(links))
    return links, loads


def _stage_flows_at(schedules: list[ClassSchedule], k: int,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aligned stage ``k`` of every class, concatenated:
    ``(src, dst, flow_class)`` over end-ports."""
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    fcs: list[np.ndarray] = []
    for cs in schedules:
        if k >= len(cs.cps.stages):
            continue
        src, dst = stage_flows(cs.cps.stages[k], cs.ports)
        if not len(src):
            continue
        srcs.append(src)
        dsts.append(dst)
        fcs.append(np.full(len(src), cs.cls, dtype=np.int64))
    if not srcs:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    return np.concatenate(srcs), np.concatenate(dsts), np.concatenate(fcs)


def _class_loads(engine: str, spec: PGFTSpec | None,
                 tables: ForwardingTables | None,
                 src: np.ndarray, dst: np.ndarray, fc: np.ndarray,
                 num_classes: int, ridx: np.ndarray | None,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Sparse per-class link loads of one aligned stage, via the
    selected engine: ``(links, loads)`` with ``loads[c, k]`` the
    class-``c`` flow count on ``links[k]``."""
    if engine == "symbolic":
        assert spec is not None
        return symbolic_class_loads(spec, src, dst, fc, num_classes, ridx)
    assert tables is not None
    dense = stage_class_link_loads(tables, src, dst, fc, num_classes)
    links = np.flatnonzero(dense.sum(axis=0))
    return links, dense[:, links]


class IsolationPass(iso.IsolationPass):
    """The isolation pass with its per-stage accounting."""

    def _account(self, ctx: CheckContext, engine: str,
                 spec: PGFTSpec | None, types: NodeTypeMap,
                 schedules: list[ClassSchedule],
                 ridx: np.ndarray | None, report: DiagnosticReport,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int,
                            dict[int, dict[str, Any]]]:
        """One pass over the aligned stages: per-class worst link loads,
        flow counts, the interference matrix, the combined worst load,
        and the first counterexample per refuted class (``ISO001``)."""
        C = types.num_types
        worst = np.zeros(C, dtype=np.int64)
        flows = np.zeros(C, dtype=np.int64)
        inter = np.zeros((C, C), dtype=np.int64)
        combined = 0
        violations: dict[int, dict[str, Any]] = {}
        num_stages = max((len(cs.cps.stages) for cs in schedules), default=0)
        for k in range(num_stages):
            src, dst, fc = _stage_flows_at(schedules, k)
            if not len(src):
                continue
            flows += np.bincount(fc, minlength=C)
            links, loads = _class_loads(engine, spec, ctx.tables, src, dst,
                                        fc, C, ridx)
            if not len(links):
                continue
            combined = max(combined, int(loads.sum(axis=0).max()))
            stage_worst = loads.max(axis=1)
            worst = np.maximum(worst, stage_worst)
            for a in range(C):
                occupied = loads[a] >= 1
                if occupied.any():
                    inter[a] = np.maximum(inter[a],
                                          loads[:, occupied].max(axis=1))
            for c in np.flatnonzero(stage_worst > 1):
                if int(c) in violations:
                    continue
                violations[int(c)] = self._violation(
                    ctx, engine, spec, types, int(c), k, src, dst, fc,
                    links, loads, ridx, report)
        return worst, flows, inter, combined, violations

    def _violation(self, ctx: CheckContext, engine: str,
                   spec: PGFTSpec | None, types: NodeTypeMap, c: int,
                   stage: int, src: np.ndarray, dst: np.ndarray,
                   fc: np.ndarray, links: np.ndarray, loads: np.ndarray,
                   ridx: np.ndarray | None, report: DiagnosticReport,
                   ) -> dict[str, Any]:
        """Emit ``ISO001`` with the class's first counterexample: the
        lowest-id link at the class's maximum load, plus the colliding
        same-class pairs."""
        load = int(loads[c].max())
        gp = int(links[loads[c] == load].min())
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
        num_stages = max((len(cs.cps.stages) for cs in schedules), default=0)
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
            dworst = np.zeros(C, dtype=np.int64)
            for k in range(num_stages):
                src, dst, fc = _stage_flows_at(schedules, k)
                if not len(src):
                    continue
                dense = stage_class_link_loads(rep.tables, src, dst, fc, C)
                dworst = np.maximum(dworst, dense.max(axis=1))
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
