"""Stage-by-stage reference bodies of the link-load counts, kept as a
test oracle.

The package counts flows per directed link with one kernel
(:func:`repro.analysis.hsd._count_links`): a block of stages is walked
through the tables at once and counted with one keyed ``bincount``.
The functions and the pass below are the forms it replaced: one walk
per stage and an ``np.add.at`` or ``bincount`` per walk.  Tests hold
every public view to these, output for output: loads, maxima,
``CFC001``/``RTE001`` diagnostics and error texts.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.hsd import (BatchedHSDReport, HSDReport,
                                _switch_link_mask, walk_flow_links)
from repro.analysis.levels import LevelProfile, link_classes
from repro.check.certify import (CERTIFICATE_VERSION,
                                 ContentionCertifierPass, placement_digest)
from repro.check.common import colliding_pairs_payload, link_loc
from repro.check.diagnostics import Diagnostic
from repro.collectives.schedule import stage_flows
from repro.runtime.cache import tables_digest

__all__ = ["stage_link_loads", "stage_class_link_loads", "stage_max_hsd",
           "sequence_hsd", "stage_flows_batch", "batched_sequence_hsd",
           "batched_avg_max", "sequence_level_profile",
           "link_byte_loads", "ReferenceCertifierPass"]


def stage_link_loads(tables, src, dst):
    """Flows per directed link for one stage."""
    _, gports = walk_flow_links(tables, src, dst)
    loads = np.zeros(tables.fabric.num_ports, dtype=np.int64)
    np.add.at(loads, gports, 1)
    return loads


def stage_class_link_loads(tables, src, dst, flow_class, num_classes=None):
    """Per-class flows per directed link for one stage."""
    flow_class = np.asarray(flow_class, dtype=np.int64)
    src = np.asarray(src, dtype=np.int64)
    if flow_class.shape != src.shape:
        raise ValueError("flow_class/src shape mismatch")
    C = int(num_classes) if num_classes is not None \
        else int(flow_class.max()) + 1 if len(flow_class) else 1
    if len(flow_class) and (flow_class.min() < 0 or flow_class.max() >= C):
        raise ValueError("flow_class references a class index out of range")
    num_ports = tables.fabric.num_ports
    flow_idx, gports = walk_flow_links(tables, src, dst)
    keys = flow_class[flow_idx] * num_ports + gports
    return np.bincount(keys, minlength=C * num_ports).reshape(C, num_ports)


def stage_max_hsd(tables, src, dst, switch_links_only=False):
    """Maximum flows per link for one stage."""
    loads = stage_link_loads(tables, src, dst)
    if switch_links_only:
        loads = loads[_switch_link_mask(tables)]
    return int(loads.max()) if len(loads) else 0


def sequence_hsd(tables, cps, rank_to_port, switch_links_only=False):
    """Per-stage maxima, one walk per non-empty stage."""
    maxima = []
    for st in cps:
        src, dst = stage_flows(st, rank_to_port)
        if len(src) == 0:
            continue
        maxima.append(stage_max_hsd(tables, src, dst, switch_links_only))
    return HSDReport(cps_name=cps.name,
                     stage_max=np.asarray(maxima, dtype=np.int64))


def stage_flows_batch(stage, placements):
    """Flows of one stage under every placement row, row-major, with the
    row each flow came from."""
    placements = np.asarray(placements, dtype=np.int64)
    if placements.ndim != 2:
        raise ValueError("placements must be (num_orders, L)")
    num_orders, L = placements.shape
    pairs = stage.pairs
    keep = (pairs[:, 0] < L) & (pairs[:, 1] < L)
    p = pairs[keep]
    src = placements[:, p[:, 0]]
    dst = placements[:, p[:, 1]]
    order = np.broadcast_to(
        np.arange(num_orders, dtype=np.int64)[:, None], src.shape
    )
    ok = ~((src == dst) | (src < 0) | (dst < 0))
    return src[ok], dst[ok], order[ok]


def batched_sequence_hsd(tables, cps, placements, switch_links_only=False):
    """Per-stage maxima of every placement row, one walk per stage."""
    placements = np.asarray(placements, dtype=np.int64)
    if placements.ndim == 1:
        placements = placements[None, :]
    num_orders = placements.shape[0]
    num_ports = tables.fabric.num_ports
    keep_ports = _switch_link_mask(tables) if switch_links_only else None

    stage_max = np.full((num_orders, len(cps.stages)), -1, dtype=np.int64)
    for s_i, st in enumerate(cps):
        src, dst, order = stage_flows_batch(st, placements)
        if len(src) == 0:
            continue
        present = np.bincount(order, minlength=num_orders) > 0
        flow_idx, gports = walk_flow_links(tables, src, dst)
        keys = order[flow_idx] * num_ports + gports
        loads = np.bincount(
            keys, minlength=num_orders * num_ports
        ).reshape(num_orders, num_ports)
        if keep_ports is not None:
            loads = loads[:, keep_ports]
        if loads.shape[1]:
            maxima = loads.max(axis=1)
        else:
            maxima = np.zeros(num_orders, dtype=np.int64)
        stage_max[present, s_i] = maxima[present]
    return BatchedHSDReport(cps_name=cps.name, stage_max=stage_max)


def batched_avg_max(report):
    """``BatchedHSDReport.avg_max``, one placement row at a time."""
    vals = np.empty(report.num_orders, dtype=np.float64)
    for t in range(report.num_orders):
        row = report.stage_max[t]
        row = row[row >= 0]
        vals[t] = float(row.mean()) if len(row) else 0.0
    return vals


def sequence_level_profile(tables, cps, rank_to_port):
    """Per-stage, per-class max loads, one walk per non-empty stage."""
    classes = link_classes(tables)
    names = tuple(classes)
    rows = []
    for st in cps:
        s, d = stage_flows(st, rank_to_port)
        if len(s) == 0:
            continue
        loads = stage_link_loads(tables, s, d)
        rows.append([int(loads[classes[c]].max()) if classes[c].any() else 0
                     for c in names])
    return LevelProfile(
        classes=names,
        stage_max=np.asarray(rows, dtype=np.int64).reshape(-1, len(names)),
    )


def link_byte_loads(tables, sequences):
    """Bytes per directed link of a workload, by ``np.add.at``."""
    fab = tables.fabric
    srcs, dsts, sizes = [], [], []
    for p, seq in enumerate(sequences):
        for dst, size in seq:
            if dst != p and size > 0:
                srcs.append(p)
                dsts.append(dst)
                sizes.append(float(size))
    loads = np.zeros(fab.num_ports)
    if not srcs:
        return loads
    src = np.asarray(srcs)
    dst = np.asarray(dsts)
    size = np.asarray(sizes)
    flow_idx, gports = walk_flow_links(tables, src, dst)
    np.add.at(loads, gports, size[flow_idx])
    return loads


class ReferenceCertifierPass(ContentionCertifierPass):
    """The certify pass walking and counting one stage at a time."""

    def _certify_case(self, ctx, report, case, certificates, stage_loads):
        tables = ctx.tables
        fab = ctx.fabric
        maxima = []
        overall_max = 0
        refuted = False
        total_flows = 0

        for i, st in enumerate(case.cps):
            src, dst = stage_flows(st, case.placement)
            if len(src) == 0:
                maxima.append(0)
                continue
            total_flows += len(src)
            try:
                flow_idx, gports = walk_flow_links(tables, src, dst)
            except ValueError as exc:
                report.add(Diagnostic(
                    code="RTE001",
                    message=(f"{case.name()}: stage {i} cannot be walked "
                             f"through the tables ({exc}); certification "
                             "aborted for this case"),
                ))
                return
            loads = np.zeros(fab.num_ports, dtype=np.int64)
            np.add.at(loads, gports, 1)
            stage_max = int(loads.max()) if len(loads) else 0
            maxima.append(stage_max)
            overall_max = max(overall_max, stage_max)
            if stage_max <= 1:
                continue
            refuted = True
            gp = int(loads.argmax())
            on_link = flow_idx[gports == gp]
            payload = colliding_pairs_payload(src, dst, on_link)
            pairs = payload["colliding_pairs"]
            report.add(Diagnostic(
                code="CFC001",
                message=(f"{case.name()}: stage {i} "
                         f"({st.label or 'unlabelled'}) places {stage_max} "
                         f"concurrent flows on one directed link; colliding "
                         f"(src, dst) end-ports: {pairs}"
                         + (f" (+{payload['total_pairs'] - len(pairs)} more)"
                            if payload["pairs_truncated"] else "")),
                loc=link_loc(fab, gp, stage=i),
                data={"case": case.name(), "stage": i,
                      "link_load": stage_max, "gport": gp, **payload},
            ))

        stage_loads[case.name()] = maxima
        if refuted:
            return
        if total_flows == 0:
            report.add(Diagnostic(
                code="CFC002",
                message=f"{case.name()}: schedule produced no flows; "
                        "certificate would be vacuous",
            ))
            return
        certificates.append({
            "kind": "contention-freedom-certificate",
            "version": CERTIFICATE_VERSION,
            "certificate_kind": "enumerated",
            "case": case.name(),
            "topology": str(fab.spec) if fab.spec is not None else None,
            "num_endports": int(fab.num_endports),
            "routing": ctx.routing_name or "unknown",
            "tables_digest": tables_digest(tables),
            "cps": case.cps.name,
            "num_stages": len(case.cps.stages),
            "num_flows": int(total_flows),
            "placement_digest": placement_digest(case.placement),
            "max_link_load": int(overall_max),
            "verdict": "contention-free",
        })
