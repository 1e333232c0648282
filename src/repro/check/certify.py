"""Contention-freedom certification (``CFC0xx``) -- the headline pass.

The paper's claim (section VI) that D-Mod-K routing plus ordered rank
placement keeps every CPS stage contention-free is *statically
decidable*: walk each stage's flows through the forwarding tables and
count flows per directed link.  This pass decides it:

* if every stage's maximum link load is 1, a machine-readable
  **certificate** is published (``ctx.artifacts["certificates"]``),
  binding the verdict to content digests of the tables and placement so
  a certificate cannot be replayed against different inputs;
* otherwise a **minimal counterexample** is emitted per offending stage
  (``CFC001``): the stage index, the directed link (switch, local port,
  global port id) and the colliding (src, dst) end-port pairs.

The static count is exactly the synchronous-stage link load the fluid
simulator observes in ``barrier`` mode, which is how the certificate is
cross-validated in the test suite.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

from ..analysis.hsd import _case_blocks
from ..fabric.model import Fabric
from ..runtime.cache import tables_digest
from .common import colliding_pairs_payload, link_loc
from .diagnostics import Diagnostic, DiagnosticReport
from .passes import CheckContext, CheckPass, ScheduleCase

__all__ = ["ContentionCertifierPass", "placement_digest", "CERTIFICATE_VERSION"]

#: version 2: adds ``certificate_kind`` plus explicit counterexample
#: truncation fields (``total_pairs``/``pairs_truncated``).
CERTIFICATE_VERSION = 2

def placement_digest(placement: np.ndarray) -> str:
    """SHA-256 of a rank->port vector (certificate binding)."""
    arr = np.ascontiguousarray(np.asarray(placement, dtype=np.int64))
    h = hashlib.sha256(b"repro-placement-v1")
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


class ContentionCertifierPass(CheckPass):
    """Per-stage per-link static flow counting; certificate or refutation."""

    name = "certify"
    needs_tables = True
    needs_schedule = True

    def run(self, ctx: CheckContext, report: DiagnosticReport) -> None:
        certificates = ctx.artifacts.setdefault("certificates", [])
        stage_loads: dict[str, list[int]] = {}
        ctx.artifacts["certifier_stage_max"] = stage_loads
        for case in ctx.schedule:
            self._certify_case(ctx, report, case, certificates, stage_loads)

    # ------------------------------------------------------------------
    def _certify_case(self, ctx: CheckContext, report: DiagnosticReport,
                      case: ScheduleCase, certificates: list[dict[str, Any]],
                      stage_loads: dict[str, list[int]]) -> None:
        tables = ctx.tables
        fab = ctx.fabric
        placement = np.asarray(case.placement, dtype=np.int64)[None, :]
        maxima: list[int] = []
        total_flows = 0

        for blk in _case_blocks(tables, case.cps, placement, keep_walk=True):
            fault = blk.fault
            n = len(blk.flows) if fault is None else fault[0] - blk.lo
            loads = blk.loads[:n, 0]
            block_max = loads.max(axis=1)
            maxima += block_max.tolist()
            total_flows += int(blk.flows[:n].sum())
            # a counterexample per refuted stage: its most loaded link
            # (the lowest port on a tie), flows on it in hop-major order
            src, dst, stage, rows, gports = blk.walk
            refuted = np.flatnonzero(block_max > 1)
            hot = loads[refuted].argmax(axis=1)
            target = np.full(len(blk.flows), -1, dtype=np.int64)
            target[refuted] = hot
            hit = rows[gports == target[stage[rows]]]
            for s, gp in zip(refuted.tolist(), hot.tolist()):
                report.add(self._counterexample(
                    case, fab, blk.lo + s, int(block_max[s]), gp,
                    colliding_pairs_payload(src, dst, hit[stage[hit] == s])))
            if fault is not None:
                report.add(Diagnostic(
                    code="RTE001",
                    message=(f"{case.name()}: stage {fault[0]} cannot be "
                             f"walked through the tables ({fault[1]}); "
                             "certification aborted for this case"),
                ))
                return

        stage_loads[case.name()] = maxima
        if max(maxima, default=0) > 1:
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
            "max_link_load": max(maxima, default=0),
            "verdict": "contention-free",
        })

    @staticmethod
    def _counterexample(case: ScheduleCase, fab: Fabric, i: int,
                        stage_max: int, gp: int,
                        payload: dict[str, Any]) -> Diagnostic:
        pairs = payload["colliding_pairs"]
        return Diagnostic(
            code="CFC001",
            message=(f"{case.name()}: stage {i} "
                     f"({case.cps.stages[i].label or 'unlabelled'}) places "
                     f"{stage_max} concurrent flows on one directed link; "
                     f"colliding (src, dst) end-ports: {pairs}"
                     + (f" (+{payload['total_pairs'] - len(pairs)} more)"
                        if payload["pairs_truncated"] else "")),
            loc=link_loc(fab, gp, stage=i),
            data={"case": case.name(), "stage": i,
                  "link_load": stage_max, "gport": gp, **payload},
        )
