"""Worker processes of the certification service.

Certification runs out-of-process: a crash (segfault, OOM-kill,
injected ``test_crash``) takes down one worker, never the service.
Each worker is a plain ``multiprocessing.Process`` with its own
``Pipe`` -- deliberately *not* a shared pool executor, so the
supervisor can ``SIGKILL`` exactly the worker holding an over-deadline
request without disturbing the others.

Workers are stateful where it pays: each keeps a small LRU of symbolic
:class:`~repro.check.symbolic.CaseState` objects keyed by the *base*
request digest, so a stream of ``kind: "delta"`` requests against the
same baseline re-certifies incrementally (the paper's placement-change
workflow) instead of from cold, reusing the base's CPS and memoised
CPS digest rather than rebuilding them per request.  The cache is soft
state -- a fresh worker rebuilds a missing base on demand -- which is
what keeps delta requests safe to replay after any crash.

:func:`execute_request` is the pure request -> result-dict function
(also the unit-test surface); :class:`WorkerPool` owns the processes.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..check import CheckContext, ScheduleCase, SymbolicCertifier, run_check
from ..check.certify import placement_digest
from ..check.symbolic import CERTIFICATE_VERSION, CaseState
from ..collectives import by_name, shift
from ..collectives.cps import CPS
from ..fabric import build_fabric
from ..ordering import topology_order, topology_subset
from ..routing import route_dmodk
from ..runtime.cache import active_digest, spec_digest
from ..topology.spec import PGFTSpec
from .protocol import CertRequest, ProtocolError

__all__ = ["WorkerPool", "WorkerHandle", "execute_request"]

#: symbolic base states cached per worker (soft state, LRU by insertion)
STATE_CACHE_SIZE = 8

#: exit code of an injected ``test_crash`` (distinguishable from -SIGKILL)
TEST_CRASH_EXIT = 17


# ----------------------------------------------------------------------
# Request execution (runs inside the worker process)
# ----------------------------------------------------------------------
def _sampled_shift(n: int, max_stages: int) -> CPS:
    """The CLI's shift sampling: every displacement up to ``max_stages``
    stages, then a uniform stride -- same schedule, same digest."""
    if n - 1 <= max_stages:
        return shift(n)
    step = (n - 1) // max_stages
    return shift(n, displacements=range(1, n, step))


def _make_cps(req: CertRequest, num_ranks: int) -> CPS:
    if req.cps == "shift":
        return _sampled_shift(num_ranks, req.max_stages)
    return by_name(req.cps, num_ranks)


def _make_active(req: CertRequest, spec: PGFTSpec) -> np.ndarray | None:
    if not req.exclude:
        return None
    return topology_subset(spec.num_endports, req.exclude,
                           seed=req.exclude_seed)


def _make_order(order: str, seed: int, spec: PGFTSpec,
                active: np.ndarray | None) -> np.ndarray:
    """Placement vector for an order family.

    ``rotate`` rolls the topology order by ``seed`` slots: every rank
    moves, yet D-Mod-K's shift-invariance keeps the verdict -- the
    cheap contention-free delta the service's SLO is stated over.
    """
    if active is not None:
        ports = np.sort(np.asarray(active, dtype=np.int64))
    else:
        ports = topology_order(spec.num_endports)
    if order == "topology":
        return ports
    if order == "reversed":
        return ports[::-1].copy()
    if order == "rotate":
        return np.roll(ports, seed)
    if order == "random":
        rng = np.random.default_rng(seed)
        return rng.permutation(ports).astype(np.int64)
    raise ProtocolError(f"unknown order {order!r}")


def _base_request(req: CertRequest) -> CertRequest:
    """The cold symbolic certification a delta re-certifies against."""
    return CertRequest(kind="cert", topo=req.topo, spec=req.spec,
                       cps=req.cps, max_stages=req.max_stages,
                       order=req.base_order, order_seed=req.base_order_seed,
                       exclude=req.exclude, exclude_seed=req.exclude_seed,
                       engine="symbolic")


def _certificate(spec: PGFTSpec, base: CaseState, placement: np.ndarray,
                 active: np.ndarray | None, num_flows: int,
                 max_link_load: int) -> dict[str, Any]:
    """Same schema as the ``symbolic-certify`` pass emits -- a service
    certificate and a CLI certificate for one problem are identical.
    ``base`` lends its CPS and memoised CPS digest."""
    cps = base.cps
    return {
        "kind": "contention-freedom-certificate",
        "version": CERTIFICATE_VERSION,
        "certificate_kind": "symbolic",
        "case": cps.name,
        "topology": str(spec),
        "num_endports": int(spec.num_endports),
        "routing": "dmodk",
        "spec_digest": spec_digest(spec),
        "cps": cps.name,
        "cps_digest": base.cps_digest,
        "num_stages": len(cps.stages),
        "num_flows": int(num_flows),
        "placement_digest": placement_digest(placement),
        "active_digest": active_digest(spec.num_endports, active),
        "max_link_load": int(max_link_load),
        "verdict": "contention-free",
    }


def _symbolic_response(spec: PGFTSpec, base: CaseState,
                       placement: np.ndarray, active: np.ndarray | None,
                       result: Any) -> dict[str, Any]:
    if result.refuted:
        return {"status": "refuted", "maxima": list(result.maxima),
                "num_flows": int(result.total_flows),
                "counterexample": result.violations[0]}
    if result.total_flows == 0:
        return {"status": "vacuous", "maxima": list(result.maxima),
                "num_flows": 0}
    return {"status": "certified", "maxima": list(result.maxima),
            "num_flows": int(result.total_flows),
            "certificates": [_certificate(spec, base, placement, active,
                                          result.total_flows,
                                          result.max_link_load)]}


def _run_check_response(req: CertRequest, spec: PGFTSpec, cps: CPS,
                        placement: np.ndarray, active: np.ndarray | None,
                        ) -> dict[str, Any]:
    """Cold certification through the full pass pipeline (``enumerate``
    and ``both`` engines need materialised tables)."""
    fabric = build_fabric(spec)
    tables = route_dmodk(fabric, active=active)
    ctx = CheckContext.for_tables(tables, routing_name="dmodk",
                                  schedule=[ScheduleCase(cps, placement)],
                                  active=active)
    only = ({"certify", "symbolic-certify", "differential"}
            if req.engine == "both" else {"certify"})
    res = run_check(ctx, only=only, engine=req.engine)
    summary = res.report.summary()
    refutations = [d.to_json() for d in res.report.diagnostics
                   if d.code in ("CFC001", "SYM001")]
    vacuous = any(d.code in ("CFC002", "SYM002")
                  for d in res.report.diagnostics)
    if refutations:
        return {"status": "refuted", "counterexample": refutations[0],
                "diagnostics": refutations[:5], "summary": summary}
    if res.certificates:
        return {"status": "certified", "certificates": res.certificates,
                "summary": summary}
    if vacuous:
        return {"status": "vacuous", "summary": summary}
    return {"status": "error", "summary": summary,
            "error": "certification produced neither a certificate nor a "
                     "counterexample",
            "diagnostics": [d.to_json() for d in res.report.diagnostics][:5]}


def _remember(states: dict[str, CaseState], key: str,
              state: CaseState) -> None:
    states.pop(key, None)
    states[key] = state
    while len(states) > STATE_CACHE_SIZE:
        oldest = next(iter(states))
        del states[oldest]


def execute_request(payload: dict[str, Any],
                    states: dict[str, CaseState] | None = None,
                    ) -> dict[str, Any]:
    """Run one certification request to a result dict.

    Never raises for request-level problems -- malformed payloads and
    engine failures become ``status: "error"`` results; only genuine
    crashes (or the ``test_crash`` hook) escape, by killing the
    process.  ``states`` is the worker's base-state cache.
    """
    if states is None:
        states = {}
    try:
        req = CertRequest.from_json(payload)
    except ProtocolError as exc:
        return {"status": "error", "error": f"protocol: {exc}"}
    if req.test_delay_s > 0:
        time.sleep(req.test_delay_s)
    if req.test_crash:
        os._exit(TEST_CRASH_EXIT)
    try:
        spec = req.resolve_spec()
        active = _make_active(req, spec)
        num_ranks = len(active) if active is not None else spec.num_endports
        # a delta against a cached base reuses its CPS (and CPS digest)
        base = _base_request(req)
        base_key = base.digest()
        state = states.get(base_key) if req.kind == "delta" else None
        cps = state.cps if state is not None else _make_cps(req, num_ranks)
        placement = _make_order(req.order, req.order_seed, spec, active)
        if req.kind == "cert" and req.engine != "symbolic":
            return _run_check_response(req, spec, cps, placement, active)
        certifier = SymbolicCertifier(spec, active)
        if req.kind == "cert":
            result, state = certifier.certify(cps, placement)
            _remember(states, req.digest(), state)
            return _symbolic_response(spec, state, placement, active, result)
        # kind == "delta": incremental against the cached base state
        incremental = state is not None
        if state is None:
            base_placement = _make_order(base.order, base.order_seed,
                                         spec, active)
            _, state = certifier.certify(cps, base_placement)
        result, _, inc = certifier.recertify(state, placement=placement)
        _remember(states, base_key, state)
        out = _symbolic_response(spec, state, placement, active, result)
        out["incremental"] = {
            "base_cached": incremental,
            "stages_touched": inc.stages_touched,
            "stages_total": inc.stages_total,
            "flows_recomputed": inc.flows_recomputed,
            "flows_total": inc.flows_total,
        }
        if req.engine == "both":
            cross = _run_check_response(req, spec, cps, placement, active)
            agree = cross.get("status") == out["status"]
            out["engine_agreement"] = agree
            if not agree:
                return {"status": "error",
                        "error": f"engine disagreement (SYM090): "
                                 f"incremental symbolic says "
                                 f"{out['status']!r}, cold "
                                 f"differential says "
                                 f"{cross.get('status')!r}",
                        "incremental": out["incremental"]}
        return out
    except (ValueError, ProtocolError) as exc:
        return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}


# ----------------------------------------------------------------------
# The worker process main loop
# ----------------------------------------------------------------------
def _worker_main(conn: Any, service_end: Any) -> None:
    """Receive ``{"seq", "request"}`` dicts, reply with result dicts.

    Unexpected exceptions are converted to ``status: "error"`` replies;
    the loop ends on EOF or a ``None`` sentinel.  The forked copy of the
    service's pipe end is closed first, or it would hide that EOF.
    """
    service_end.close()
    states: dict[str, CaseState] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        started = time.perf_counter()
        try:
            out = execute_request(msg["request"], states)
        except Exception as exc:  # noqa: BLE001 - worker must not die here
            out = {"status": "error",
                   "error": f"{type(exc).__name__}: {exc}"}
        out["seq"] = msg.get("seq")
        out["compute_s"] = round(time.perf_counter() - started, 6)
        try:
            conn.send(out)
        except (BrokenPipeError, OSError):
            break
    conn.close()


# ----------------------------------------------------------------------
# The supervised pool (runs in the service process)
# ----------------------------------------------------------------------
@dataclass
class WorkerHandle:
    """One worker process and what it is doing."""

    index: int
    proc: mp.process.BaseProcess
    conn: Any
    busy_seq: int | None = None
    dispatched_at: float = 0.0
    dispatches: int = 0

    @property
    def busy(self) -> bool:
        return self.busy_seq is not None

    def alive(self) -> bool:
        return self.proc.is_alive()


@dataclass
class WorkerPool:
    """Fixed-size pool of pipe-connected certification workers.

    The pool never raises on worker death -- :meth:`poll` reports it
    and :meth:`respawn` replaces the process.  ``fork`` start method
    when available (cheap, inherits the imported closed form), else
    ``spawn``.  After :meth:`watch`, the event loop calls a wake-up
    callback whenever a worker's pipe turns readable.
    """

    size: int = 2
    handles: list[WorkerHandle] = field(default_factory=list)
    respawns: int = 0

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("pool size must be >= 1")
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self._wake: Callable[[], None] | None = None

    def _spawn(self, index: int) -> WorkerHandle:
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(target=_worker_main, args=(child, parent),
                                 daemon=True, name=f"repro-serve-w{index}")
        proc.start()
        child.close()
        if self._wake is not None:
            asyncio.get_running_loop().add_reader(parent.fileno(),
                                                  self._wake)
        return WorkerHandle(index=index, proc=proc, conn=parent)

    def _close(self, handle: WorkerHandle) -> None:
        # unregister before closing: a closed fd cannot be unregistered,
        # and its number may be reused by the next pipe
        if self._wake is not None and not handle.conn.closed:
            asyncio.get_running_loop().remove_reader(handle.conn.fileno())
        try:
            handle.conn.close()
        except OSError:
            pass

    def watch(self, wake: Callable[[], None]) -> None:
        """Have the running event loop call ``wake`` whenever a worker's
        pipe turns readable: a reply arrived or the worker died."""
        self._wake = wake
        loop = asyncio.get_running_loop()
        for handle in self.handles:
            loop.add_reader(handle.conn.fileno(), wake)

    def start(self) -> None:
        if self.handles:
            raise RuntimeError("pool already started")
        self.handles = [self._spawn(i) for i in range(self.size)]

    def idle(self) -> list[WorkerHandle]:
        return [h for h in self.handles if not h.busy and h.alive()]

    def dispatch(self, handle: WorkerHandle, seq: int,
                 request: dict[str, Any], now: float) -> None:
        handle.conn.send({"seq": seq, "request": request})
        handle.busy_seq = seq
        handle.dispatched_at = now
        handle.dispatches += 1

    def poll(self) -> tuple[list[tuple[WorkerHandle, dict[str, Any]]],
                            list[WorkerHandle]]:
        """Collect finished results and detect dead busy workers.

        Results are drained before liveness is checked, so a worker
        that answered and *then* died still delivers its answer.
        """
        results: list[tuple[WorkerHandle, dict[str, Any]]] = []
        deaths: list[WorkerHandle] = []
        for handle in self.handles:
            try:
                while handle.conn.poll():
                    out = handle.conn.recv()
                    if handle.busy and out.get("seq") == handle.busy_seq:
                        handle.busy_seq = None
                        results.append((handle, out))
            except (EOFError, OSError):
                pass  # broken pipe: the liveness check below decides
            if handle.busy and not handle.alive():
                deaths.append(handle)
        return results, deaths

    def kill(self, handle: WorkerHandle) -> None:
        """SIGKILL the worker (deadline enforcement); caller respawns."""
        handle.busy_seq = None
        if handle.alive():
            handle.proc.kill()
        handle.proc.join(timeout=5.0)

    def respawn(self, handle: WorkerHandle) -> WorkerHandle:
        """Replace a dead (or killed) worker in place."""
        self._close(handle)
        if handle.alive():  # pragma: no cover - defensive
            handle.proc.kill()
        handle.proc.join(timeout=5.0)
        fresh = self._spawn(handle.index)
        self.handles[self.handles.index(handle)] = fresh
        self.respawns += 1
        return fresh

    def reap_idle_deaths(self) -> int:
        """Respawn workers that died while idle (counted, not fatal)."""
        reaped = 0
        for handle in list(self.handles):
            if not handle.busy and not handle.alive():
                self.respawn(handle)
                reaped += 1
        return reaped

    def pids(self) -> list[int]:
        return [h.proc.pid or -1 for h in self.handles]

    def stop(self) -> None:
        for handle in self.handles:
            try:
                handle.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for handle in self.handles:
            handle.proc.join(timeout=2.0)
            if handle.alive():
                handle.proc.kill()
                handle.proc.join(timeout=5.0)
            self._close(handle)
        self.handles = []
        self._wake = None
