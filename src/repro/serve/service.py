"""The certification service: supervisor, admission and metrics.

:class:`CertificationService` is a single-threaded asyncio supervisor
over the :class:`~repro.serve.workers.WorkerPool`.  Admission is the
whole robustness story in one method (:meth:`~CertificationService.submit`):
validate (``SRV005``), gate test hooks, refuse quarantined digests
(``SRV001``), serve from the result cache, deduplicate against
in-flight work, shed above the queue's capacity (``SRV002``) -- and
only then journal the request as *accepted*, which is the service's
promise that it will end in a certificate, a counterexample or a
structured error, crashes included.

The supervisor is event-driven: it sleeps until :meth:`submit` queues
work or a worker's pipe turns readable (``loop.add_reader``), and at
most ``tick_s`` otherwise.  Each pass polls worker results, converts
worker deaths into seeded-backoff requeues / quarantines
(``SRV008``/``SRV001``), SIGKILLs over-deadline workers (``SRV003``),
degrades ``both``-engine requests to symbolic-only under queue
pressure (``SRV004``) and dispatches ready work to idle workers.  Pool
health counters live in a :class:`~repro.runtime.SweepStats` -- the
same record the parallel sweeper publishes -- embedded in
:class:`ServiceMetrics`.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..check import Diagnostic
from ..runtime.cache import ResultCache
from ..runtime.sweep import SweepStats
from .journal import Journal, JournalRecord
from .protocol import (
    PROTOCOL_VERSION,
    CertRequest,
    ProtocolError,
    decode_line,
    encode_line,
)
from .queue import BoundedRequestQueue, PendingRequest, RequeuePolicy

__all__ = ["CertificationService", "ServiceConfig", "ServiceMetrics",
           "serve_unix"]

#: every accepted request ends in exactly one of these
TERMINAL_STATUSES = ("certified", "refuted", "vacuous", "error")

#: verdicts worth remembering across restarts (never errors, never
#: degraded answers -- a degraded ``both`` must re-run at full fidelity)
CACHEABLE_STATUSES = ("certified", "refuted", "vacuous")

_RESULT_KEYS = ("certificates", "counterexample", "maxima", "num_flows",
                "incremental", "engine_agreement", "diagnostics", "summary",
                "error")


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance (all have working defaults).

    ``tick_s`` is the longest the supervisor sleeps between passes.
    Submissions and worker replies wake it at once, so the tick does not
    add latency; it bounds how late a deadline kill or a matured
    requeue backoff can be noticed.
    """

    workers: int = 2
    queue_capacity: int = 256
    high_water: int | None = None
    poison_threshold: int = 3
    requeue: RequeuePolicy = field(default_factory=RequeuePolicy)
    default_deadline_s: float | None = 30.0
    tick_s: float = 0.01
    journal_path: str | Path = "serve-journal.jsonl"
    cache_dir: str | Path | None = None
    cache_max_bytes: int | None = None
    allow_test_hooks: bool = False
    latency_window: int = 512

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")
        if self.tick_s <= 0:
            raise ValueError("tick_s must be positive")
        if self.latency_window < 2:
            raise ValueError("latency_window must be >= 2")


@dataclass
class ServiceMetrics:
    """Counters + latency window; ``pool`` reuses the sweeper's
    :class:`~repro.runtime.SweepStats` shape for worker health."""

    pool: SweepStats = field(default_factory=SweepStats)
    accepted: int = 0
    completed: int = 0
    certified: int = 0
    refuted: int = 0
    vacuous: int = 0
    errors: int = 0
    rejected: int = 0
    sheds: int = 0
    dedup_hits: int = 0
    cache_hits: int = 0
    quarantined: int = 0
    quarantine_hits: int = 0
    deadline_kills: int = 0
    degraded: int = 0
    replayed: int = 0
    journal_corrupt: int = 0
    latency_window: int = 512
    latencies: "deque[float]" = field(default_factory=deque)
    completions: "deque[float]" = field(default_factory=deque)

    def observe(self, latency_s: float, now: float) -> None:
        self.latencies.append(latency_s)
        self.completions.append(now)
        while len(self.latencies) > self.latency_window:
            self.latencies.popleft()
        while len(self.completions) > self.latency_window:
            self.completions.popleft()

    def percentile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        values = sorted(self.latencies)
        idx = min(len(values) - 1, int(q * len(values)))
        return values[idx]

    def certs_per_sec(self) -> float:
        if len(self.completions) < 2:
            return 0.0
        span = self.completions[-1] - self.completions[0]
        if span <= 0:
            return 0.0
        return (len(self.completions) - 1) / span

    def to_json(self) -> dict[str, Any]:
        out = {name: getattr(self, name) for name in (
            "accepted", "completed", "certified", "refuted", "vacuous",
            "errors", "rejected", "sheds", "dedup_hits", "cache_hits",
            "quarantined", "quarantine_hits", "deadline_kills", "degraded",
            "replayed", "journal_corrupt")}
        out["latency_p50_s"] = round(self.percentile(0.50), 6)
        out["latency_p99_s"] = round(self.percentile(0.99), 6)
        out["certs_per_sec"] = round(self.certs_per_sec(), 3)
        out["pool"] = self.pool.to_json()
        return out


class CertificationService:
    """Always-on front-end over the :mod:`repro.check` pipeline.

    Lifecycle: :meth:`start` (replays the journal, spawns workers and
    the supervisor task), :meth:`submit` / :meth:`status` /
    :meth:`drain`, :meth:`stop`.  Single event loop, no locks: all
    mutation happens on the loop thread.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        cfg = self.config
        self.queue = BoundedRequestQueue(capacity=cfg.queue_capacity,
                                         high_water=cfg.high_water)
        self.journal = Journal(cfg.journal_path)
        self.cache: ResultCache | None = None
        if cfg.cache_dir is not None:
            self.cache = ResultCache(root=Path(cfg.cache_dir),
                                     max_bytes=cfg.cache_max_bytes)
        # pool import is deferred so mp start-method selection happens
        # at service start, not module import
        from .workers import WorkerPool
        self.pool = WorkerPool(size=cfg.workers)
        self.metrics = ServiceMetrics(latency_window=cfg.latency_window)
        self.in_flight: dict[str, PendingRequest] = {}
        self.dispatched: dict[int, PendingRequest] = {}
        self.crash_counts: dict[str, int] = {}
        self.quarantine: dict[str, str] = {}
        self.accepting = True
        self.started_at = 0.0
        self.shutdown = asyncio.Event()
        self._wake = asyncio.Event()
        self._rng = cfg.requeue.rng()
        self._supervisor: asyncio.Task[None] | None = None
        self._started = False
        self._clock = time.monotonic

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        if self._started:
            raise RuntimeError("service already started")
        self.started_at = self._clock()
        self._replay_journal()
        self.pool.start()
        self.pool.watch(self._wake.set)
        self._started = True
        self._supervisor = asyncio.get_running_loop().create_task(
            self._run())

    def _replay_journal(self) -> None:
        pending = self.journal.replay()
        self.metrics.journal_corrupt = self.journal.stats.corrupt_lines
        keep: list[JournalRecord] = []
        for rec in pending:
            try:
                req = CertRequest.from_json(rec.request)
            except ProtocolError:
                # journaled under an older/corrupted schema: terminal
                self.journal.done(rec.seq, rec.digest, "error")
                self.metrics.errors += 1
                continue
            if rec.digest in self.in_flight:  # pragma: no cover - defensive
                self.journal.done(rec.seq, rec.digest, "deduplicated")
                continue
            entry = PendingRequest(seq=rec.seq, request=req,
                                   digest=rec.digest,
                                   accepted_at=self._clock(), replayed=True)
            self.in_flight[rec.digest] = entry
            self.queue.push(entry)
            self.metrics.replayed += 1
            self.metrics.accepted += 1
            keep.append(rec)
        self.journal.compact(keep)

    async def stop(self) -> None:
        """Stop now.  Unfinished accepted requests stay journaled (their
        local waiters get ``SRV007``) and replay on the next start."""
        if self._supervisor is not None:
            self._supervisor.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._supervisor
            self._supervisor = None
        self.pool.stop()
        now = self._clock()
        for digest in sorted(self.in_flight):
            entry = self.in_flight[digest]
            entry.resolve(self._error_response(
                entry, "SRV007", now,
                "service stopped before the request finished; it stays "
                "journaled and will replay on restart"))
        self.journal.close()
        self._started = False

    async def drain(self, timeout_s: float = 120.0) -> dict[str, Any]:
        """Stop accepting, run the backlog down, compact the journal."""
        self.accepting = False
        deadline = self._clock() + timeout_s
        while ((self.queue.depth or self.dispatched)
               and self._clock() < deadline):
            await asyncio.sleep(self.config.tick_s)
        remaining = self.queue.depth + len(self.dispatched)
        keep = [JournalRecord(op="accepted", seq=self.in_flight[d].seq,
                              digest=d,
                              request=self.in_flight[d].request.to_json())
                for d in sorted(self.in_flight)]
        self.journal.compact(keep)
        return {"status": "ok", "drained": remaining == 0,
                "remaining": remaining,
                "journal": str(self.journal.stats)}

    # -- admission ------------------------------------------------------
    async def submit(self, payload: dict[str, Any] | CertRequest,
                     ) -> dict[str, Any]:
        """Admit one request and await its terminal response."""
        now = self._clock()
        try:
            if isinstance(payload, CertRequest):
                req = payload
                req.validate()
            else:
                req = CertRequest.from_json(payload)
        except ProtocolError as exc:
            self.metrics.rejected += 1
            return self._admission_error("SRV005", f"invalid request: {exc}")
        if req.has_test_hooks and not self.config.allow_test_hooks:
            self.metrics.rejected += 1
            return self._admission_error(
                "SRV005", "request carries test hooks but the service "
                          "runs without --allow-test-hooks")
        digest = req.digest()
        reason = self.quarantine.get(digest)
        if reason is not None:
            self.metrics.quarantine_hits += 1
            return self._admission_error(
                "SRV001", f"request digest is quarantined: {reason}",
                digest=digest)
        if not self.accepting:
            return self._admission_error(
                "SRV007", "service is draining and not accepting requests",
                digest=digest)
        if self.cache is not None and not req.no_cache:
            hit = self.cache.load_json(_cache_key(digest))
            if hit is not None:
                self.metrics.cache_hits += 1
                out = dict(hit)
                out["cached"] = True
                return out
        existing = self.in_flight.get(digest)
        if existing is not None:
            self.metrics.dedup_hits += 1
            fut: asyncio.Future[dict[str, Any]] = \
                asyncio.get_running_loop().create_future()
            existing.waiters.append(fut)
            return await fut
        if self.queue.would_shed:
            self.metrics.sheds += 1
            retry_after = self._retry_after()
            out = self._admission_error(
                "SRV002", f"queue full "
                          f"({self.queue.depth}/{self.queue.capacity}); "
                          f"retry after {retry_after}s", digest=digest)
            out["status"] = "shed"
            out["retry_after_s"] = retry_after
            return out
        seq = self.journal.next_seq
        self.journal.accepted(seq, digest, req.to_json())
        entry = PendingRequest(seq=seq, request=req, digest=digest,
                               accepted_at=now)
        fut = asyncio.get_running_loop().create_future()
        entry.waiters.append(fut)
        self.in_flight[digest] = entry
        self.queue.push(entry)
        self._wake.set()
        self.metrics.accepted += 1
        return await fut

    def _retry_after(self) -> float:
        mean = 0.05
        if self.metrics.latencies:
            mean = (sum(self.metrics.latencies)
                    / len(self.metrics.latencies))
        estimate = self.queue.depth * mean / max(1, self.pool.size)
        return round(min(30.0, max(0.1, estimate)), 3)

    # -- supervisor -----------------------------------------------------
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            self._wake.clear()
            self._step(self._clock())
            # not asyncio.wait_for: on some Pythons it swallows the
            # cancel stop() sends when a wake-up lands at the same time
            timer = loop.call_later(self.config.tick_s, self._wake.set)
            try:
                await self._wake.wait()
            finally:
                timer.cancel()

    def _step(self, now: float) -> None:
        """One supervisor pass (synchronous; also the test surface)."""
        results, deaths = self.pool.poll()
        for _handle, out in results:
            entry = self.dispatched.pop(int(out.get("seq", -1)), None)
            if entry is None:
                continue  # late answer for a deadline-killed request
            self.metrics.pool.completed += 1
            self._finish(entry, out, now)
        for handle in deaths:
            seq = handle.busy_seq
            entry = self.dispatched.pop(seq, None) if seq is not None \
                else None
            self.pool.respawn(handle)
            self.metrics.pool.crashes += 1
            self.metrics.pool.pool_restarts += 1
            if entry is not None:
                self._crashed(entry, now)
        self._enforce_deadlines(now)
        self.pool.reap_idle_deaths()
        for handle in self.pool.idle():
            entry = self.queue.pop_ready(now)
            if entry is None:
                break
            payload = entry.request.to_json()
            if (entry.request.engine == "both" and not entry.degraded
                    and self.queue.under_pressure):
                entry.degraded = True
                payload["engine"] = "symbolic"
                self.metrics.degraded += 1
            entry.attempts += 1
            self.dispatched[entry.seq] = entry
            self.metrics.pool.submitted += 1
            self.pool.dispatch(handle, entry.seq, payload, now)

    def _enforce_deadlines(self, now: float) -> None:
        for handle in list(self.pool.handles):
            if handle.busy_seq is None:
                continue
            entry = self.dispatched.get(handle.busy_seq)
            if entry is None:
                continue
            deadline = entry.request.deadline_s
            if deadline is None:
                deadline = self.config.default_deadline_s
            if deadline is None or now - handle.dispatched_at <= deadline:
                continue
            self.dispatched.pop(entry.seq, None)
            self.pool.kill(handle)
            self.pool.respawn(handle)
            self.metrics.deadline_kills += 1
            self.metrics.pool.timeouts += 1
            self.metrics.pool.pool_restarts += 1
            self._resolve_terminal(entry, self._error_response(
                entry, "SRV003", now,
                f"deadline of {deadline}s exceeded; worker killed"), now)

    def _crashed(self, entry: PendingRequest, now: float) -> None:
        entry.crashes += 1
        total = self.crash_counts.get(entry.digest, 0) + 1
        self.crash_counts[entry.digest] = total
        if total >= self.config.poison_threshold:
            reason = (f"crashed {total} worker(s); poison threshold "
                      f"{self.config.poison_threshold} reached")
            self.quarantine[entry.digest] = reason
            self.metrics.quarantined += 1
            self._resolve_terminal(entry, self._error_response(
                entry, "SRV001", now, f"request quarantined: {reason}"),
                now)
            return
        if entry.crashes > self.config.requeue.max_retries:
            self._resolve_terminal(entry, self._error_response(
                entry, "SRV008", now,
                f"worker crashed {entry.crashes} time(s); retry budget "
                f"({self.config.requeue.max_retries}) exhausted"), now)
            return
        delay = self.config.requeue.delay(entry.crashes - 1, self._rng)
        self.queue.push_delayed(entry, now + delay)
        self.metrics.pool.retries += 1

    # -- completion -----------------------------------------------------
    def _finish(self, entry: PendingRequest, out: dict[str, Any],
                now: float) -> None:
        status = out.get("status", "error")
        if status not in TERMINAL_STATUSES:
            status = "error"
        response = self._base_response(entry, status, now)
        response["compute_s"] = out.get("compute_s")
        for key in _RESULT_KEYS:
            if key in out:
                response[key] = out[key]
        srv: list[dict[str, Any]] = []
        if entry.degraded:
            srv.append(Diagnostic(
                code="SRV004",
                message="queue pressure degraded this 'both'-engine "
                        "request to symbolic-only; resubmit with "
                        "no_cache for a full differential run",
            ).to_json())
        if entry.replayed:
            srv.append(Diagnostic(
                code="SRV006",
                message="request was replayed from the journal after a "
                        "service restart",
            ).to_json())
        if srv:
            response["srv"] = srv
        self._resolve_terminal(entry, response, now)

    def _resolve_terminal(self, entry: PendingRequest,
                          response: dict[str, Any], now: float) -> None:
        self.journal.done(entry.seq, entry.digest, response["status"])
        self.in_flight.pop(entry.digest, None)
        self.metrics.completed += 1
        status = response["status"]
        if status == "certified":
            self.metrics.certified += 1
        elif status == "refuted":
            self.metrics.refuted += 1
        elif status == "vacuous":
            self.metrics.vacuous += 1
        else:
            self.metrics.errors += 1
        self.metrics.observe(now - entry.accepted_at, now)
        if (self.cache is not None and status in CACHEABLE_STATUSES
                and not entry.degraded and not entry.request.no_cache):
            self.cache.store_json(_cache_key(entry.digest), response)
        entry.resolve(response)

    # -- responses ------------------------------------------------------
    def _base_response(self, entry: PendingRequest, status: str,
                       now: float) -> dict[str, Any]:
        return {
            "version": PROTOCOL_VERSION,
            "status": status,
            "request_digest": entry.digest,
            "seq": entry.seq,
            "engine": ("symbolic" if entry.degraded
                       else entry.request.engine),
            "degraded": entry.degraded,
            "replayed": entry.replayed,
            "cached": False,
            "attempts": entry.attempts,
            "elapsed_s": round(now - entry.accepted_at, 6),
        }

    def _error_response(self, entry: PendingRequest, code: str,
                        now: float, message: str) -> dict[str, Any]:
        response = self._base_response(entry, "error", now)
        response["error"] = message
        response["srv"] = [Diagnostic(code=code, message=message).to_json()]
        return response

    def _admission_error(self, code: str, message: str,
                         digest: str | None = None) -> dict[str, Any]:
        diag = Diagnostic(code=code, message=message)
        out: dict[str, Any] = {
            "version": PROTOCOL_VERSION,
            "status": "error",
            "error": message,
            "srv": [diag.to_json()],
            "cached": False,
        }
        if digest is not None:
            out["request_digest"] = digest
        return out

    # -- introspection --------------------------------------------------
    def status(self) -> dict[str, Any]:
        now = self._clock()
        summary = Diagnostic(
            code="SRV090",
            message=f"queue {self.queue.depth}/{self.queue.capacity}, "
                    f"{len(self.dispatched)} in flight, "
                    f"{self.metrics.completed} completed",
        )
        out: dict[str, Any] = {
            "version": PROTOCOL_VERSION,
            "status": "ok",
            "accepting": self.accepting,
            "uptime_s": round(now - self.started_at, 3),
            "queue": {
                "depth": self.queue.depth,
                "capacity": self.queue.capacity,
                "high_water": self.queue.high_water,
                "under_pressure": self.queue.under_pressure,
            },
            "workers": {
                "size": self.pool.size,
                "pids": self.pool.pids(),
                "busy": sum(1 for h in self.pool.handles if h.busy),
                "respawns": self.pool.respawns,
            },
            "in_flight": len(self.dispatched),
            "quarantined": sorted(self.quarantine),
            "journal": str(self.journal.stats),
            "metrics": self.metrics.to_json(),
            "srv": [summary.to_json()],
        }
        if self.cache is not None:
            out["cache"] = {
                "hits": self.cache.stats.hits,
                "misses": self.cache.stats.misses,
                "evictions": self.cache.stats.evictions,
                "total_bytes": self.cache.total_bytes(),
            }
        return out


def _cache_key(digest: str) -> str:
    return f"serve-{digest[:32]}"


# ----------------------------------------------------------------------
# Unix-socket front-end (JSON lines)
# ----------------------------------------------------------------------
async def serve_unix(service: CertificationService,
                     socket_path: str | Path) -> asyncio.AbstractServer:
    """Expose a started service on a Unix socket; returns the server.

    Ops: ``submit`` (body in ``request``), ``status``, ``ping``,
    ``drain`` and ``stop`` (sets ``service.shutdown`` for the CLI's
    serve loop to act on).
    """

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    msg = decode_line(line)
                    op = str(msg.get("op", "submit"))
                    if op == "submit":
                        resp = await service.submit(msg.get("request", {}))
                    elif op == "status":
                        resp = service.status()
                    elif op == "ping":
                        resp = {"status": "ok",
                                "version": PROTOCOL_VERSION}
                    elif op == "drain":
                        resp = await service.drain(
                            timeout_s=float(msg.get("timeout_s", 120.0)))
                    elif op == "stop":
                        resp = {"status": "ok", "stopping": True}
                        service.shutdown.set()
                    else:
                        raise ProtocolError(f"unknown op {op!r}")
                except ProtocolError as exc:
                    resp = {"status": "error", "error": str(exc),
                            "srv": [Diagnostic(code="SRV005",
                                               message=str(exc)).to_json()]}
                writer.write(encode_line(resp))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Server shut down while this connection idled in
            # readline(); close quietly instead of surfacing the
            # cancellation through the protocol's done-callback.
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    return await asyncio.start_unix_server(handle, path=str(socket_path))
