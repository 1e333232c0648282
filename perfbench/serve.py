"""``serve`` workload: clients stream placement deltas to the
certification service.

Open loop into an in-process :class:`CertificationService` that keeps
its default :class:`ServiceConfig` apart from the journal path.  After
both workers have built the cold n324 base certification, requests
arrive on a fixed schedule at each rung of a rate ladder; every request
is timed from its due time.  The mix:

* ~70% fresh ``rotate`` deltas (certified, 0 flows recomputed);
* ~10% fresh ``random``-order deltas (refuted, every flow recomputed);
* ~17% repeats of a small set of digests (dedup hits while in flight;
  the default config has no result cache);
* ~3% cold ``engine: both`` certifications.

Protocol, journal, queue, worker IPC and symbolic recertification are
the whole cost; no lint pass or simulator runs.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import time
from statistics import median
from typing import Any

from repro.check.symbolic import SymbolicCertifier
from repro.serve import CertificationService, Journal, ServiceConfig
from repro.serve.protocol import CertRequest, decode_line, encode_line
from repro.serve.service import _RESULT_KEYS
from repro.serve.workers import execute_request

from harness import (
    NULL_TRACER,
    Outcome,
    Rung,
    Speedometer,
    Tracer,
    cold_setup_seconds,
    instrumented,
    latency_summary,
    max_sustained_rate,
    peak_rss_mb,
    scratch_dir,
)

TOPO = "n324"
#: offered rates in requests/s; the first is the nominal sub-knee rate.
#: On 2 cores the knee lies between ~45 and ~60 req/s, so 30 passes and
#: 70 fails with a wide margin either way.
LADDER = (10.0, 30.0, 70.0, 140.0, 280.0)
#: requests per rung, per second of --seconds (the nominal rung gets
#: more, so its tail percentile rests on more samples)
NOMINAL_PER_SECOND = 6
RUNG_PER_SECOND = 5
LIMIT_S = 0.3                  # tail latency limit of a passing rung
MAX_BACKLOG = 10               # outstanding requests at a rung's end
SAMPLED_CHECKS = 16            # responses replayed in-process
REPLAY_PER_KIND = 8            # traced run: in-process replays per kind

EXPECTED_STATUS = {"rotate": "certified", "random": "refuted",
                   "both": "certified"}

PHASES = ("serve.replay",)
LAYER_SPANS = {
    "serve.protocol": "serve.protocol_ms",
    "serve.journal": "serve.journal_ms",
    "serve.worker_compute.rotate": "serve.worker_compute.rotate_ms",
    "serve.worker_compute.random": "serve.worker_compute.random_ms",
    "serve.worker_compute.repeat": "serve.worker_compute.repeat_ms",
    "serve.worker_compute.both": "serve.worker_compute.both_ms",
    "check.symbolic.certify": "check.symbolic.certify_ms",
    "check.symbolic.recertify": "check.symbolic.recertify_ms",
}
#: layers reported by inclusive time: a request's whole compute, not
#: what is left after the symbolic engine's share
INCLUSIVE = {"serve.worker_compute.rotate", "serve.worker_compute.random",
             "serve.worker_compute.repeat", "serve.worker_compute.both"}


def _payload(kind: str, order_seed: int) -> dict[str, Any]:
    if kind == "both":
        return {"topo": TOPO, "engine": "both", "order": "rotate",
                "order_seed": order_seed}
    return {"topo": TOPO, "kind": "delta", "order": kind,
            "order_seed": order_seed}


#: the small set of digests that ``repeat`` requests draw from
REPEATS = [_payload("rotate", s) for s in range(1, 7)] + \
    [_payload("random", s) for s in range(1, 3)]


def repeat_kind(payload: dict[str, Any]) -> str:
    return "both" if payload.get("engine") == "both" else payload["order"]


def make_requests(count: int, rng: random.Random, fresh: list[int]
                  ) -> list[tuple[str, dict[str, Any]]]:
    """``count`` (kind, payload) pairs of the mix; ``fresh`` keeps fresh
    order seeds distinct across rungs.

    The shares are exact and each kind is spread evenly over the rung,
    not drawn per request: the tail percentile lands among the costly
    requests (random deltas, cold ``both``), so a drawn mix would move
    it between cost modes, and bunch costly requests, from seed to
    seed.  The seed picks the placements and the repeated digests.
    """
    shares = {"rotate": round(0.70 * count), "random": round(0.10 * count),
              "both": max(1, round(0.03 * count))}
    shares["repeat"] = count - sum(shares.values())
    slots = sorted(((j + 0.5) / c, kind) for kind, c in shares.items()
                   for j in range(c))
    kinds = [kind for _, kind in slots]
    repeats = rng.sample(REPEATS, len(REPEATS))
    out = []
    for kind in kinds:
        if kind == "repeat":
            payload = repeats[sum(k == "repeat" for k, _ in out)
                              % len(repeats)]
        else:
            fresh[0] += 1
            payload = _payload(kind, fresh[0])
        out.append((kind, payload))
    return out


def _journal_path(tag: str) -> str:
    return str(scratch_dir() / f"serve-{tag}-{os.getpid()}.jsonl")


async def start_warm(journal_path: str) -> CertificationService:
    """Start the service and make both workers hold the cold base
    state, so every later delta is served incrementally."""
    svc = CertificationService(ServiceConfig(journal_path=journal_path))
    await svc.start()
    seed = 10**6
    for _ in range(10):
        batch = [svc.submit(_payload("rotate", seed + i))
                 for i in range(svc.pool.size)]
        seed += svc.pool.size
        resp = await asyncio.gather(*batch)
        if all(r.get("incremental", {}).get("base_cached") for r in resp):
            return svc
    await svc.stop()
    raise RuntimeError("service workers never reported a cached base")


def _remove(path: str) -> None:
    for p in (path, path + ".tmp"):
        if os.path.exists(p):
            os.remove(p)


def setup(seed: int) -> None:
    """Cold start: import, spawn the workers, build both base states."""
    path = _journal_path("setup")

    async def cold() -> None:
        svc = await start_warm(path)
        await svc.stop()

    try:
        asyncio.run(cold())
    finally:
        _remove(path)


async def run_rung(svc: CertificationService, rate: float,
                   requests: list[tuple[str, dict[str, Any]]],
                   ) -> tuple[Rung, list[dict[str, Any] | None]]:
    loop = asyncio.get_running_loop()
    rung = Rung(rate=rate, done=[math.nan] * len(requests))
    responses: list[dict[str, Any] | None] = [None] * len(requests)

    async def one(i: int, payload: dict[str, Any]) -> None:
        responses[i] = await svc.submit(payload)
        rung.done[i] = loop.time()

    start = loop.time() + 0.02
    tasks = []
    for i, (_, payload) in enumerate(requests):
        due = start + i / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        rung.due.append(due)
        rung.sent.append(loop.time())
        tasks.append(loop.create_task(one(i, payload)))
    rung.backlog = sum(1 for t in tasks if not t.done())
    await asyncio.gather(*tasks)
    return rung, responses


def _comparable(resp: dict[str, Any]) -> str:
    keys = ("status",) + tuple(_RESULT_KEYS)
    return json.dumps({k: resp[k] for k in keys if k in resp},
                      sort_keys=True)


def check_responses(out: Outcome, log: list[tuple[str, dict, dict]],
                    seed: int) -> None:
    """Every response has the verdict of its kind; a seeded sample is
    byte-equal to in-process ``execute_request`` on warm state."""
    for kind, payload, resp in log:
        want = EXPECTED_STATUS[repeat_kind(payload) if kind == "repeat"
                               else kind]
        # SRV004 (degraded to symbolic under pressure) is a valid answer
        codes = {d.get("code") for d in resp.get("srv", [])} - {"SRV004"}
        out.check(resp.get("status") == want and not codes,
                  f"{kind} {payload}: {resp.get('status')} {sorted(codes)} "
                  f"{resp.get('error', '')}")
    states: dict[str, Any] = {}
    execute_request({"topo": TOPO}, states)
    rng = random.Random(seed)
    for kind, payload, resp in rng.sample(log, min(SAMPLED_CHECKS, len(log))):
        replay = dict(payload)
        if resp.get("degraded"):
            replay["engine"] = "symbolic"
        mine = execute_request(replay, states)
        out.check(_comparable(resp) == _comparable(mine),
                  f"service response differs from execute_request for "
                  f"{payload}")


async def run_ladder(svc: CertificationService, seed: int, seconds: int,
                     ) -> tuple[list[Rung], list[list[tuple[str, dict, dict]]]]:
    """Climb the ladder until a rung fails; per rung, the bookkeeping
    and the (kind, payload, response) rows."""
    rng = random.Random(seed)
    fresh = [10**7 + seed * 10**5]
    rungs, per_rung = [], []
    for idx, rate in enumerate(LADDER):
        # at least 20 requests, so every rung has a tail percentile
        count = max(20, (NOMINAL_PER_SECOND if idx == 0
                         else RUNG_PER_SECOND) * seconds)
        requests = make_requests(count, rng, fresh)
        rung, responses = await run_rung(svc, rate, requests)
        rows = [(k, p, r) for (k, p), r in zip(requests, responses)]
        rungs.append(rung)
        per_rung.append(rows)
        lat = latency_summary(rung.latencies())
        print(f"serve: rung {rate:6.1f}/s n={lat['n']} "
              f"p50 {lat['p50'] * 1e3:8.1f}ms "
              f"p{lat['tail_p']:.1f} {lat['tail'] * 1e3:8.1f}ms "
              f"backlog {rung.backlog:3d} "
              f"late max {max(rung.lateness()) * 1e3:6.1f}ms "
              f"achieved {rung.achieved_rate():6.2f}/s "
              f"{'pass' if rung.passes(LIMIT_S, MAX_BACKLOG) else 'FAIL'}")
        if not rung.passes(LIMIT_S, MAX_BACKLOG):
            break
    return rungs, per_rung


def replay_phase(log: list[tuple[str, dict, dict]], tracer: Tracer,
                 journal: Journal) -> None:
    """In-process replay of the service's per-request work: protocol
    decode and digest, journal accepted/done, ``execute_request``."""
    states: dict[str, Any] = {}
    execute_request({"topo": TOPO}, states)
    picked: dict[str, int] = {}
    with tracer.span("serve.replay"):
        for seq, (kind, payload, _) in enumerate(log):
            if picked.get(kind, 0) >= REPLAY_PER_KIND:
                continue
            picked[kind] = picked.get(kind, 0) + 1
            with tracer.span("serve.protocol"):
                req = CertRequest.from_json(
                    decode_line(encode_line({"op": "submit",
                                             "request": payload}))["request"])
                digest = req.digest()
            with tracer.span("serve.journal"):
                journal.accepted(seq, digest, req.to_json())
            with tracer.span(f"serve.worker_compute.{kind}"):
                result = execute_request(payload, states)
            with tracer.span("serve.protocol"):
                decode_line(encode_line(result))
            with tracer.span("serve.journal"):
                journal.done(seq, digest, result["status"])


def run(seed: int, seconds: int, tracer: Tracer) -> Outcome:
    out = Outcome()
    if not tracer.enabled:
        setup_s = cold_setup_seconds("serve", seed, Speedometer())
    path = _journal_path("run")

    async def main():
        svc = await start_warm(path)
        try:
            # wrap after the workers forked: only the supervisor's own
            # protocol and journal calls are timed live
            with instrumented(tracer, [
                    (CertRequest, "from_json", "serve.protocol"),
                    (Journal, "accepted", "serve.journal"),
                    (Journal, "done", "serve.journal")]):
                result = await run_ladder(svc, seed, seconds)
            return result, svc.metrics.to_json()
        finally:
            await svc.stop()

    try:
        (rungs, per_rung), metrics = asyncio.run(main())
    finally:
        _remove(path)
    log = [row for rows in per_rung for row in rows]
    check_responses(out, log, seed)
    for name in ("errors", "sheds", "deadline_kills", "rejected"):
        out.check(metrics[name] == 0, f"service {name}={metrics[name]}")

    if tracer.enabled:
        # each Journal.accepted/done makes exactly one fsync
        out.metric("serve.journal_fsyncs",
                   sum(1 for s in tracer.spans if s.name == "serve.journal"))
        _trace_metrics(out, tracer, rungs, per_rung, metrics)
        return out
    nominal = latency_summary(rungs[0].latencies())
    out.metric("setup_s", setup_s)
    out.metric("peak_rss_mb", peak_rss_mb())
    out.metric("latency_p50_ms", nominal["p50"] * 1e3)
    out.metric("latency_tail_ms", nominal["tail"] * 1e3)
    out.metric("throughput_per_s",
               max_sustained_rate(rungs, LIMIT_S, MAX_BACKLOG))
    return out


def _trace_metrics(out: Outcome, tracer: Tracer, rungs: list[Rung],
                   per_rung: list[list[tuple[str, dict, dict]]],
                   metrics: dict[str, Any]) -> None:
    log = [row for rows in per_rung for row in rows]
    path = _journal_path("replay")
    journal = Journal(path)
    try:
        replay_phase(log, NULL_TRACER, journal)   # warm-up
        t0 = time.perf_counter()
        replay_phase(log, NULL_TRACER, journal)
        untraced = time.perf_counter() - t0
        t0 = time.perf_counter()
        with instrumented(tracer, [
                (SymbolicCertifier, "certify", "check.symbolic.certify"),
                (SymbolicCertifier, "recertify",
                 "check.symbolic.recertify")]):
            replay_phase(log, tracer, journal)
        traced = time.perf_counter() - t0
    finally:
        journal.close()
        _remove(path)
    out.metric("trace.overhead_s", traced - untraced)
    nominal = rungs[0]
    overhead = [lat - (resp.get("compute_s") or 0.0)
                for lat, (_, _, resp) in zip(nominal.latencies(),
                                             per_rung[0])]
    out.metric("serve.overhead_ms", median(overhead) * 1e3)
    out.metric("serve.generator_late_ms",
               max(max(r.lateness()) for r in rungs) * 1e3)
    for name in ("cache_hits", "dedup_hits", "sheds", "errors", "degraded"):
        out.metric(f"serve.{name}", metrics[name])

