"""Service semantics: admission, dedup, shedding, degradation, deadlines,
quarantine, journal replay and the Unix-socket front-end."""

import asyncio
import json
import os
import threading
import time

from repro.serve.queue import RequeuePolicy


def run(coro):
    return asyncio.run(coro)


def run_bounded(coro, seconds):
    """``run`` in a thread the test can give up on: a supervisor that
    swallows its cancellation never lets ``asyncio.run`` return."""
    out = []
    thread = threading.Thread(target=lambda: out.append(run(coro)),
                              daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), "the event loop hung"
    return out[0]


async def _finished(svc):
    while svc.queue.depth or svc.dispatched:
        await asyncio.sleep(0.01)


class TestSubmit:
    def test_certify_and_cache(self, make_service):
        async def main():
            svc = make_service()
            await svc.start()
            try:
                first = await svc.submit({"topo": "n16-pgft"})
                again = await svc.submit({"topo": "n16-pgft"})
                return first, again
            finally:
                await svc.stop()

        first, again = run(main())
        assert first["status"] == "certified" and not first["cached"]
        assert first["certificates"][0]["verdict"] == "contention-free"
        assert again["cached"] is True
        assert (json.dumps(again["certificates"], sort_keys=True)
                == json.dumps(first["certificates"], sort_keys=True))

    def test_no_cache_forces_recompute(self, make_service):
        async def main():
            svc = make_service()
            await svc.start()
            try:
                await svc.submit({"topo": "n16-pgft"})
                fresh = await svc.submit({"topo": "n16-pgft",
                                          "no_cache": True})
                return fresh, svc.metrics.cache_hits
            finally:
                await svc.stop()

        fresh, cache_hits = run(main())
        assert fresh["cached"] is False
        assert cache_hits == 0

    def test_invalid_request_rejected_srv005(self, make_service):
        async def main():
            svc = make_service()
            await svc.start()
            try:
                out = await svc.submit({"topo": "n16-pgft",
                                        "engine": "oracle"})
                return out, svc.metrics.rejected, svc.metrics.accepted
            finally:
                await svc.stop()

        out, rejected, accepted = run(main())
        assert out["status"] == "error"
        assert out["srv"][0]["code"] == "SRV005"
        assert rejected == 1 and accepted == 0

    def test_test_hooks_gated(self, make_service):
        async def main():
            svc = make_service(allow_test_hooks=False)
            await svc.start()
            try:
                return await svc.submit({"topo": "n16-pgft",
                                         "test_crash": True})
            finally:
                await svc.stop()

        out = run(main())
        assert out["status"] == "error"
        assert out["srv"][0]["code"] == "SRV005"
        assert "test hooks" in out["error"]

    def test_identical_inflight_requests_deduplicate(self, make_service):
        async def main():
            svc = make_service(workers=1)
            await svc.start()
            try:
                payload = {"topo": "n16-pgft", "test_delay_s": 0.3}
                outs = await asyncio.gather(*[
                    svc.submit(dict(payload)) for _ in range(5)])
                return outs, svc.metrics
            finally:
                await svc.stop()

        outs, metrics = run(main())
        assert all(o["status"] == "certified" for o in outs)
        assert metrics.accepted == 1
        assert metrics.dedup_hits == 4


class TestBackpressure:
    def test_overflow_sheds_with_retry_after(self, make_service):
        async def main():
            svc = make_service(workers=1, queue_capacity=2, high_water=1)
            await svc.start()
            try:
                blocker = asyncio.ensure_future(svc.submit(
                    {"topo": "n16-pgft", "test_delay_s": 0.5}))
                await asyncio.sleep(0.1)  # blocker now occupies the worker
                fillers = [asyncio.ensure_future(svc.submit(
                    {"topo": "n16-pgft", "order": "random",
                     "order_seed": seed})) for seed in range(2)]
                await asyncio.sleep(0.05)  # fillers now occupy the queue
                shed = await svc.submit({"topo": "n16-pgft",
                                         "order": "random",
                                         "order_seed": 99})
                rest = await asyncio.gather(blocker, *fillers)
                return shed, rest, svc.metrics.sheds
            finally:
                await svc.stop()

        shed, rest, sheds = run(main())
        assert shed["status"] == "shed"
        assert shed["srv"][0]["code"] == "SRV002"
        assert shed["retry_after_s"] > 0
        assert sheds == 1
        assert all(r["status"] in ("certified", "refuted") for r in rest)

    def test_pressure_degrades_both_to_symbolic(self, make_service):
        async def main():
            svc = make_service(workers=1, queue_capacity=8, high_water=1)
            await svc.start()
            try:
                blocker = asyncio.ensure_future(svc.submit(
                    {"topo": "n16-pgft", "test_delay_s": 0.4}))
                await asyncio.sleep(0.1)
                queued = [asyncio.ensure_future(svc.submit(
                    {"topo": "n16-pgft", "engine": "both",
                     "order": "random", "order_seed": seed}))
                    for seed in range(2)]
                outs = await asyncio.gather(blocker, *queued)
                cached = [p.name for p in svc.cache.root.iterdir()] \
                    if svc.cache.root.exists() else []
                return outs, svc.metrics.degraded, cached
            finally:
                await svc.stop()

        outs, degraded, cached = run(main())
        degraded_outs = [o for o in outs if o["degraded"]]
        assert degraded == len(degraded_outs) >= 1
        for out in degraded_outs:
            assert out["engine"] == "symbolic"
            assert any(d["code"] == "SRV004" for d in out["srv"])
            # degraded verdicts are never cached
            assert not any(out["request_digest"][:32] in name
                           for name in cached)


class TestFailureHandling:
    def test_crash_retry_then_quarantine(self, make_service):
        async def main():
            svc = make_service(poison_threshold=2)
            await svc.start()
            try:
                poisoned = await svc.submit({"topo": "n16-pgft",
                                             "test_crash": True})
                hit = await svc.submit({"topo": "n16-pgft",
                                        "test_crash": True})
                healthy = await svc.submit({"topo": "n16-pgft"})
                return poisoned, hit, healthy, svc.metrics
            finally:
                await svc.stop()

        poisoned, hit, healthy, metrics = run(main())
        assert poisoned["status"] == "error"
        assert poisoned["srv"][0]["code"] == "SRV001"
        assert poisoned["attempts"] == 2  # initial + one requeue
        assert hit["srv"][0]["code"] == "SRV001"  # admission-time refusal
        assert healthy["status"] == "certified"
        assert metrics.quarantined == 1
        assert metrics.quarantine_hits == 1
        assert metrics.pool.crashes == 2

    def test_retry_budget_exhausted_srv008(self, make_service):
        async def main():
            svc = make_service(
                poison_threshold=10,
                requeue=RequeuePolicy(max_retries=1, base_delay=0.01,
                                      jitter=0.0))
            await svc.start()
            try:
                out = await svc.submit({"topo": "n16-pgft",
                                        "test_crash": True})
                return out, svc.metrics.pool.retries
            finally:
                await svc.stop()

        out, retries = run(main())
        assert out["status"] == "error"
        assert out["srv"][0]["code"] == "SRV008"
        assert out["attempts"] == 2
        assert retries == 1

    def test_deadline_kills_worker_srv003(self, make_service):
        async def main():
            svc = make_service(workers=1)
            await svc.start()
            try:
                slow = await svc.submit({"topo": "n16-pgft",
                                         "test_delay_s": 10.0,
                                         "deadline_s": 0.2})
                after = await svc.submit({"topo": "n16-pgft"})
                return slow, after, svc.metrics.deadline_kills
            finally:
                await svc.stop()

        slow, after, kills = run(main())
        assert slow["status"] == "error"
        assert slow["srv"][0]["code"] == "SRV003"
        assert slow["elapsed_s"] < 5.0
        assert after["status"] == "certified"
        assert kills == 1


class TestLifecycle:
    def test_stop_answers_waiters_and_replays(self, make_service, tmp_path):
        async def main():
            svc = make_service(workers=1)
            await svc.start()
            tasks = [asyncio.ensure_future(svc.submit(
                {"topo": "n16-pgft", "test_delay_s": 1.5})),
                asyncio.ensure_future(svc.submit(
                    {"topo": "n16-pgft", "order": "rotate",
                     "order_seed": 4}))]
            await asyncio.sleep(0.15)
            await svc.stop()
            outs = await asyncio.gather(*tasks)

            svc2 = make_service(workers=2)
            await svc2.start()
            try:
                await _finished(svc2)
                return outs, svc2.metrics
            finally:
                await svc2.stop()

        outs, metrics = run(main())
        for out in outs:
            assert out["status"] == "error"
            assert out["srv"][0]["code"] == "SRV007"
        assert metrics.replayed == 2
        assert metrics.completed == 2
        assert metrics.certified == 2

    def test_drain_completes_backlog(self, make_service):
        async def main():
            svc = make_service()
            await svc.start()
            tasks = [asyncio.ensure_future(svc.submit(
                {"topo": "n16-pgft", "order": "rotate",
                 "order_seed": seed})) for seed in range(6)]
            await asyncio.sleep(0.05)
            report = await svc.drain(timeout_s=60.0)
            refused = await svc.submit({"topo": "n16-pgft",
                                        "order": "reversed"})
            outs = await asyncio.gather(*tasks)
            await svc.stop()
            return report, refused, outs

        report, refused, outs = run(main())
        assert report["drained"] is True and report["remaining"] == 0
        assert refused["srv"][0]["code"] == "SRV007"
        assert all(o["status"] in ("certified", "refuted") for o in outs)

    def test_status_shape(self, make_service):
        async def main():
            svc = make_service()
            await svc.start()
            try:
                await svc.submit({"topo": "n16-pgft"})
                return svc.status()
            finally:
                await svc.stop()

        st = run(main())
        assert st["status"] == "ok"
        assert st["queue"]["capacity"] == 256
        assert st["workers"]["size"] == 2
        assert len(st["workers"]["pids"]) == 2
        assert st["metrics"]["completed"] == 1
        assert st["metrics"]["pool"]["submitted"] == 1
        assert st["metrics"]["latency_p50_s"] > 0
        assert st["srv"][0]["code"] == "SRV090"
        assert st["cache"]["total_bytes"] > 0


class TestSupervisorWake:
    """The supervisor sleeps until work or a worker reply arrives;
    ``tick_s`` only bounds the sleep."""

    def test_request_does_not_wait_for_the_tick(self, make_service):
        async def main():
            svc = make_service(tick_s=1.0)
            await svc.start()
            try:
                t0 = time.perf_counter()
                out = await svc.submit({"topo": "n16-pgft"})
                return out, time.perf_counter() - t0
            finally:
                await svc.stop()

        out, elapsed = run_bounded(main(), 60.0)
        assert out["status"] == "certified"
        assert elapsed < 0.5, f"request took {elapsed:.3f}s at tick_s=1.0"

    def test_stop_is_prompt_while_a_reply_arrives(self, make_service,
                                                  tmp_path):
        async def once(rep):
            svc = make_service(
                workers=1, tick_s=1.0, cache_dir=None,
                journal_path=os.path.join(tmp_path, f"j{rep}.jsonl"))
            await svc.start()
            pending = asyncio.ensure_future(svc.submit(
                {"topo": "n16-pgft", "order": "rotate",
                 "order_seed": rep}))
            while not svc.dispatched:
                await asyncio.sleep(0)
            # block (without yielding) until the reply sits in the pipe,
            # so stop()'s cancel races the pipe's wake-up
            assert svc.pool.handles[0].conn.poll(10.0)
            if rep % 2:
                await asyncio.sleep(0)
            t0 = time.perf_counter()
            await asyncio.wait_for(svc.stop(), timeout=5.0)
            elapsed = time.perf_counter() - t0
            out = await pending
            return elapsed, out["status"]

        async def main():
            return [await once(rep) for rep in range(50)]

        results = run_bounded(main(), 120.0)
        assert max(e for e, _ in results) < 2.0
        assert {s for _, s in results} <= {"certified", "error"}


class TestUnixSocket:
    def test_submit_status_over_socket(self, make_service, tmp_path):
        from repro.serve.protocol import decode_line, encode_line
        from repro.serve.service import serve_unix

        sock_path = os.path.join(tmp_path, "serve.sock")

        async def talk(reader, writer, message):
            writer.write(encode_line(message))
            await writer.drain()
            return decode_line(await reader.readline())

        async def main():
            svc = make_service()
            await svc.start()
            server = await serve_unix(svc, sock_path)
            try:
                reader, writer = await asyncio.open_unix_connection(
                    sock_path)
                ping = await talk(reader, writer, {"op": "ping"})
                sub = await talk(reader, writer, {
                    "op": "submit", "request": {"topo": "n16-pgft"}})
                status = await talk(reader, writer, {"op": "status"})
                bad = await talk(reader, writer, {"op": "warp"})
                stop = await talk(reader, writer, {"op": "stop"})
                writer.close()
                await writer.wait_closed()
                return ping, sub, status, bad, stop, svc.shutdown.is_set()
            finally:
                server.close()
                await server.wait_closed()
                await svc.stop()

        ping, sub, status, bad, stop, shut = run(main())
        assert ping["status"] == "ok"
        assert sub["status"] == "certified"
        assert status["metrics"]["completed"] == 1
        assert bad["status"] == "error" and "unknown op" in bad["error"]
        assert stop["stopping"] is True
        assert shut is True
