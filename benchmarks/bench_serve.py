"""Certification-service bench: crash recovery and delta throughput.

The service's two headline SLOs, pinned on the paper's n324 PGFT:

* **Cold-restart recovery < 5 s** -- a journal holding accepted-but-
  unfinished n324 requests (one cold certification plus a backlog of
  deltas) must replay to completion, start to settled journal, in
  under five seconds.
* **Sustained delta throughput >= 100 certs/sec** -- after one cold
  n324 certification warms a worker's base state, a stream of rotate
  deltas (each a full contention-freedom verdict via incremental
  recertification) must sustain at least 100 certificates per second.

The session conftest writes both numbers to
``artifacts/BENCH_serve.json``.
"""

import asyncio
import os
import time

from repro.serve import CertificationService, Journal, ServiceConfig
from repro.serve.protocol import CertRequest

TOPO = "n324"
RECOVERY_BACKLOG = 8          # journaled requests replayed on restart
MAX_RECOVERY_S = 5.0
DELTA_STREAM = 60             # deltas timed for the throughput figure
MIN_CERTS_PER_SEC = 100.0


def _config(journal_path, workers=2):
    return ServiceConfig(workers=workers, journal_path=str(journal_path),
                         tick_s=0.004, default_deadline_s=120.0)


def _write_backlog(journal_path):
    """Forge a crash: accepted records with no matching ``done``."""
    journal = Journal(str(journal_path))
    for seq in range(RECOVERY_BACKLOG):
        if seq == 0:
            req = CertRequest(topo=TOPO)
        else:
            req = CertRequest(topo=TOPO, kind="delta", order="rotate",
                              order_seed=seq)
        journal.accepted(seq, req.digest(), req.to_json())
    journal.close()
    return journal_path


def _recover(journal_path):
    """Start on a crashed journal; run until every record is settled."""

    async def main():
        svc = CertificationService(_config(journal_path))
        await svc.start()
        try:
            while svc.queue.depth or svc.dispatched:
                await asyncio.sleep(0.005)
            return svc.metrics.replayed, svc.metrics.certified
        finally:
            await svc.stop()

    return asyncio.run(main())


def _stream_deltas(journal_path):
    """Warm one cold n324 cert, then time a stream of rotate deltas."""

    async def main():
        svc = CertificationService(_config(journal_path))
        await svc.start()
        try:
            warm = await svc.submit({"topo": TOPO})
            assert warm["status"] == "certified"
            t0 = time.perf_counter()
            responses = await asyncio.gather(*[
                svc.submit({"topo": TOPO, "kind": "delta",
                            "order": "rotate", "order_seed": seed + 1})
                for seed in range(DELTA_STREAM)])
            elapsed = time.perf_counter() - t0
            assert all(r["status"] == "certified" for r in responses)
            return elapsed
        finally:
            await svc.stop()

    return asyncio.run(main())


def test_cold_restart_recovery_n324(benchmark, tmp_path):
    runs = iter(range(10**6))

    def fresh_journal():
        path = tmp_path / f"recovery-{next(runs)}.jsonl"
        return (_write_backlog(path),), {}

    replayed, certified = benchmark.pedantic(
        _recover, setup=fresh_journal, rounds=3, iterations=1)
    assert replayed == RECOVERY_BACKLOG
    assert certified == RECOVERY_BACKLOG

    recovery_s = benchmark.stats.stats.max
    benchmark.extra_info["topology"] = TOPO
    benchmark.extra_info["backlog"] = RECOVERY_BACKLOG
    benchmark.extra_info["recovery_s"] = round(recovery_s, 3)
    assert recovery_s < MAX_RECOVERY_S, (
        f"cold-restart recovery took {recovery_s:.2f}s "
        f"(SLO: < {MAX_RECOVERY_S:.0f}s)")


def test_sustained_delta_throughput_n324(benchmark, tmp_path):
    runs = iter(range(10**6))

    def fresh_journal():
        return (tmp_path / f"stream-{next(runs)}.jsonl",), {}

    elapsed = benchmark.pedantic(
        _stream_deltas, setup=fresh_journal, rounds=3, iterations=1)
    certs_per_sec = DELTA_STREAM / elapsed

    benchmark.extra_info["topology"] = TOPO
    benchmark.extra_info["deltas"] = DELTA_STREAM
    benchmark.extra_info["delta_stream_s"] = round(elapsed, 3)
    benchmark.extra_info["certs_per_sec"] = round(certs_per_sec, 1)
    assert certs_per_sec >= MIN_CERTS_PER_SEC, (
        f"sustained {certs_per_sec:.1f} certs/sec "
        f"(SLO: >= {MIN_CERTS_PER_SEC:.0f})")


if __name__ == "__main__":  # pragma: no cover - manual smoke
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        tmp = os.fspath(tmp)
        path = _write_backlog(os.path.join(tmp, "recovery.jsonl"))
        t0 = time.perf_counter()
        print("recovered:", _recover(path),
              f"in {time.perf_counter() - t0:.2f}s")
        elapsed = _stream_deltas(os.path.join(tmp, "stream.jsonl"))
        print(f"deltas: {DELTA_STREAM / elapsed:.1f} certs/sec")
