"""Self-tests of the benchmark's helpers.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import asyncio
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from harness import (  # noqa: E402
    REFERENCE_S,
    Rung,
    Span,
    Speedometer,
    Tracer,
    coverage,
    instrumented,
    latency_summary,
    layer_table,
    max_sustained_rate,
    percentile,
    self_times,
    tail_percentile,
)


# -- the "highest percentile with >= 10 samples beyond it" rule ---------
def test_tail_percentile_needs_twenty_samples():
    assert tail_percentile(0) is None
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0


@pytest.mark.parametrize("n,p", [(20, 50.0), (40, 75.0), (100, 90.0),
                                 (120, 100.0 * 110 / 120), (1000, 99.0)])
def test_tail_percentile_values(n, p):
    assert tail_percentile(n) == pytest.approx(p)


@pytest.mark.parametrize("n", [20, 21, 24, 37, 100, 120, 999])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    rng = random.Random(n)
    values = [rng.random() for _ in range(n)]
    s = latency_summary(values)
    beyond = sum(v > s["tail"] for v in values)
    assert beyond == 10
    # and no higher percentile would keep ten beyond it
    assert sum(v > sorted(values)[n - 10] for v in values) < 10


def test_percentile_interpolates_like_numpy():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 25) == 2.0
    assert percentile(xs, 90) == pytest.approx(4.6)
    assert percentile([7.0], 99) == 7.0


# -- self-time arithmetic over nested spans -----------------------------
def _span(i, name, parent, start, end):
    return Span(i, name, parent, 0, start, end)


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, "phase", -1, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "a.inner", 1, 2.0, 3.0),
        # overlaps "a": concurrent tasks under one parent count once
        _span(3, "b", 0, 3.0, 6.0),
        # sticks out past its parent's end: clipped
        _span(4, "late", 3, 5.0, 8.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx([5.0, 2.0, 1.0, 2.0, 3.0])
    table = layer_table(spans)
    assert table["a"].calls == 1 and table["a"].self_s == pytest.approx(2.0)
    assert table["a"].total_s == pytest.approx(3.0)


def test_coverage_counts_only_non_layer_self_time_as_gap():
    spans = [
        _span(0, "phase", -1, 0.0, 10.0),
        _span(1, "group", 0, 0.0, 8.0),       # not a layer
        _span(2, "layer.x", 1, 0.0, 6.0),
        _span(3, "layer.y", 0, 8.0, 9.5),
        _span(4, "elsewhere", -1, 20.0, 30.0),
    ]
    cov = coverage(spans, "phase", {"layer.x", "layer.y"}.__contains__)
    # gaps: phase self 0.5, group self 2.0
    assert cov == pytest.approx(1.0 - 2.5 / 10.0)
    assert coverage(spans, "missing", lambda n: True) == 0.0


def test_tracer_nests_and_disabled_tracer_records_nothing():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    with tr.span("second"):
        pass
    assert [(s.name, s.parent, s.trace) for s in tr.spans] == [
        ("outer", -1, 0), ("inner", 0, 0), ("second", -1, 2)]
    off = Tracer(enabled=False)
    with off.span("x"):
        pass
    assert off.spans == []


def test_tracer_parents_follow_asyncio_tasks():
    tr = Tracer()

    async def child(name):
        with tr.span(name):
            await asyncio.sleep(0.001)

    async def main():
        with tr.span("root"):
            await asyncio.gather(child("c1"), child("c2"))

    asyncio.run(main())
    by_name = {s.name: s for s in tr.spans}
    assert by_name["c1"].parent == by_name["root"].id
    assert by_name["c2"].parent == by_name["root"].id


class _Target:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return cls, x


def test_instrumented_wraps_and_restores():
    tr = Tracer()
    before = _Target.__dict__["method"], _Target.__dict__["build"]
    with instrumented(tr, [(_Target, "method", "m"),
                           (_Target, "build", "b")]):
        assert _Target().method(1) == 2
        assert _Target.build(3) == (_Target, 3)
    assert (_Target.__dict__["method"], _Target.__dict__["build"]) == before
    assert [s.name for s in tr.spans] == ["m", "b"]
    with instrumented(Tracer(enabled=False), [(_Target, "method", "m")]):
        assert _Target.__dict__["method"] is before[0]


# -- due-time latency accounting ----------------------------------------
def test_latency_is_measured_from_due_time():
    # the generator stalled 0.5 s before sending the second request:
    # that wait belongs to the request, not to the generator
    r = Rung(rate=10.0, due=[0.0, 0.1], sent=[0.0, 0.6],
             done=[0.05, 0.65])
    assert r.latencies() == pytest.approx([0.05, 0.55])
    assert r.lateness() == pytest.approx([0.0, 0.5])
    assert r.achieved_rate() == pytest.approx(2 / 0.65)


def _rung(rate, latency, backlog=0, n=100):
    due = [i / rate for i in range(n)]
    return Rung(rate=rate, due=due, sent=list(due),
                done=[d + latency for d in due], backlog=backlog)


def test_rung_passes_on_tail_and_backlog():
    assert _rung(10, 0.05).passes(0.1, 5)
    assert not _rung(10, 0.2).passes(0.1, 5)
    assert not _rung(10, 0.05, backlog=6).passes(0.1, 5)
    assert not _rung(10, 0.05, n=10).passes(0.1, 5)     # no tail yet


def test_max_sustained_rate_stops_at_first_failure():
    rungs = [_rung(10, 0.05), _rung(20, 0.05), _rung(40, 0.5),
             _rung(80, 0.05)]
    assert max_sustained_rate(rungs, 0.1, 5) == pytest.approx(
        rungs[1].achieved_rate())
    assert max_sustained_rate([_rung(10, 1.0)], 0.1, 5) == 0.0


# -- machine-speed normalisation ----------------------------------------
class _FakeHost:
    """A clock that only operations advance, and scripted kernel times."""

    def __init__(self, kernel_times):
        self.now = 0.0
        self.kernel_times = iter(kernel_times)

    def perf_counter(self):
        return self.now

    def op(self, seconds):
        self.now += seconds
        return "done"


def _speedometer(monkeypatch, host):
    speed = Speedometer()
    monkeypatch.setattr(harness, "time", SimpleNamespace(
        perf_counter=host.perf_counter))
    monkeypatch.setattr(speed, "_kernel", lambda: next(host.kernel_times))
    speed._last_at = -10.0                  # the constructor's sample is stale
    return speed


def test_speedometer_scales_by_the_bracketing_kernel_samples(monkeypatch):
    # a host at half the reference speed: 2 s of wall time is 1 s
    host = _FakeHost([2 * REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S])
    speed = _speedometer(monkeypatch, host)
    assert speed.time(host.op, 2.0) == ("done", pytest.approx(1.0))
    # the next operation reuses the fresh sample as its "before": the
    # kernel reads 2x then 4x the reference, a mean of 3x
    assert speed.time(host.op, 3.0)[1] == pytest.approx(1.0)


def test_speedometer_takes_the_median_of_several_ticks(monkeypatch):
    ref = REFERENCE_S
    host = _FakeHost([ref, 2 * ref, 2 * ref, 9 * ref, 2 * ref, ref])
    speed = _speedometer(monkeypatch, host)
    _, timed = speed.measure(host.op, 4.0, ticks=3)
    assert speed.seconds(timed) == pytest.approx(2.0)


def test_speedometer_window_adds_the_samples_near_an_operation(monkeypatch):
    ref = REFERENCE_S
    host = _FakeHost([ref, ref, 4 * ref, 4 * ref, 4 * ref, 4 * ref, 4 * ref])
    speed = _speedometer(monkeypatch, host)
    speed.time(host.op, 10.0)                 # samples at t=0 and t=10
    _, timed = speed.measure(host.op, 1.0)    # t=10..11: ref, 4 ref
    for _ in range(2):
        speed.time(host.op, 1.0)              # t=12, t=13: 4 ref each
    host.op(5.0)
    speed.time(host.op, 1.0)                  # stale: t=18 and t=19
    assert speed.seconds(timed) == pytest.approx(1.0 / 2.5)
    # within 2 s: the samples at t=10, 11, 12 and 13
    assert speed.seconds(timed, window=2.0) == pytest.approx(1.0 / 4)
