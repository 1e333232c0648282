"""Shared machinery of the benchmark: spans, percentiles, open-loop
bookkeeping, cold set-up timing and the result line.

Nothing here imports ``repro``; the workload modules do.  Spans are
recorded from the benchmark's own files -- either around calls it makes
or by temporarily wrapping public functions of the program for a traced
run (:func:`instrumented`) -- so the program itself carries no tracing.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import heapq
import inspect
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed interval; ``parent`` is the index of the enclosing span
    (``-1`` for a root) and ``trace`` the index of its root span."""

    id: int
    name: str
    parent: int
    trace: int
    start: float
    end: float = math.nan

    @property
    def duration(self) -> float:
        return self.end - self.start


_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_span", default=-1)


class Tracer:
    """In-memory span recorder.  Disabled, :meth:`span` is a no-op
    context manager, so untraced runs pay one attribute check."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []

    @contextlib.contextmanager
    def _record(self, name: str) -> Iterator[Span]:
        parent = _CURRENT.get()
        sid = len(self.spans)
        trace = sid if parent < 0 else self.spans[parent].trace
        rec = Span(sid, name, parent, trace, time.perf_counter())
        self.spans.append(rec)
        token = _CURRENT.set(sid)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            _CURRENT.reset(token)

    def span(self, name: str) -> contextlib.AbstractContextManager:
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name)


NULL_TRACER = Tracer(enabled=False)


def _wrap(fn: Callable, tracer: Tracer, name: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def instrumented(tracer: Tracer,
                 targets: Iterable[tuple[Any, str, str]]) -> Iterator[None]:
    """Wrap ``owner.attr`` in a span named ``name`` for each target while
    the block runs; restores the originals on exit.  Plain functions,
    methods and class methods are supported."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        if tracer.enabled:
            for owner, attr, name in targets:
                raw = inspect.getattr_static(owner, attr)
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    new: Any = classmethod(_wrap(raw.__func__, tracer, name))
                else:
                    new = _wrap(raw, tracer, name)
                setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - _covered(children.get(s.id, []), s.start, s.end)
            for s in spans]


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0      # inclusive
    self_s: float = 0.0

    @property
    def mean_self_s(self) -> float:
        return self.self_s / self.calls if self.calls else 0.0

    @property
    def mean_total_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0


def layer_table(spans: list[Span]) -> dict[str, LayerStat]:
    """Self-time table keyed by span name."""
    table: dict[str, LayerStat] = {}
    for s, own in zip(spans, self_times(spans)):
        st = table.setdefault(s.name, LayerStat())
        st.calls += 1
        st.total_s += s.duration
        st.self_s += own
    return table


def coverage(spans: list[Span], phase: str,
             is_layer: Callable[[str], bool]) -> float:
    """Share of the ``phase`` spans' wall time that layer spans account
    for: one minus the self time of every non-layer span in the phase's
    subtrees (the phase span itself included), over the phase's wall."""
    own = self_times(spans)
    roots = {s.id for s in spans if s.name == phase}
    if not roots:
        return 0.0
    wall = sum(spans[r].duration for r in roots)
    inside: set[int] = set()
    for s in spans:  # parents precede children, so one pass suffices
        if s.id in roots or s.parent in inside:
            inside.add(s.id)
    gap = sum(own[i] for i in inside if not is_layer(spans[i].name))
    return 1.0 - gap / wall if wall > 0 else 0.0


def render_tree(spans: list[Span]) -> str:
    """Span tree aggregated by name path: calls, total and self seconds."""
    own = self_times(spans)
    paths: dict[int, tuple[str, ...]] = {}
    agg: dict[tuple[str, ...], list[float]] = {}
    for s in spans:
        path = (paths[s.parent] if s.parent >= 0 else ()) + (s.name,)
        paths[s.id] = path
        row = agg.setdefault(path, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.duration
        row[2] += own[s.id]
    lines = [f"{'span':<58} {'calls':>6} {'total_s':>10} {'self_s':>10}"]
    for path in sorted(agg):
        calls, total, mine = agg[path]
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(f"{label:<58} {int(calls):>6} {total:>10.4f} "
                     f"{mine:>10.4f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n: int) -> float | None:
    """The highest percentile with at least ten of ``n`` samples beyond
    it: ``100 * (n - 10) / n``.  ``None`` below 20 samples, where that
    would fall under the median."""
    if n < 20:
        return None
    return 100.0 * (n - 10) / n


def latency_summary(values: list[float]) -> dict[str, Any]:
    """Median and the tail percentile of ``values`` with the count."""
    p = tail_percentile(len(values))
    return {"n": len(values), "p50": percentile(values, 50.0),
            "tail_p": p,
            "tail": percentile(values, p) if p is not None else math.nan}


# ----------------------------------------------------------------------
# Open-loop bookkeeping
# ----------------------------------------------------------------------
@dataclass
class Rung:
    """One fixed offered rate of an open-loop ladder.

    Times are seconds on one monotonic clock.  ``due[i]`` is when request
    ``i`` was scheduled, ``sent[i]`` when the generator issued it and
    ``done[i]`` when its response arrived.  ``backlog`` is the number of
    requests still outstanding when the rung's last request was sent.
    """

    rate: float
    due: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)
    backlog: int = 0

    def latencies(self) -> list[float]:
        """Latency of each request measured from its due time, so a
        stalled generator's delay is charged to the requests it held."""
        return [d - u for u, d in zip(self.due, self.done)]

    def lateness(self) -> list[float]:
        return [s - u for u, s in zip(self.due, self.sent)]

    def achieved_rate(self) -> float:
        """Completed requests per second from the first due time to the
        last completion."""
        if not self.done:
            return 0.0
        span = max(self.done) - min(self.due)
        return len(self.done) / span if span > 0 else 0.0

    def passes(self, limit_s: float, max_backlog: int) -> bool:
        """Within the latency limit at the tail percentile and no
        growing backlog."""
        if len(self.done) < len(self.due):
            return False
        s = latency_summary(self.latencies())
        if s["tail_p"] is None:
            return False
        return s["tail"] <= limit_s and self.backlog <= max_backlog


def max_sustained_rate(rungs: list[Rung], limit_s: float,
                       max_backlog: int) -> float:
    """Achieved rate of the highest passing rung below the first failing
    one (rungs in increasing offered rate); 0.0 if the first fails."""
    best = 0.0
    for r in rungs:
        if not r.passes(limit_s, max_backlog):
            break
        best = r.achieved_rate()
    return best


# ----------------------------------------------------------------------
# Machine-speed normalisation
# ----------------------------------------------------------------------
#: the calibration kernel's median wall time on the reference machine
#: (2-vCPU "Intel Xeon Processor" VM, Python 3.11.7, NumPy 2.4.6)
REFERENCE_S = 0.034
#: a kernel sample older than this is not "just before" an operation
STALE_S = 1.0


class _Item:
    __slots__ = ("key", "load")

    def __init__(self, key: float, load: int) -> None:
        self.key, self.load = key, load

    def __lt__(self, other: "_Item") -> bool:
        return self.key < other.key


class Timed(NamedTuple):
    """An operation's wall seconds, when it ran, and the slice of
    :attr:`Speedometer.samples` that brackets it."""

    wall: float
    start: float
    end: float
    lo: int
    hi: int


class Speedometer:
    """Times operations at the reference machine's speed.

    A shared host's speed drifts -- by several percent between seconds
    and by 40-75% for minutes at a time -- and the drift moves every
    operation alike.  So a fixed calibration kernel is timed right
    before and right after each timed operation, and an operation's
    time is reported as its wall time times ``REFERENCE_S`` over the
    median of those kernel samples.  The kernel runs on inputs of its
    own, in three parts of ~10 ms each that mirror what the program's
    hot paths are made of: bulk NumPy (a large sort, segment sums,
    elementwise arithmetic), many small-array NumPy calls, and an
    interpreter-bound loop of objects, dicts and a heap.  A change to
    the program moves a scaled time as it moves the wall time; a slower
    host moves the kernel too and cancels out.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20110516)
        self._keys = rng.integers(0, 1 << 40, 500_000)
        self._vals = rng.random(500_000)
        self._starts = np.sort(rng.choice(len(self._vals), 35_000,
                                          replace=False))
        self._starts[0] = 0
        self._grid = rng.random((324, 8, 4))
        self._row = rng.random(324)
        self._mask = self._row > 0.5
        self._items = [_Item(k, i) for i, k in
                       enumerate(rng.random(8_500).tolist())]
        # preallocated outputs: page faults of fresh buffers are noise
        self._buf = np.empty_like(self._keys)
        self._out = np.empty_like(self._vals)
        self._kernel()                       # first touch stays untimed
        self._last = self._kernel()
        self._last_at = time.perf_counter()
        self.samples = [self._last]
        self._stamps = [self._last_at]

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        self._buf[:] = self._keys
        self._buf.sort()
        np.add.reduceat(self._vals, self._starts)
        np.multiply(self._vals, 3.0, out=self._out)
        np.sqrt(self._out, out=self._out)
        np.cumsum(self._out, out=self._out)
        g, row, mask = self._grid, self._row, self._mask
        for j in range(450):
            for h in range(1, 6):
                col = g[:, h, j % 4]
                g[:, h - 1, j % 4] = np.where(mask, np.maximum(row, col),
                                              g[:, h - 1, j % 4])
        heap: list[_Item] = []
        totals: dict[int, float] = {}
        for item in self._items:
            heapq.heappush(heap, item)
        while heap:
            item = heapq.heappop(heap)
            totals[item.load % 97] = totals.get(item.load % 97, 0.0) \
                + item.key
        return time.perf_counter() - t0

    def _sample(self) -> float:
        self._last = self._kernel()
        self._last_at = time.perf_counter()
        self.samples.append(self._last)
        self._stamps.append(self._last_at)
        return self._last

    def measure(self, fn: Callable[..., Any], *args: Any, ticks: int = 1,
                **kwargs: Any) -> tuple[Any, Timed]:
        """Call ``fn`` between ``ticks`` kernel samples on each side (the
        last sample stands for the first side while it is fresh); return
        its result and its :class:`Timed` for :meth:`seconds`."""
        fresh = time.perf_counter() - self._last_at < STALE_S
        if ticks > 1 or not fresh:
            for _ in range(ticks):
                self._sample()
        lo = len(self.samples) - ticks
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        for _ in range(ticks):
            self._sample()
        return result, Timed(t1 - t0, t0, t1, lo, len(self.samples))

    def seconds(self, timed: Timed, window: float = 0.0) -> float:
        """``timed``'s wall seconds at the reference speed, by the median
        of its bracketing kernel samples and of every sample taken within
        ``window`` seconds of it.  A window damps the kernel's own noise
        for a long operation, whose few brackets say little about the
        seconds inside it."""
        near = set(range(timed.lo, timed.hi))
        near.update(i for i, at in enumerate(self._stamps)
                    if timed.start - window <= at <= timed.end + window)
        kernel = statistics.median(self.samples[i] for i in near)
        return timed.wall * REFERENCE_S / kernel

    def time(self, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> tuple[Any, float]:
        """Call ``fn``; return its result and its wall seconds at the
        reference speed, by its two bracketing kernel samples."""
        result, timed = self.measure(fn, *args, **kwargs)
        return result, self.seconds(timed)

    def factor(self) -> float:
        """The run's median host speed relative to the reference."""
        return REFERENCE_S / statistics.median(self.samples)


# ----------------------------------------------------------------------
# Process-level measurements
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    reaped child (service workers, cold set-up probes), in MiB."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0


def cold_setup_seconds(workload: str, seed: int, speed: Speedometer,
                       reps: int = 7) -> float:
    """Median time, at the reference speed, of ``reps`` fresh
    interpreters that import the program and build the workload's inputs
    (``<workload>.setup``)."""
    code = ("import sys; sys.path[:0] = [%r, %r]; import %s as w; "
            "w.setup(%d)" % (str(BENCH_DIR), str(SRC), workload, seed))
    times = []
    for _ in range(reps):
        proc, seconds = speed.time(
            subprocess.run, [sys.executable, "-c", code], cwd=str(ROOT),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        times.append(seconds)
        if proc.returncode != 0:
            raise RuntimeError(f"cold set-up of {workload} failed:\n"
                               f"{proc.stderr.decode(errors='replace')}")
    return statistics.median(times)


def scratch_dir() -> Path:
    """Directory for files a run writes (inside the checkout)."""
    path = ROOT / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


def load_expected() -> dict[str, Any]:
    with open(BENCH_DIR / "expected.json") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What a workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one operation; a false ``ok`` is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(what)

    def metric(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)


def result_line(out: Outcome, names: list[tuple[str, str]],
                absent_is_zero: bool) -> str:
    """The final JSON line, carrying exactly the metrics in ``names``.

    With ``absent_is_zero`` a metric the workload did not produce reads
    0 (a per-layer metric of a layer the workload never enters);
    otherwise a missing metric is an error.
    """
    metrics = {}
    for name, unit in names:
        if name not in out.metrics and not absent_is_zero:
            raise KeyError(f"workload did not measure {name!r}")
        metrics[name] = {"value": out.metrics.get(name, 0.0), "unit": unit}
    return json.dumps({"correct": out.failed == 0 and out.attempted > 0,
                       "attempted": out.attempted, "failed": out.failed,
                       "metrics": metrics})
