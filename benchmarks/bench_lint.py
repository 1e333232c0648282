"""Table-native routing lint bench.

The all-pairs lint passes (reachability, up-down, CDG, down-balance,
minimality) read the tables per ``(first switch, destination)`` entry
instead of walking every ``(src, dst)`` pair; ``tests/lint_reference.py``
keeps the pair-walking bodies.  This bench pins three things:

* **outputs**: at n324 and n1944 the six table passes (the five above
  and up-balance) emit the same diagnostics and artifacts as the
  reference;
* **n324 speed-up**: the median of interleaved per-pair speed-ups of
  the five all-pairs passes is at least 5x;
* **n1944 certification**: a ``default_pipeline(engine="both")``
  certification of the sampled shift, each side in a fresh process, is
  at least 4x faster than the same pipeline with the reference passes,
  and peaks under 500 MB.

The session conftest writes the measured numbers to
``artifacts/BENCH_lint.json``.
"""

import hashlib
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from repro.check import (  # noqa: E402
    CheckContext,
    DiagnosticReport,
    ScheduleCase,
    default_pipeline,
)
from repro.experiments.common import sampled_shift  # noqa: E402
from repro.fabric import build_fabric  # noqa: E402
from repro.ordering import topology_order  # noqa: E402
from repro.routing import route_dmodk  # noqa: E402
from repro.topology import paper_topologies  # noqa: E402
from tests.lint_reference import REFERENCE_PASSES  # noqa: E402

ALL_PAIRS = ("reachability", "up-down", "cdg", "down-balance", "minimality")
MIN_PASS_SPEEDUP = 5.0     # n324, the five all-pairs passes
MIN_CERT_SPEEDUP = 4.0     # n1944, one whole certification
MAX_CERT_RSS_MB = 500.0
TIMING_PAIRS = 21
CERT_PAIRS = 3
SHIFT_STAGES = 64          # the check CLI's and the service's sampling


def _context(topo):
    spec = paper_topologies()[topo]
    n = spec.num_endports
    tables = route_dmodk(build_fabric(spec))
    return CheckContext.for_tables(
        tables, routing_name="dmodk",
        schedule=[ScheduleCase(sampled_shift(n, SHIFT_STAGES),
                               topology_order(n))])


def _pipeline(reference, only=None):
    """``default_pipeline(engine="both")``, with the table passes
    swapped for their all-pairs references when ``reference``."""
    passes = default_pipeline(engine="both").passes
    if reference:
        passes = [REFERENCE_PASSES[p.name]()
                  if p.name in REFERENCE_PASSES else p for p in passes]
    return [p for p in passes if only is None or p.name in only]


def _run(ctx, passes):
    """Run ``passes`` on a fresh copy of ``ctx``; diagnostics, lint
    artifacts and per-pass seconds."""
    ctx = CheckContext.for_tables(ctx.tables, routing_name=ctx.routing_name,
                                  schedule=ctx.schedule)
    report = DiagnosticReport(max_diags_per_code=10**9)
    seconds = {}
    for p in passes:
        if p.applicable(ctx):
            t0 = time.perf_counter()
            p.run(ctx, report)
            seconds[p.name] = time.perf_counter() - t0
    return report, ctx.artifacts, seconds


LINT_ARTIFACTS = ("hops", "cdg_dependencies", "down_port_counts",
                  "theorem2_violations", "up_balance_worst",
                  "non_minimal_entries", "unreachable_entries")


def _digest(report, artifacts):
    """One hash over every diagnostic and every lint artifact."""
    h = hashlib.sha256()
    for d in report.diagnostics:
        h.update(pickle.dumps((d.code, d.message, str(d.severity), d.loc,
                               d.data)))
    for key in LINT_ARTIFACTS:
        value = artifacts.get(key)
        h.update(key.encode())
        h.update(pickle.dumps(value))
    return h.hexdigest()


def _own_peak_rss_mb():
    """This process's own peak resident set (``VmHWM``).

    ``getrusage(RUSAGE_SELF).ru_maxrss`` is no use here: on Linux it
    keeps the parent's high-water mark across fork and exec, so a child
    of a large test session reports the session's peak.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _child(topo, mode):
    """One certification in this (fresh) process; prints JSON."""
    ctx = _context(topo)
    report, artifacts, seconds = _run(ctx, _pipeline(mode == "reference"))
    print(json.dumps({
        "wall_s": sum(seconds.values()),
        "passes_s": seconds,
        "peak_rss_mb": _own_peak_rss_mb(),
        "digest": _digest(report, artifacts),
        "certificates": len(artifacts.get("certificates", [])),
    }))


def _fresh(topo, mode):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, __file__, topo, mode],
                         capture_output=True, text=True, env=env,
                         timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_lint_equals_reference_n324(benchmark):
    ctx = _context("n324")
    lint = set(REFERENCE_PASSES)
    new = benchmark.pedantic(_run, args=(ctx, _pipeline(False, lint)),
                             rounds=3, iterations=1)
    ref = _run(ctx, _pipeline(True, lint))
    assert _digest(*new[:2]) == _digest(*ref[:2])
    assert not new[0].diagnostics


def test_five_pass_speedup_n324(benchmark):
    ctx = _context("n324")
    new_passes = _pipeline(False, ALL_PAIRS)
    ref_passes = _pipeline(True, ALL_PAIRS)
    benchmark.pedantic(_run, args=(ctx, new_passes), rounds=3, iterations=1)
    times = {False: [], True: []}
    per_pass = {False: {}, True: {}}
    for i in range(TIMING_PAIRS):
        for reference in ((False, True) if i % 2 == 0 else (True, False)):
            _, _, seconds = _run(ctx, ref_passes if reference
                                 else new_passes)
            times[reference].append(sum(seconds.values()))
            for name, s in seconds.items():
                per_pass[reference].setdefault(name, []).append(s)
    speedup = statistics.median(r / n for n, r in zip(times[False],
                                                      times[True]))
    for reference, label in ((False, "table"), (True, "reference")):
        for name, samples in per_pass[reference].items():
            benchmark.extra_info[f"{label}_{name}_ms"] = round(
                statistics.median(samples) * 1e3, 3)
    benchmark.extra_info["five_pass_speedup"] = round(speedup, 2)
    assert speedup >= MIN_PASS_SPEEDUP, (
        f"five all-pairs passes only {speedup:.1f}x faster than the "
        f"reference (want >= {MIN_PASS_SPEEDUP}x)")


def test_certification_n1944_fresh_process(benchmark):
    first = benchmark.pedantic(_fresh, args=("n1944", "table"),
                               rounds=1, iterations=1)
    runs = {"table": [first], "reference": [_fresh("n1944", "reference")]}
    for i in range(1, CERT_PAIRS):
        order = ("table", "reference") if i % 2 == 0 \
            else ("reference", "table")
        for mode in order:
            runs[mode].append(_fresh("n1944", mode))
    table, ref = runs["table"], runs["reference"]
    # same outputs, from two separate processes
    assert {r["digest"] for r in table} == {r["digest"] for r in ref}
    assert len({r["digest"] for r in table}) == 1
    assert all(r["certificates"] == 2 for r in table + ref)
    speedup = statistics.median(r["wall_s"] / t["wall_s"]
                                for t, r in zip(table, ref))
    rss = max(r["peak_rss_mb"] for r in table)
    benchmark.extra_info["table_wall_s"] = round(
        statistics.median(r["wall_s"] for r in table), 3)
    benchmark.extra_info["reference_wall_s"] = round(
        statistics.median(r["wall_s"] for r in ref), 3)
    benchmark.extra_info["table_peak_rss_mb"] = round(rss, 1)
    benchmark.extra_info["reference_peak_rss_mb"] = round(
        max(r["peak_rss_mb"] for r in ref), 1)
    for name in ALL_PAIRS + ("up-balance",):
        for label, side in (("table", table), ("reference", ref)):
            benchmark.extra_info[f"{label}_{name}_ms"] = round(
                statistics.median(r["passes_s"][name] for r in side) * 1e3,
                2)
    benchmark.extra_info["certification_speedup"] = round(speedup, 2)
    assert rss <= MAX_CERT_RSS_MB, f"n1944 certification peaked at {rss} MB"
    assert speedup >= MIN_CERT_SPEEDUP, (
        f"n1944 certification only {speedup:.1f}x faster than the "
        f"reference (want >= {MIN_CERT_SPEEDUP}x)")


if __name__ == "__main__":
    _child(sys.argv[1], sys.argv[2])
