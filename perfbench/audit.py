"""``audit`` workload: an operator certifies a fabric, then its
single-fault space.

One client, closed loop, in-process.  Phase one certifies a seeded list
of n324 cases -- the eight Table-2 CPS under the topology order (the
certificate path) and under a random order (the counterexample path) --
each through ``build_fabric`` -> ``route_dmodk`` -> every pass of
``default_pipeline(engine="both")``.  Phase two sweeps all 675 single
faults (648 cables, 27 switches) of a Cont.-288 job on n324 with
balanced repair and the incremental engine.  The lint passes, the two
certifiers and ``routing.repair`` do nearly all the work; ``sim`` and
``serve`` do none.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from statistics import median
from typing import Any

import numpy as np

import repro.check.faultspace as faultspace
from repro.check import CheckContext, DiagnosticReport, ScheduleCase
from repro.check import default_pipeline
from repro.collectives import CPS_NAMES, by_name
from repro.collectives.cps import CPS
from repro.experiments.common import sampled_shift
from repro.fabric import build_fabric
from repro.ordering import random_order, topology_order, topology_subset
from repro.routing import route_dmodk
from repro.topology import paper_topologies
from repro.topology.spec import PGFTSpec

from harness import (
    NULL_TRACER,
    Outcome,
    Speedometer,
    Tracer,
    cold_setup_seconds,
    instrumented,
    latency_summary,
    load_expected,
    peak_rss_mb,
)

TOPO = "n324"
MAX_SHIFT_STAGES = 64          # the check CLI's and the service's sampling
#: random orders whose certification outcomes are recorded; the run
#: seed picks one of them
ORDER_POOL = 8
EXCLUDE = 36                   # Cont.-288 job
FAULT_SHIFT_STAGES = 128
FAULT_VERDICTS = {"contention-free": 36, "disconnected": 306, "refuted": 333}
#: rounds per run, per 20 s of --seconds (at least 1); a round certifies
#: every case, sweeps the fault space, then certifies the eight
#: topology-order cases again -- 24 certifications, enough for a tail
#: percentile, in a mix of case costs that the seed never changes
ROUNDS_PER_20S = 1
#: faults per timed repair step of an untraced sweep (675 = 9 steps)
PREPARE_CHUNK = 75
#: traced runs time a fixed probe: this many cases and one sweep
TRACE_CASES = 4

PHASES = ("audit.certify", "audit.faultspace")
#: span name -> per-layer metric (mean self time per call)
LAYER_SPANS = {name: f"{name}_s" for name in (
    ["fabric.build", "routing.dmodk"]
    + [f"check.pass.{name}" for name in (
        "wiring", "spec-conformance", "reachability", "up-down", "cdg",
        "dmodk-conformance", "down-balance", "up-balance", "minimality",
        "placement", "stage", "certify", "symbolic-certify",
        "differential")]
    + ["check.faultspace.units", "check.faultspace.prepare",
       "routing.repair", "check.faultspace.certify"])}


def order_seed(seed: int) -> int:
    return 1 + seed % ORDER_POOL


def case_key(cps_name: str, order: str, seed: int) -> str:
    return f"{cps_name}/{order}" if order == "topology" else \
        f"{cps_name}/random{order_seed(seed)}"


def maxima_digest(maxima: list[int]) -> str:
    return hashlib.sha256(json.dumps([int(m) for m in maxima]).encode()
                          ).hexdigest()[:16]


def make_cps(name: str, n: int) -> CPS:
    return sampled_shift(n, MAX_SHIFT_STAGES) if name == "shift" \
        else by_name(name, n)


@dataclass
class Case:
    key: str
    cps: CPS
    placement: np.ndarray


@dataclass
class Inputs:
    spec: PGFTSpec
    cases: list[Case]
    fault_tables: Any
    fault_cps: CPS
    fault_placement: np.ndarray
    active: np.ndarray


def setup(seed: int) -> Inputs:
    """Everything the timed phases consume: the 16 case inputs in a
    seeded order and the Cont.-288 job's routed fabric."""
    spec = paper_topologies()[TOPO]
    n = spec.num_endports
    cases = []
    for name in sorted(CPS_NAMES):
        cps = make_cps(name, n)
        cases.append(Case(case_key(name, "topology", seed), cps,
                          topology_order(n)))
        cases.append(Case(case_key(name, "random", seed), cps,
                          random_order(n, seed=order_seed(seed))))
    order = np.random.default_rng(seed).permutation(len(cases))
    fabric = build_fabric(spec)
    active = topology_subset(n, EXCLUDE, seed=0)
    return Inputs(
        spec=spec, cases=[cases[i] for i in order],
        fault_tables=route_dmodk(fabric, active=active),
        fault_cps=sampled_shift(len(active), FAULT_SHIFT_STAGES),
        fault_placement=np.sort(np.asarray(active, dtype=np.int64)),
        active=active)


def certify_case(spec: PGFTSpec, case: Case,
                 tracer: Tracer) -> dict[str, Any]:
    """One full certification; returns its verdict and stage maxima."""
    with tracer.span("fabric.build"):
        fabric = build_fabric(spec)
    with tracer.span("routing.dmodk"):
        tables = route_dmodk(fabric)
    ctx = CheckContext.for_tables(
        tables, routing_name="dmodk",
        schedule=[ScheduleCase(case.cps, case.placement)])
    report = DiagnosticReport(max_diags_per_code=25)
    for p in default_pipeline(engine="both").passes:
        if p.applicable(ctx):
            with tracer.span(f"check.pass.{p.name}"):
                p.run(ctx, report)
    codes = {d.code for d in report.diagnostics}
    if "SYM090" in codes:
        verdict = "engine-disagreement"
    elif codes & {"CFC001", "SYM001"}:
        verdict = "refuted"
    elif len(ctx.artifacts.get("certificates", [])) == 2:
        verdict = "contention-free"
    else:
        verdict = "no-verdict"
    name = case.cps.name
    return {"verdict": verdict,
            "enumerated": ctx.artifacts["certifier_stage_max"][name],
            "symbolic": ctx.artifacts["symbolic_stage_max"][name]}


def check_case(out: Outcome, case: Case, got: dict[str, Any],
               expected: dict[str, Any]) -> None:
    want = expected["cases"][case.key]
    ok = (got["verdict"] == want["verdict"]
          and got["enumerated"] == got["symbolic"]
          and maxima_digest(got["symbolic"]) == want["maxima_sha"])
    out.check(ok, f"case {case.key}: {got['verdict']} "
                  f"{maxima_digest(got['symbolic'])} != {want}")


def sweep_fault_space(inp: Inputs, tracer: Tracer,
                      speed: Speedometer | None = None):
    """All single faults: enumerate, repair + score, certify.  Returns
    the result and, with ``speed``, the sweep's seconds at the reference
    speed, timed step by step (the repair in chunks of
    ``PREPARE_CHUNK`` faults, so that each step is short next to the
    host's drift)."""
    tables = inp.fault_tables
    steps = []

    def step(fn, *args, **kwargs):
        if speed is None:
            return fn(*args, **kwargs)
        result, seconds = speed.time(fn, *args, **kwargs)
        steps.append(seconds)
        return result

    with tracer.span("check.faultspace.units"):
        combos = step(lambda: faultspace.sample_fault_combos(
            faultspace.enumerate_fault_units(tables.fabric, units="both"),
            max_faults=1, samples=0, seed=0))
    with tracer.span("check.faultspace.prepare"):
        prepared = []
        for i in range(0, len(combos), PREPARE_CHUNK):
            prepared += step(faultspace.prepare_fault_cases,
                             tables, combos[i:i + PREPARE_CHUNK],
                             strategy="balanced", active=inp.active,
                             check_valleys=False)
    with tracer.span("check.faultspace.certify"):
        result = step(faultspace.certify_prepared,
                      tables, prepared, inp.fault_cps, inp.fault_placement,
                      active=inp.active, engine="incremental")
    return result, sum(steps)


def check_sweep(out: Outcome, result) -> None:
    counts = result.verdict_counts()
    out.check(len(result.records) == 675 and counts == FAULT_VERDICTS,
              f"fault space: {len(result.records)} records {counts}")


def _certify_phase(inp: Inputs, cases: list[Case], out: Outcome,
                   expected: dict[str, Any], tracer: Tracer,
                   speed: Speedometer | None = None) -> list[float]:
    """Certify ``cases``; with ``speed``, returns their times at the
    reference speed."""
    times = []
    with tracer.span("audit.certify"):
        for case in cases:
            if speed is None:
                got = certify_case(inp.spec, case, tracer)
            else:
                got, seconds = speed.time(certify_case, inp.spec, case,
                                          tracer)
                times.append(seconds)
            check_case(out, case, got, expected)
    return times


def _fault_phase(inp: Inputs, out: Outcome, tracer: Tracer,
                 speed: Speedometer | None = None):
    with tracer.span("audit.faultspace"):
        with instrumented(tracer, [(faultspace, "repair_tables",
                                    "routing.repair")]):
            result, seconds = sweep_fault_space(inp, tracer, speed)
    check_sweep(out, result)
    return seconds, result


def run(seed: int, seconds: int, tracer: Tracer) -> Outcome:
    out = Outcome()
    expected = load_expected()["audit"]
    inp = setup(seed)
    # warm-up: lazy imports and first-touch allocations stay untimed
    certify_case(inp.spec, inp.cases[0], NULL_TRACER)

    if tracer.enabled:
        probe = inp.cases[:TRACE_CASES]
        t0 = time.perf_counter()
        _certify_phase(inp, probe, out, expected, NULL_TRACER)
        _, result = _fault_phase(inp, out, NULL_TRACER)
        untraced = time.perf_counter() - t0
        t0 = time.perf_counter()
        _certify_phase(inp, probe, out, expected, tracer)
        _, result = _fault_phase(inp, out, tracer)
        traced = time.perf_counter() - t0
        out.metric("trace.overhead_s", traced - untraced)
        out.metric("check.faultspace.flows_recomputed",
                   result.flows_recomputed)
        out.metric("check.faultspace.stages_touched",
                   result.stages_touched)
        return out

    speed = Speedometer()
    setup_s = cold_setup_seconds("audit", seed, speed)
    again = [c for c in inp.cases if c.key.endswith("/topology")]
    times, sweeps = [], []
    for _ in range(max(1, round(ROUNDS_PER_20S * seconds / 20))):
        times += _certify_phase(inp, inp.cases, out, expected, NULL_TRACER,
                                speed)
        sweeps.append(_fault_phase(inp, out, NULL_TRACER, speed)[0])
        times += _certify_phase(inp, again, out, expected, NULL_TRACER,
                                speed)
    lat = latency_summary(times)
    print(f"audit: {lat['n']} certifications p50 {lat['p50']:.4f}s "
          f"p{lat['tail_p']:.1f} {lat['tail']:.4f}s; "
          f"{len(sweeps)} fault-space sweeps median {median(sweeps):.3f}s "
          f"(times at the reference speed; host speed "
          f"{speed.factor():.2f}x the reference)")
    out.metric("setup_s", setup_s)
    out.metric("peak_rss_mb", peak_rss_mb())
    out.metric("latency_p50_ms", lat["p50"] * 1e3)
    out.metric("latency_tail_ms", lat["tail"] * 1e3)
    out.metric("throughput_per_s", 675 * len(sweeps) / sum(sweeps))
    return out
