"""Shared plumbing for the experiment drivers.

Every experiment module exposes ``run(**params) -> str`` returning the
text report (the same rows/series the paper's table or figure shows)
and a ``main(argv)`` for command-line use via
``python -m repro.experiments.<name>`` or the ``repro-experiments``
console script.
"""

from __future__ import annotations

import argparse

import numpy as np

from ..collectives import (
    binomial,
    dissemination,
    recursive_doubling,
    ring,
    shift,
    tournament,
)
from ..collectives.cps import CPS, Stage
from ..runtime import ParallelSweeper, ResultCache, resolve_jobs
from ..topology import paper_topologies
from ..topology.spec import PGFTSpec

__all__ = [
    "get_topology",
    "figure3_cps_factories",
    "sampled_shift",
    "concurrent_cps",
    "make_parser",
    "add_runtime_args",
    "make_sweeper",
    "precheck",
    "runtime_summary",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 20110516  # the paper's conference month


def get_topology(name: str) -> PGFTSpec:
    """Resolve an evaluation topology by name (see ``paper_topologies``)."""
    topos = paper_topologies()
    if name not in topos:
        raise SystemExit(
            f"unknown topology {name!r}; available: {', '.join(sorted(topos))}"
        )
    return topos[name]


def sampled_shift(n: int, max_stages: int = 64):
    """Shift CPS with at most ``max_stages`` evenly sampled displacements
    (the full sequence has ``n-1`` stages; sampling keeps large-fabric
    sweeps tractable without biasing the per-stage HSD statistics)."""
    if n - 1 <= max_stages:
        return shift(n)
    step = (n - 1) // max_stages
    return shift(n, displacements=range(1, n, step))


def concurrent_cps(jobs) -> tuple[CPS, np.ndarray]:
    """``(cps, rank_to_port)`` jobs, each CPS over ``len(rank_to_port)``
    ranks, run at once as one job: stage ``k`` holds stage ``k`` of
    every job, ranks renumbered job after job."""
    first = np.cumsum([0] + [len(p) for _, p in jobs])
    stages = [np.concatenate([c.stages[k].pairs + f for (c, _), f
                              in zip(jobs, first) if k < len(c)])
              for k in range(max(len(c) for c, _ in jobs))]
    return (CPS("concurrent", int(first[-1]), tuple(map(Stage, stages))),
            np.concatenate([p for _, p in jobs]))


def figure3_cps_factories(max_shift_stages: int = 64) -> dict:
    """The six collectives of Figure 3 ("Butterfly" is the paper's name
    for the recursive-doubling exchange)."""
    return {
        "binomial": lambda n: binomial(n),
        "butterfly": lambda n: recursive_doubling(n),
        "dissemination": lambda n: dissemination(n),
        "ring": lambda n: ring(n),
        "shift": lambda n: sampled_shift(n, max_shift_stages),
        "tournament": lambda n: tournament(n),
    }


def make_parser(description: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="base RNG seed (default: %(default)s)")
    return parser


def add_runtime_args(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """The sweep-engine flag surface shared by the sweep-heavy drivers."""
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for sweeps (0 = one per core; default: 1,"
             " which still uses the batched fast path inline)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the content-addressed sweep result cache")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or"
             " ~/.cache/repro/sweeps)")
    parser.add_argument(
        "--check", action="store_true",
        help="pre-flight every routed table set through the repro.check"
             " static analyzer before sweeping (abort on errors)")
    parser.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="per-round deadline for parallel sweep shards; work still"
             " outstanding is recorded as failed and the sweep returns a"
             " partial result instead of hanging (default: no timeout)")
    return parser


def precheck(tables, routing_name: str = "", label: str = "") -> None:
    """Gate a driver's input tables through the static analyzer.

    Runs the fast ``repro.check`` subset (wiring, reachability,
    up*/down*, CDG, D-Mod-K conformance, theorem 2) and aborts the
    experiment with the findings if any *error* is reported -- hours of
    sweep compute should not be spent on a miswired or misrouted fabric.
    Warnings are printed but do not abort.
    """
    from ..check import precheck_tables

    result = precheck_tables(tables, routing_name=routing_name)
    tag = f" [{label}]" if label else ""
    if len(result.report):
        print(f"repro.check{tag}:")
        print(result.report.render_text())
    if result.report.has_errors:
        raise SystemExit(
            f"repro.check{tag}: input tables failed the pre-flight check "
            f"({result.report.summary()['errors']} error(s)); aborting")


def make_sweeper(jobs: int | None = 1, use_cache: bool = False,
                 cache_dir=None,
                 shard_timeout: float | None = None) -> ParallelSweeper:
    """Build the sweep engine a driver was asked for."""
    cache = None
    if use_cache:
        cache = ResultCache(root=cache_dir) if cache_dir else ResultCache()
    return ParallelSweeper(jobs=jobs, cache=cache,
                           shard_timeout=shard_timeout)


def runtime_summary(sweeper: ParallelSweeper) -> str:
    """One-line run summary: worker count, cache counters, shard failures."""
    if sweeper.jobs in (None, 0):
        jobs = "auto"
    else:
        jobs = resolve_jobs(sweeper.jobs)  # e.g. clamp negatives to 1
    if sweeper.cache is None:
        line = f"runtime | jobs={jobs} cache=off"
    else:
        line = (f"runtime | jobs={jobs} cache=on {sweeper.cache.stats}"
                f" dir={sweeper.cache.root}")
    if sweeper.last_failures:
        detail = "; ".join(
            f"{f.index}: {f.reason} (attempt {f.attempts})"
            for f in sweeper.last_failures[:4])
        more = (f" and {len(sweeper.last_failures) - 4} more"
                if len(sweeper.last_failures) > 4 else "")
        line += (f"\nWARNING | {len(sweeper.last_failures)} shard(s) failed"
                 f" -- partial result: {detail}{more}")
    return line
