"""Degradation curve: routing quality vs. fault count, healed vs. naive.

PR 5's ``failures`` experiment showed minimal repair keeps the HSD
penalty local; this one asks the sharper question the fault-space
analyzer (``repro.check.faultspace``) certifies statically: *which*
repair should the subnet manager push?  For each failure count ``k``
it kills ``k`` random switch-to-switch cables, repairs the D-Mod-K
tables with the ``naive`` round-robin and the quality-aware
``balanced`` strategy, and compares three curves:

* **worst-link load** -- the maximum per-link destination multiplicity
  (static all-to-all accounting; healthy D-Mod-K is the floor);
* **worst HSD** -- highest stage link load of a sampled Shift sequence
  on the repaired tables (dynamic counterpart of the same quantity);
* **certified-contention-free fraction** -- how many degraded fabrics
  the symbolic delta engine still certifies for the job's schedule.

Run on the paper's n324 with a Cont.-X job (``--exclude 36``) so the
fabric has idle capacity worth protecting: the balanced repair keeps
the worst link strictly lighter than naive from the very first
failure counts -- exactly the gap Gliksberg et al. report for
Dmodk-style fault-local rebalancing.
"""

from __future__ import annotations

import numpy as np

from ..analysis import render_table, sequence_hsd
from ..check.faultspace import (
    certify_prepared,
    enumerate_fault_units,
    prepare_fault_cases,
)
from ..check.symbolic import SymbolicCertifier
from ..fabric import build_fabric
from ..ordering import topology_subset
from ..routing import route_dmodk
from ..routing.repair import REPAIR_STRATEGIES
from .common import DEFAULT_SEED, get_topology, make_parser, sampled_shift

__all__ = ["run", "main"]


def _combos(units, rng: np.random.Generator, k: int, samples: int):
    """``samples`` distinct k-subsets of fault units (all of them when
    the space is smaller than asked)."""
    out, seen = [], set()
    limit = samples * 20
    for _ in range(limit):
        idx = tuple(sorted(rng.choice(len(units), size=k, replace=False)
                           .tolist()))
        if idx in seen:
            continue
        seen.add(idx)
        out.append([units[i] for i in idx])
        if len(out) == samples:
            break
    return out


def run(topo: str = "n324", failures=(1, 2, 4, 8, 16), samples: int = 12,
        seed: int = DEFAULT_SEED, exclude: int = 36,
        max_shift_stages: int = 24) -> str:
    spec = get_topology(topo)
    fab = build_fabric(spec)
    n = spec.num_endports
    active = topology_subset(n, exclude, seed=seed) if exclude else None
    tables = route_dmodk(fab, active=active)
    ranks = n - exclude
    cps = sampled_shift(ranks, max_shift_stages)
    placement = np.sort(np.asarray(active, dtype=np.int64)) \
        if active is not None else np.arange(n, dtype=np.int64)

    # Two pools, two questions.  Switch-to-switch cables shift load
    # between survivors -- the quality battleground the load/HSD curves
    # sample.  The certified curve draws from *every* cable: a dead
    # idle-host cable costs the job nothing and is the only single
    # fault the dense shift still certifies (a dead switch-to-switch
    # cable leaves 17 up-links for 18 destination groups -- pigeonhole
    # refutes every repair), so at k=1 the space is enumerated in full.
    sw_units = enumerate_fault_units(fab, units="cable",
                                     include_host_cables=False)
    all_units = enumerate_fault_units(fab, units="cable",
                                      include_host_cables=True)
    rng = np.random.default_rng(seed)

    # One healthy symbolic certification, reused by every sweep below
    # (the first sweep caches its link-failure index on it).  A shift
    # that already contends on the healthy fabric gives the delta
    # engine no contention-free baseline: nothing is certified then.
    healthy_cert, healthy_state = SymbolicCertifier(spec, active).certify(
        cps, placement)
    refuted = healthy_cert.refuted

    healthy = sequence_hsd(tables, cps, placement)
    rows = [(0, "-", "-", healthy.worst, "-", healthy.worst, "-", "-")]
    dominated = []
    for k in failures:
        load_combos = _combos(sw_units, rng, k, samples)
        cert_combos = [[u] for u in all_units] if k == 1 else \
            _combos(all_units, rng, k, samples)
        per = {}
        for strategy in REPAIR_STRATEGIES:
            prepared = prepare_fault_cases(tables, load_combos,
                                           strategy=strategy,
                                           active=active,
                                           check_valleys=False)
            mults = [p.worst_multiplicity for p in prepared]
            hsds = [sequence_hsd(p.repair.tables, cps, placement).worst
                    for p in prepared
                    if not (set(p.repair.unreachable)
                            & set(placement.tolist()))]
            certified = 0.0
            if not refuted:
                cert_prepared = prepare_fault_cases(tables, cert_combos,
                                                    strategy=strategy,
                                                    active=active,
                                                    check_valleys=False)
                certified = certify_prepared(
                    tables, cert_prepared, cps, placement, active=active,
                    engine="incremental",
                    healthy_state=healthy_state).certified_fraction
            per[strategy] = {
                "mean_mult": float(np.mean(mults)),
                "max_mult": int(np.max(mults)),
                "worst_hsd": int(np.max(hsds)) if hsds else 0,
                "certified": certified,
            }
        nav, bal = per["naive"], per["balanced"]
        if bal["max_mult"] < nav["max_mult"]:
            dominated.append(k)
        rows.append((
            k,
            f"{nav['mean_mult']:.1f}/{nav['max_mult']}",
            f"{bal['mean_mult']:.1f}/{bal['max_mult']}",
            nav["worst_hsd"], bal["worst_hsd"],
            f"{nav['certified']:.2f}", f"{bal['certified']:.2f}",
            "balanced" if bal["max_mult"] < nav["max_mult"] else "tie",
        ))
    job = f"Cont.-{ranks} job ({exclude} idle end-ports)" if exclude \
        else "full population"
    note = (f"balanced strictly dominates naive on worst-link load at "
            f"k in {{{', '.join(str(k) for k in dominated)}}}"
            if dominated else
            "no strict dominance at the sampled failure counts")
    if refuted:
        note += ("; the shift already contends on the healthy fabric, "
                 "so no degraded fabric is certified")
    return render_table(
        ["failed cables", "naive load mean/max", "balanced load mean/max",
         "naive worst HSD", "balanced worst HSD", "naive certified",
         "balanced certified", "winner"],
        rows,
        title=(f"Degradation curve on {spec}, {job}, {samples} samples "
               f"per count, {len(cps.stages)}-stage shift\n"
               f"(load = per-link destination multiplicity; certified = "
               f"fraction of degraded fabrics the symbolic delta engine "
               f"still proves contention-free)\n{note}"),
    )


def main(argv=None) -> None:
    parser = make_parser(__doc__)
    parser.add_argument("--topo", default="n324")
    parser.add_argument("--failures", type=int, nargs="+",
                        default=[1, 2, 4, 8, 16])
    parser.add_argument("--samples", type=int, default=12,
                        help="random fault combos per failure count")
    parser.add_argument("--exclude", type=int, default=36,
                        help="idle end-ports (Cont.-X job awareness)")
    parser.add_argument("--max-shift-stages", type=int, default=24)
    args = parser.parse_args(argv)
    print(run(topo=args.topo, failures=tuple(args.failures),
              samples=args.samples, seed=args.seed, exclude=args.exclude,
              max_shift_stages=args.max_shift_stages))


if __name__ == "__main__":
    main()
