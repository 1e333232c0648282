"""Table 3: the headline result -- congestion-free routing + ordering.

For 2- and 3-level fabrics, fully populated and with X random nodes
excluded ("Cont.-X"), the proposed configuration (D-Mod-K routing +
topology-aware MPI node order + the collective's permutation sequence)
is analysed against random node ranking:

* **proposed avg/max HSD** -- must be 1.000/1 (congestion-free);
* **random ranking avg HSD** -- the paper's comparison column (average
  over stages of the per-stage max HSD, averaged over several random
  orders); improvement factors up to ~5.2 are reported in the paper.

Partial populations follow the paper's semantics: the permutation
sequence is defined over physical end-port slots and the excluded
nodes' messages are skipped (so stage count reflects the tree size, not
the job size -- section VI).
"""

from __future__ import annotations

import numpy as np

from ..analysis import render_table, sequence_hsd
from ..collectives import hierarchical_recursive_doubling
from ..fabric import build_fabric
from ..ordering import physical_placement
from ..routing import route_dmodk
from .common import (
    add_runtime_args,
    get_topology,
    make_parser,
    make_sweeper,
    precheck,
    runtime_summary,
    sampled_shift,
)

__all__ = ["run", "main"]

DEFAULT_CASES = (
    ("n16-pgft", 0), ("n16-pgft", 3),
    ("n128", 0), ("n128", 16),
    ("n324", 0), ("n324", 32),
    ("rlft2-max36", 0), ("rlft2-max36", 100),
    ("n1728", 0), ("n1728", 128),
    ("n1944", 0), ("n1944", 100),
)


def run(
    cases=DEFAULT_CASES,
    num_random_orders: int = 5,
    max_shift_stages: int = 48,
    seed: int = 0,
    jobs: int | None = 1,
    use_cache: bool = False,
    cache_dir=None,
    check: bool = False,
    shard_timeout: float | None = None,
) -> str:
    sweeper = make_sweeper(jobs=jobs, use_cache=use_cache, cache_dir=cache_dir,
                           shard_timeout=shard_timeout)
    rows = []
    rng = np.random.default_rng(seed)
    checked: set[str] = set()
    for topo_name, excluded in cases:
        spec = get_topology(topo_name)
        n_full = spec.num_endports
        tables = route_dmodk(build_fabric(spec))
        if check and topo_name not in checked:
            checked.add(topo_name)
            precheck(tables, routing_name="dmodk", label=topo_name)
        if excluded:
            active = np.sort(rng.permutation(n_full)[: n_full - excluded])
        else:
            active = np.arange(n_full)
        slots = physical_placement(active, n_full)
        n_job = len(active)

        for cps_name, cps in (
            ("shift", sampled_shift(n_full, max_shift_stages)),
            ("recdbl-hier", hierarchical_recursive_doubling(spec)),
        ):
            proposed = sequence_hsd(tables, cps, slots)
            rand = sweeper.order_sweep(
                tables, cps, num_orders=num_random_orders,
                num_ranks=n_job, seed=seed + 1000,
            )
            rand_avg = rand.mean
            label = "full" if not excluded else f"Cont.-{excluded}"
            rows.append((
                topo_name, label, n_job, cps_name,
                round(proposed.avg_max, 3), proposed.worst,
                round(rand_avg, 3),
                round(rand_avg / max(proposed.avg_max, 1e-12), 2),
            ))
    table = render_table(
        ["topology", "population", "job size", "CPS",
         "proposed avg HSD", "worst", "random avg HSD", "improvement"],
        rows,
        title=("Table 3 | proposed routing + node order vs random ranking\n"
               "(paper: proposed HSD = 1 everywhere; improvements up to"
               " 5.2x)"),
    )
    return table + "\n\n" + runtime_summary(sweeper)


def main(argv=None) -> None:
    parser = add_runtime_args(make_parser(__doc__))
    parser.add_argument("--orders", type=int, default=5)
    parser.add_argument("--max-shift-stages", type=int, default=48)
    args = parser.parse_args(argv)
    print(run(num_random_orders=args.orders,
              max_shift_stages=args.max_shift_stages, seed=args.seed,
              jobs=args.jobs, use_cache=not args.no_cache,
              cache_dir=args.cache_dir, check=args.check,
              shard_timeout=args.shard_timeout))


if __name__ == "__main__":
    main()
