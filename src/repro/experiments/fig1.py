"""Figure 1: node order causes or prevents blocking (16-node PGFT).

The pattern is ``destination = (source + 4) mod 16`` on the 2-level
16-node fabric of Fig. 4(b).  With the routing-aware node order every
link carries one flow; a random order puts pairs of flows on several
up links ("3 hot-spots" in the paper's example).  The report prints the
per-up-link flow counts for both orders.
"""

from __future__ import annotations

from ..analysis import fixed_shift_pattern, render_table, stage_link_loads
from ..fabric import build_fabric
from ..ordering import random_order
from ..routing import route_dmodk
from .common import get_topology, make_parser

__all__ = ["run", "main"]


def _uplink_loads(tables, src, dst):
    fab = tables.fabric
    loads = stage_link_loads(tables, src, dst)
    up = fab.port_goes_up() & (fab.port_owner >= fab.num_endports)
    return loads[up]


def run(displacement: int = 4, seed: int = 1, num_random_orders: int = 5) -> str:
    spec = get_topology("n16-pgft")
    tables = route_dmodk(build_fabric(spec))
    n = spec.num_endports

    rows = []
    src, dst = fixed_shift_pattern(n, displacement)
    loads = _uplink_loads(tables, src, dst)
    rows.append(("routing-aware", int(loads.max()),
                 int((loads >= 2).sum()), "congestion-free"))

    worst_hot = 0
    for t in range(num_random_orders):
        order = random_order(n, seed=seed + t)
        src, dst = fixed_shift_pattern(n, displacement, placement=order)
        loads = _uplink_loads(tables, src, dst)
        hot = int((loads >= 2).sum())
        worst_hot = max(worst_hot, hot)
        rows.append((f"random #{t}", int(loads.max()), hot,
                     "blocking" if hot else "lucky"))

    table = render_table(
        ["MPI node order", "max flows/up-link", "hot up-links", "verdict"],
        rows,
        title=(f"Figure 1 | dst = (src + {displacement}) mod {n} on {spec}\n"
               f"(paper: random order shows 3 hot links; ordered is clean)"),
    )
    return table


def main(argv=None) -> None:
    parser = make_parser(__doc__)
    parser.add_argument("--displacement", type=int, default=4)
    parser.add_argument("--orders", type=int, default=5)
    args = parser.parse_args(argv)
    print(run(displacement=args.displacement, seed=args.seed,
              num_random_orders=args.orders))


if __name__ == "__main__":
    main()
