"""``repro-fabric``: operate on topology files from the command line.

Sub-commands (all read the text format of :mod:`repro.fabric.topofile`):

* ``generate <spec> <out.topo>`` -- write a fabric for a PGFT tuple,
  e.g. ``repro-fabric generate "2; 18,18; 1,9; 1,2" cluster.topo``;
* ``describe <file>`` -- node/port/link summary + declared spec;
* ``discover <file>`` -- infer and verify the PGFT structure of the
  wiring (exits non-zero with the first violation on miswired fabrics);
* ``validate <file>`` -- route with D-Mod-K (PGFT fabrics) or min-hop
  and run the full validator battery: reachability, up*/down* shape,
  theorem-2 down-port uniqueness, channel-dependency deadlock freedom;
* ``hsd <file> --cps shift --order random`` -- hot-spot-degree report
  for a collective under a placement.

This is the library's equivalent of the ibutils workflow the paper
builds on ("parsing a file holding the topology and then manipulating
the resulting in-memory data-structures").
"""

from __future__ import annotations

import argparse
import sys

from ..analysis import sequence_hsd
from ..collectives import by_name, hierarchical_recursive_doubling
from ..ordering import random_order, topology_order
from ..routing import route_dmodk, route_minhop
from ..topology import DiscoveryError, discover_pgft, pgft
from .model import build_fabric
from .topofile import load, save

__all__ = ["main"]


def _parse_spec(text: str):
    parts = [seg.strip() for seg in text.split(";")]
    if len(parts) != 4:
        raise SystemExit("spec must be 'h; m1,..; w1,..; p1,..'")
    vec = lambda s: [int(x) for x in s.split(",")]  # noqa: E731
    return pgft(int(parts[0]), vec(parts[1]), vec(parts[2]), vec(parts[3]))


def _routed(fab):
    if fab.spec is not None:
        return route_dmodk(fab), "dmodk"
    return route_minhop(fab), "minhop-roundrobin"


def cmd_generate(args) -> int:
    spec = _parse_spec(args.spec)
    save(build_fabric(spec), args.out)
    print(f"wrote {spec} ({spec.num_endports} end-ports) to {args.out}")
    return 0


def cmd_describe(args) -> int:
    fab = load(args.file)
    print(f"file      : {args.file}")
    print(f"end-ports : {fab.num_endports}")
    print(f"switches  : {fab.num_switches}")
    print(f"cables    : {fab.num_ports // 2}")
    print(f"declared  : {fab.spec if fab.spec else '(no pgft line)'}")
    if fab.spec is not None:
        print(fab.spec.describe())
    return 0


def cmd_discover(args) -> int:
    fab = load(args.file)
    try:
        spec = discover_pgft(fab)
    except DiscoveryError as exc:
        print(f"NOT a valid PGFT: {exc}")
        return 1
    print(f"valid PGFT wiring: {spec}")
    if fab.spec is not None and fab.spec != spec:
        print(f"WARNING: declared spec {fab.spec} differs from wiring")
        return 1
    return 0


def cmd_validate(args) -> int:
    from ..check import CheckContext, run_check

    fab = load(args.file)
    tables, engine = _routed(fab)
    print(f"routing engine      : {engine}")
    only = {"wiring", "spec-conformance", "reachability", "up-down", "cdg",
            "dmodk-conformance", "down-balance"}
    if args.audit:
        only |= {"up-balance", "minimality"}
    result = run_check(
        CheckContext.for_tables(tables, routing_name=engine.split("-")[0]),
        only=only, updown_sample=args.sample, certify=False,
    )

    def status(*codes):
        n = sum(result.report.counts.get(c, 0) for c in codes)
        return "OK" if n == 0 else f"VIOLATED ({n} finding(s))"

    wiring = status("FAB001", "FAB002", "FAB003", "FAB004", "FAB005",
                    "FAB006")
    print(f"wiring              : {wiring}")
    print(f"reachability        : {status('RTE001', 'RTE002')}")
    print(f"up*/down* shape     : {status('RTE010')}")
    print(f"deadlock freedom    : {status('RTE020')}")
    if fab.spec is not None:
        print(f"theorem-2 down-ports: {status('RTE040')}")
        if "dmodk-conformance" in result.passes_run:
            print(f"eq. (1) conformance : {status('RTE030')}")
    if len(result.report):
        print(result.report.render_text())
    if args.audit:
        from ..analysis.audit import audit_tables

        print(audit_tables(tables, check_theorem2=False).render())
    return result.exit_code()


def cmd_route(args) -> int:
    from .lftfile import save_lft

    fab = load(args.file)
    tables, engine = _routed(fab)
    save_lft(tables, args.out)
    print(f"routed {fab.num_endports} end-ports with {engine}; "
          f"tables written to {args.out}")
    return 0


def cmd_hsd(args) -> int:
    fab = load(args.file)
    tables, engine = _routed(fab)
    n = fab.num_endports
    if args.cps == "recdbl-hier":
        if fab.spec is None:
            raise SystemExit("recdbl-hier needs a PGFT spec in the file")
        cps = hierarchical_recursive_doubling(fab.spec)
    else:
        cps = by_name(args.cps, n)
    order = (topology_order(n) if args.order == "topology"
             else random_order(n, seed=args.seed))
    rep = sequence_hsd(tables, cps, order)
    print(f"fabric   : {args.file} ({n} end-ports, routed {engine})")
    print(f"pattern  : {cps.name} over {len(cps.stages)} stages,"
          f" {args.order} order")
    print(f"worst HSD: {rep.worst}")
    print(f"avg max  : {rep.avg_max:.3f}")
    print("verdict  : " + ("congestion-free" if rep.congestion_free
                           else "BLOCKING"))
    return 0 if rep.congestion_free or args.order != "topology" else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-fabric",
        description="operate on fat-tree topology files",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a PGFT fabric file")
    p.add_argument("spec", help="'h; m1,..; w1,..; p1,..'")
    p.add_argument("out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("describe", help="summarise a fabric file")
    p.add_argument("file")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("discover", help="infer/verify PGFT structure")
    p.add_argument("file")
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("validate", help="route + validator battery")
    p.add_argument("file")
    p.add_argument("--sample", type=int, default=500,
                   help="up/down check sample size")
    p.add_argument("--audit", action="store_true",
                   help="also run the table lint (balance, minimality)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("route", help="compute and save forwarding tables")
    p.add_argument("file")
    p.add_argument("out", help="output .lft file")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("hsd", help="hot-spot-degree report")
    p.add_argument("file")
    p.add_argument("--cps", default="shift",
                   help="CPS name or 'recdbl-hier'")
    p.add_argument("--order", choices=("topology", "random"),
                   default="topology")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_hsd)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
