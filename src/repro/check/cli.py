"""``python -m repro.check``: the static analyzer's command line.

Input is a topology -- by paper name (``--topo n324``), PGFT tuple
(``--spec "2; 18,18; 1,9; 1,2"``) or topology file (``--topofile``) --
optionally routed (``--routing``) and scheduled (``--cps``/``--order``).
Output is the diagnostic report (text, or ``--json`` for machines) plus
any contention-freedom certificates; the exit code reflects the worst
severity found (0 clean, 1 warnings, 2 errors).

Certification runs one of three engines (``--engine``): ``enumerate``
walks every stage through materialised tables, ``symbolic`` proves the
verdict from the D-Mod-K closed form without building tables at all
(the only option that scales to tens of thousands of end-ports), and
``both`` runs the two and raises ``SYM090`` if they ever disagree.

Examples::

    # certify the paper's headline configuration (exit 0, certificate)
    python -m repro.check --topo n324 --routing dmodk --cps shift

    # the same verdict from pure closed-form algebra, table-free
    python -m repro.check --topo rlft3-max36 --engine symbolic --cps shift

    # differential validation: both engines must agree bit for bit
    python -m repro.check --topo n324 --engine both --cps shift --order random

    # job-aware Cont.-X: exclude 10 random end-ports, dense-rank routing
    python -m repro.check --topo n324 --engine both --cps ring --exclude 10

    # multi-tenant isolation: tag 2 staggered storage ports per leaf,
    # certify each class's own collective + the cross-class bound
    python -m repro.check --topo n324 --types staggered:storage=2 \\
        --routing typeaware --engine symbolic --isolation

    # the same fabric type-blind: a real per-class counterexample (ISO001)
    python -m repro.check --topo n324 --types staggered:storage=2 \\
        --routing dmodk --engine symbolic --isolation

    # sweep every single cable/switch fault, certify each repaired fabric
    python -m repro.check --topo n324 --cps shift --exclude 36 --fault-space

    # the same findings as GitHub code-scanning input
    python -m repro.check --topo n324 --cps shift --format sarif

    # refute random routing with a named stage+link counterexample
    python -m repro.check --topo n324 --routing random --cps shift

    # lint a topology file, no routing
    python -m repro.check --topofile cluster.topo --routing none

    # the catalogue of diagnostic codes
    python -m repro.check --list-codes
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ..collectives import by_name, hierarchical_recursive_doubling, shift
from ..collectives.cps import CPS
from ..fabric import build_fabric, parse_types
from ..fabric.lft import ForwardingTables
from ..fabric.model import Fabric
from ..fabric.topofile import load as load_topofile
from ..ordering import random_order, topology_order, topology_subset
from ..ordering.adversarial import adversarial_ring_order
from ..routing import (
    route_dmodk,
    route_ftree,
    route_minhop,
    route_random,
    route_typeaware,
)
from ..routing.repair import REPAIR_STRATEGIES
from ..topology import paper_topologies, pgft
from ..topology.spec import PGFTSpec
from . import CODES, ENGINES, PASS_ORDER, CheckContext, ScheduleCase, run_check
from .faultspace import FAULT_UNIT_KINDS
from .isolation import ISOLATION_ENGINES
from .sarif import build_line_map, dumps_sarif

FORMATS = ("text", "json", "sarif")

__all__ = ["main"]

ROUTERS = ("dmodk", "typeaware", "random", "minhop", "ftree", "none")
ORDERS = ("topology", "reversed", "random", "adversarial")


def _parse_spec(text: str) -> PGFTSpec:
    parts = [seg.strip() for seg in text.split(";")]
    if len(parts) != 4:
        raise SystemExit("--spec must be 'h; m1,..; w1,..; p1,..'")
    vec = lambda s: [int(x) for x in s.split(",")]  # noqa: E731
    return pgft(int(parts[0]), vec(parts[1]), vec(parts[2]), vec(parts[3]))


def _load_fabric(args: argparse.Namespace) -> Fabric:
    given = [x is not None for x in (args.topo, args.spec, args.topofile)]
    if sum(given) != 1:
        raise SystemExit("give exactly one of --topo / --spec / --topofile")
    if args.topofile is not None:
        fabric = load_topofile(args.topofile)
    elif args.spec is not None:
        fabric = build_fabric(_parse_spec(args.spec))
    else:
        topos = paper_topologies()
        if args.topo not in topos:
            raise SystemExit(f"unknown topology {args.topo!r}; available: "
                             f"{', '.join(sorted(topos))}")
        fabric = build_fabric(topos[args.topo])
    if args.types:
        try:
            fabric.node_types = parse_types(args.types, fabric.num_endports,
                                            spec=fabric.spec)
        except ValueError as exc:
            raise SystemExit(f"--types: {exc}") from exc
    return fabric


def _route(fabric: Fabric, args: argparse.Namespace,
           active: np.ndarray | None = None
           ) -> tuple[ForwardingTables | None, str]:
    name = args.routing
    if name == "none":
        return None, ""
    if name == "dmodk":
        return route_dmodk(fabric, active=active), "dmodk"
    if name == "typeaware":
        return route_typeaware(fabric, active=active), "typeaware"
    if name == "random":
        return route_random(fabric, seed=args.routing_seed), "random"
    if name == "ftree":
        return route_ftree(fabric), "ftree"
    if name == "minhop":
        return route_minhop(fabric, "roundrobin"), "minhop"
    raise SystemExit(f"unknown routing engine {name!r}")  # pragma: no cover


def _make_active(fabric: Fabric,
                 args: argparse.Namespace) -> np.ndarray | None:
    """Active end-port set for job-aware (Cont.-X) certification."""
    if not args.exclude:
        return None
    if args.exclude >= fabric.num_endports:
        raise SystemExit("--exclude must leave at least one active end-port")
    return topology_subset(fabric.num_endports, args.exclude,
                           seed=args.exclude_seed)


def _sampled_shift(n: int, max_stages: int) -> CPS:
    if n - 1 <= max_stages:
        return shift(n)
    step = (n - 1) // max_stages
    return shift(n, displacements=range(1, n, step))


def _make_cps(name: str, fabric: Fabric, args: argparse.Namespace,
              num_ranks: int | None = None) -> CPS:
    n = num_ranks if num_ranks is not None else fabric.num_endports
    if name == "recdbl-hier":
        if fabric.spec is None:
            raise SystemExit("recdbl-hier needs a PGFT spec")
        return hierarchical_recursive_doubling(fabric.spec)
    if name == "shift":
        return _sampled_shift(n, args.max_shift_stages)
    try:
        return by_name(name, n)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _make_order(fabric: Fabric, args: argparse.Namespace,
                active: np.ndarray | None = None) -> np.ndarray:
    n = fabric.num_endports
    if active is not None:
        # Dense ranks on the active ports only (partially populated job).
        ports = np.sort(np.asarray(active, dtype=np.int64))
        if args.order == "topology":
            return ports
        if args.order == "reversed":
            return ports[::-1].copy()
        if args.order == "random":
            rng = np.random.default_rng(args.order_seed)
            return rng.permutation(ports).astype(np.int64)
        raise SystemExit(f"--order {args.order} is not defined for "
                         "partially populated jobs (--exclude)")
    if args.order == "topology":
        return topology_order(n)
    if args.order == "reversed":
        return topology_order(n)[::-1].copy()
    if args.order == "random":
        return random_order(n, seed=args.order_seed)
    if args.order == "adversarial":
        if fabric.spec is None:
            raise SystemExit("adversarial order needs a PGFT spec")
        return adversarial_ring_order(fabric.spec)
    raise SystemExit(f"unknown order {args.order!r}")  # pragma: no cover


def _list_codes() -> None:
    for code, (sev, desc) in sorted(CODES.items()):
        print(f"{code}  {str(sev):7s} {desc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="static fabric analyzer: wiring/routing/schedule lint "
                    "and contention-freedom certification",
    )
    src = parser.add_argument_group("input")
    src.add_argument("--topo", metavar="NAME",
                     help="paper topology name (e.g. n324)")
    src.add_argument("--spec", metavar="TUPLE",
                     help="PGFT tuple 'h; m1,..; w1,..; p1,..'")
    src.add_argument("--topofile", metavar="FILE",
                     help="topology file (repro.fabric.topofile format)")
    src.add_argument("--types", metavar="LAYOUT", default=None,
                     help="node-type layout: 'uniform[:NAME]', "
                          "'blocked:NAME=K[,NAME=K..]', 'per-leaf:NAME=K' "
                          "or 'staggered:NAME=K' (remainder is 'compute')")

    rt = parser.add_argument_group("routing")
    rt.add_argument("--routing", choices=ROUTERS, default="dmodk",
                    help="engine producing the tables under test "
                         "('none' = wiring lint only; default: %(default)s)")
    rt.add_argument("--routing-seed", type=int, default=0)

    sched = parser.add_argument_group("schedule")
    sched.add_argument("--cps", metavar="NAME[,NAME..]", default=None,
                       help="collective(s) to certify (Table-2 names or "
                            "'recdbl-hier'); omit to skip certification")
    sched.add_argument("--order", choices=ORDERS, default="topology",
                       help="rank placement (default: %(default)s)")
    sched.add_argument("--order-seed", type=int, default=0)
    sched.add_argument("--max-shift-stages", type=int, default=64,
                       help="sample the Shift CPS down to this many stages")
    sched.add_argument("--exclude", type=int, default=0, metavar="K",
                       help="Cont.-K: exclude K random end-ports and "
                            "certify the partially populated job with "
                            "job-aware (dense-active-rank) D-Mod-K")
    sched.add_argument("--exclude-seed", type=int, default=0)

    eng = parser.add_argument_group("certification engine")
    eng.add_argument("--engine", choices=ENGINES, default="enumerate",
                     help="'enumerate' walks materialised tables, "
                          "'symbolic' proves from the eq.-(1) closed form "
                          "without building tables, 'both' cross-checks "
                          "the two (default: %(default)s)")

    fs = parser.add_argument_group("fault-space sweep")
    fs.add_argument("--fault-space", action="store_true",
                    help="statically sweep the fault space: repair, "
                         "quality-score and re-certify every degraded "
                         "fabric (RQL0xx diagnostics)")
    fs.add_argument("--fault-units", choices=FAULT_UNIT_KINDS + ("both",),
                    default="both",
                    help="fail cables, whole switches, or both "
                         "(default: %(default)s)")
    fs.add_argument("--max-faults", type=int, default=1, metavar="K",
                    help="also sample combinations of up to K simultaneous "
                         "faults (default: %(default)s = singles only)")
    fs.add_argument("--fault-samples", type=int, default=16, metavar="N",
                    help="sampled combos per multi-fault size "
                         "(default: %(default)s)")
    fs.add_argument("--fault-seed", type=int, default=0)
    fs.add_argument("--repair", choices=REPAIR_STRATEGIES + ("auto",),
                    default="balanced",
                    help="repair under test; 'auto' picks the better "
                         "static score per fault (default: %(default)s)")
    fs.add_argument("--load-bound", type=int, default=None, metavar="L",
                    help="RQL011 worst-link destination-multiplicity bound "
                         "(default: healthy max + faults per combo)")

    iso = parser.add_argument_group("traffic-class isolation")
    iso.add_argument("--isolation", action="store_true",
                     help="per-class contention certification + "
                          "cross-class interference bound over the "
                          "--types layout (ISO0xx diagnostics)")
    iso.add_argument("--iso-cps", metavar="NAME", default="shift",
                     help="collective each class runs concurrently "
                          "(default: %(default)s)")
    iso.add_argument("--iso-bound", type=int, default=None, metavar="B",
                     help="declared cross-class interference bound; "
                          "ISO012 when any class exceeds it")
    iso.add_argument("--iso-engine", choices=ISOLATION_ENGINES,
                     default="auto",
                     help="'symbolic' proves from the typed closed form, "
                          "'enumerate' walks the tables "
                          "(default: %(default)s)")
    iso.add_argument("--iso-fault-units",
                     choices=("none",) + FAULT_UNIT_KINDS + ("both",),
                     default="none",
                     help="also re-check class isolation on sampled "
                          "degraded fabrics (needs materialised tables; "
                          "default: %(default)s)")
    iso.add_argument("--iso-fault-samples", type=int, default=4, metavar="N",
                     help="degraded fabrics sampled per unit kind "
                          "(default: %(default)s)")

    out = parser.add_argument_group("output")
    out.add_argument("--format", choices=FORMATS, default=None,
                     help="report format (default: text); 'sarif' emits a "
                          "SARIF 2.1.0 log for GitHub code scanning")
    out.add_argument("--json", action="store_true",
                     help="machine-readable report on stdout "
                          "(alias for --format json)")
    out.add_argument("--cert-out", metavar="FILE", default=None,
                     help="write certificates (JSON list) to FILE")
    out.add_argument("--max-diags", type=int, default=25, metavar="N",
                     help="findings stored per code (default: %(default)s)")

    sel = parser.add_argument_group("pass selection")
    sel.add_argument("--passes", metavar="NAME[,NAME..]", default=None,
                     help=f"run only these passes; known: {', '.join(PASS_ORDER)}")
    sel.add_argument("--no-certify", action="store_true",
                     help="skip the contention-freedom certifier")
    sel.add_argument("--updown-sample", type=int, default=250_000,
                     help="max (src,dst) pairs for the up*/down* pass")

    parser.add_argument("--list-codes", action="store_true",
                        help="print the diagnostic-code catalogue and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_codes:
        _list_codes()
        return 0

    fabric = _load_fabric(args)
    active = _make_active(fabric, args)
    if args.engine == "symbolic":
        # The scaling unlock: never materialise tables.  The symbolic
        # engine proves the D-Mod-K closed form, so any other engine's
        # tables would be certified against the wrong routing.  The
        # isolation analyzer additionally knows the typed closed form.
        if args.routing == "typeaware" and args.isolation:
            tables, routing_name = None, "typeaware"
        elif args.routing not in ("dmodk", "none"):
            raise SystemExit("--engine symbolic proves the D-Mod-K closed "
                             "form; use --routing dmodk (or none), or "
                             "--routing typeaware with --isolation")
        else:
            tables, routing_name = None, "dmodk"
    else:
        if args.engine == "both" and args.routing != "dmodk":
            raise SystemExit("--engine both cross-checks the symbolic "
                             "engine against D-Mod-K tables; use "
                             "--routing dmodk")
        tables, routing_name = _route(fabric, args, active=active)

    schedule = []
    if args.cps:
        if tables is None and args.engine == "enumerate":
            raise SystemExit("--cps needs routed tables (--routing != none) "
                             "or a table-free engine (--engine symbolic)")
        order = _make_order(fabric, args, active=active)
        for name in args.cps.split(","):
            name = name.strip()
            schedule.append(ScheduleCase(
                cps=_make_cps(name, fabric, args, num_ranks=len(order)),
                placement=order,
                label=f"{name}/{args.order}",
            ))

    fault_space = None
    if args.fault_space:
        if tables is None:
            raise SystemExit("--fault-space repairs materialised tables; "
                             "use a table-building engine "
                             "(--engine enumerate/both, --routing dmodk)")
        if not schedule:
            raise SystemExit("--fault-space certifies degraded schedules; "
                             "give --cps")
        fault_space = dict(units=args.fault_units,
                           max_faults=args.max_faults,
                           samples=args.fault_samples,
                           seed=args.fault_seed,
                           strategy=args.repair,
                           load_bound=args.load_bound)

    isolation = None
    if args.isolation:
        isolation = dict(
            cps_name=args.iso_cps,
            max_stages=args.max_shift_stages,
            bound=args.iso_bound,
            engine=args.iso_engine,
            fault_units=(None if args.iso_fault_units == "none"
                         else args.iso_fault_units),
            fault_samples=args.iso_fault_samples,
            fault_strategy=(args.repair if args.repair != "auto"
                            else "balanced"),
        )

    # The general symbolic certifier proves plain D-Mod-K only
    # (SYM010 otherwise); typed routing is certified per class by the
    # isolation pass instead.
    certify = not args.no_certify
    if routing_name == "typeaware" and args.engine in ("symbolic", "both"):
        certify = False

    ctx = CheckContext(fabric=fabric, tables=tables, schedule=schedule,
                       routing_name=routing_name, active=active)
    only = None
    if args.passes:
        only = {p.strip() for p in args.passes.split(",")}
    result = run_check(ctx, only=only, updown_sample=args.updown_sample,
                       certify=certify, engine=args.engine,
                       symbolic_active=active, fault_space=fault_space,
                       isolation=isolation,
                       max_diags_per_code=args.max_diags)

    if args.cert_out:
        Path(args.cert_out).write_text(
            json.dumps(result.certificates, indent=2) + "\n")

    fmt = args.format or ("json" if args.json else "text")
    if fmt == "sarif":
        uri = args.topofile if args.topofile is not None else \
            f"{args.topo or 'pgft'}.topo"
        line_map = None
        if args.topofile is not None:
            line_map = build_line_map(Path(args.topofile).read_text())
        print(dumps_sarif(result, artifact_uri=uri, line_map=line_map))
    elif fmt == "json":
        payload = result.to_json()
        if "faultspace" in result.artifacts:
            payload["faultspace"] = result.artifacts["faultspace"]
        if "isolation" in result.artifacts:
            payload["isolation"] = result.artifacts["isolation"]
        print(json.dumps(payload, indent=2))
    else:
        print(result.report.render_text())
        summary = result.report.summary()
        print(f"\ncheck | passes: {', '.join(result.passes_run)}")
        print(f"check | errors={summary['errors']} "
              f"warnings={summary['warnings']} info={summary['info']}")
        for cert in result.certificates:
            print(f"check | CERTIFIED contention-free "
                  f"[{cert['certificate_kind']}]: {cert['case']} on "
                  f"{cert['topology']} via {cert['routing']} "
                  f"(max link load {cert['max_link_load']}, "
                  f"{cert['num_flows']} flows over {cert['num_stages']} "
                  "stages)")
        if args.cert_out:
            print(f"check | certificates written to {args.cert_out}")
    return result.exit_code()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
