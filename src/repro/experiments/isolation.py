"""Multi-tenant isolation: static class certificates bound the dynamics.

Two tenant classes (compute + storage) share one fabric in the
adversarial *staggered* layout -- each leaf donates a rotating slice of
end-ports to storage, so class members are scattered and type-blind
D-Mod-K loses per-class rank density.  Both classes run their own Shift
collective concurrently.  For each routing (type-aware vs plain
D-Mod-K) the experiment:

1. certifies each class symbolically (``IsolationPass``) -- per-class
   worst link load, cross-class interference bound and combined worst
   link load, all without touching the simulators;
2. re-derives the per-class and combined worst loads from the
   materialised tables (``sequence_hsd`` of each class and of all
   classes run at once -- independent of the symbolic closed form);
3. runs the fluid simulator (barrier mode, so per-stage static bounds
   apply) per class solo and all classes concurrent, plus an optional
   packet-simulator spot check on the leading stages.

The validation claim printed per row: the dynamic loads never exceed
the static certificates, and the concurrent slowdown never exceeds the
combined worst link load the analyzer predicted.
"""

from __future__ import annotations

from ..analysis import render_table, sequence_hsd
from ..check import CheckContext, build_class_schedules, run_check
from ..collectives.cps import CPS
from ..fabric import NodeTypeMap, build_fabric
from ..routing import route_dmodk, route_typeaware
from ..sim import FluidSimulator, PacketSimulator, cps_workload, merge_sequences
from .common import concurrent_cps, get_topology, make_parser

__all__ = ["run", "measure", "main"]

ROUTINGS = ("typeaware", "dmodk")


def measure(topo: str = "n324", storage_per_leaf: int = 2,
            routing: str = "typeaware", max_stages: int = 16,
            message_kb: int = 64, packet_stages: int = 0) -> dict:
    """One routing's static certificates + dynamic validation numbers."""
    if routing not in ROUTINGS:
        raise ValueError(f"routing must be one of {ROUTINGS}, got {routing!r}")
    spec = get_topology(topo)
    fabric = build_fabric(spec)
    types = NodeTypeMap.staggered(spec, {"storage": storage_per_leaf})
    fabric.node_types = types

    tables = (route_typeaware(fabric) if routing == "typeaware"
              else route_dmodk(fabric))

    # 1. static: symbolic per-class certificates + interference bound
    ctx = CheckContext(fabric=fabric, tables=tables, routing_name=routing)
    result = run_check(ctx, only={"isolation"},
                       isolation=dict(cps_name="shift", max_stages=max_stages,
                                      engine="symbolic"))
    iso = result.artifacts["isolation"]
    static_worst = dict(iso["per_class_worst"])
    cross = int(iso["cross_class_bound"])
    combined = int(iso["max_combined_load"])

    # 2. dynamic per-link flow accounting over the materialised tables
    schedules = build_class_schedules(types, cps_name="shift",
                                      max_stages=max_stages)
    dyn_worst = {cs.name: sequence_hsd(tables, cs.cps, cs.ports).worst
                 for cs in schedules}
    dyn_combined = sequence_hsd(tables, *concurrent_cps(
        [(cs.cps, cs.ports) for cs in schedules])).worst

    # 3. fluid dynamics: each class solo, then all classes concurrent.
    # Barrier mode keeps stage k of every class aligned (the classes
    # partition the end-ports), which is exactly the static model.
    sim = FluidSimulator(tables)
    size = message_kb * 1024.0
    workloads = [cps_workload(cs.cps, cs.ports, spec.num_endports, size)
                 for cs in schedules]
    solo = {cs.name: sim.run_sequences(wl, mode="barrier")
            for cs, wl in zip(schedules, workloads)}
    together = sim.run_sequences(merge_sequences(*workloads), mode="barrier")
    worst_solo = max(r.makespan for r in solo.values())
    slowdown = together.makespan / worst_solo if worst_solo > 0 else 1.0

    packet = None
    if packet_stages > 0:
        head = [
            cps_workload(CPS(cs.cps.name, cs.cps.num_ranks,
                             cs.cps.stages[:packet_stages]),
                         cs.ports, spec.num_endports, size)
            for cs in schedules
        ]
        packet = PacketSimulator(tables).run_sequences(
            merge_sequences(*head))

    return {
        "topology": str(spec),
        "routing": routing,
        "classes": {cs.name: int(len(cs.ports)) for cs in schedules},
        "static_worst": static_worst,
        "cross_class_bound": cross,
        "max_combined_load": combined,
        "dynamic_worst": dyn_worst,
        "dynamic_combined": dyn_combined,
        "solo_normbw": {n: r.normalized_bandwidth for n, r in solo.items()},
        "together_normbw": together.normalized_bandwidth,
        "slowdown": slowdown,
        "packet_normbw": (packet.normalized_bandwidth
                          if packet is not None else None),
        # the validation claims: dynamics never exceed the static bounds
        "dynamic_within_static": all(
            dyn_worst[n] <= static_worst[n] for n in dyn_worst
        ) and dyn_combined <= combined,
        "slowdown_within_bound": slowdown <= combined + 0.05,
    }


def run(topo: str = "n324", storage_per_leaf: int = 2,
        max_stages: int = 16, message_kb: int = 64,
        packet_stages: int = 2) -> str:
    rows = []
    ok = True
    for routing in ROUTINGS:
        m = measure(topo=topo, storage_per_leaf=storage_per_leaf,
                    routing=routing, max_stages=max_stages,
                    message_kb=message_kb, packet_stages=packet_stages)
        ok = ok and m["dynamic_within_static"] and m["slowdown_within_bound"]
        for name in sorted(m["classes"]):
            rows.append((routing, name, m["classes"][name],
                         m["static_worst"][name], m["dynamic_worst"][name],
                         round(m["solo_normbw"][name], 3), "", ""))
        rows.append((routing, "all concurrent", sum(m["classes"].values()),
                     m["max_combined_load"], m["dynamic_combined"],
                     round(m["together_normbw"], 3),
                     round(m["slowdown"], 2),
                     "yes" if (m["dynamic_within_static"]
                               and m["slowdown_within_bound"]) else "NO"))
        topology = m["topology"]
    verdict = ("dynamics never exceed the static certificates"
               if ok else "VIOLATION: dynamics exceeded a static bound")
    return render_table(
        ["routing", "class", "ports", "static worst", "dynamic worst",
         "normBW", "slowdown", "dyn<=static"],
        rows,
        title=(f"Multi-tenant class isolation on {topology} | "
               f"staggered storage={storage_per_leaf}/leaf, "
               f"Shift x{max_stages} stages per class\n"
               f"({verdict}; type-aware routing keeps every class "
               "contention-free where D-Mod-K does not)"),
    )


def main(argv=None) -> None:
    parser = make_parser(__doc__)
    parser.add_argument("--topo", default="n324")
    parser.add_argument("--storage-per-leaf", type=int, default=2)
    parser.add_argument("--max-stages", type=int, default=16)
    parser.add_argument("--message-kb", type=int, default=64)
    parser.add_argument("--packet-stages", type=int, default=2)
    args = parser.parse_args(argv)
    print(run(topo=args.topo, storage_per_leaf=args.storage_per_leaf,
              max_stages=args.max_stages, message_kb=args.message_kb,
              packet_stages=args.packet_stages))


if __name__ == "__main__":
    main()
