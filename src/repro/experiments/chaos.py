"""Chaos campaigns: seeded fault storms against the MPI collectives.

Each scenario draws a random :class:`~repro.faults.FaultSchedule`
(cable cuts, switch deaths, flaky windows -- density set by ``--mtbf``)
and runs a data-bearing collective through the fault-honoring packet
engine with at-least-once retransmission and the self-healing
controller enabled.  Every scenario must end in exactly one of two
states: the collective completes and its *data* matches the collective
semantics bit-for-bit, or it raises
:class:`~repro.mpi.DeliveryError` naming the lost messages.  Anything
else -- a "completed" collective with wrong data -- is silent loss and
aborts the campaign.  The report is a degradation envelope: delivered
fraction, retransmissions, repairs and slowdown versus the fault-free
baseline, per MTBF level.

``--batch`` switches the campaign to the tensorized fast path: the
collective's stage schedule is priced *once* through
:func:`repro.sim.run_batch` (analytic occupancy intervals included),
and each scenario is then screened against its fault schedule with
pure interval algebra -- a scenario provably untouched by every fault
window gets its exact metrics tuple without simulating anything.
Only scenarios a fault could actually perturb fall back to the full
per-scenario engine (still sharded across ``--jobs``), and a sampled
subset of fast verdicts is cross-checked against the unbatched path
on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import render_table
from ..fabric import build_fabric
from ..faults import FaultSchedule
from ..mpi import Communicator, DeliveryError, RetryPolicy
from ..routing import route_dmodk
from ..sim.batch import CONFLICT_MARGIN
from .common import (
    DEFAULT_SEED,
    add_runtime_args,
    get_topology,
    make_parser,
    make_sweeper,
    runtime_summary,
)

__all__ = ["run", "main", "run_scenario", "COLLECTIVES"]

COLLECTIVES = ("allreduce", "allgather", "broadcast", "alltoall")


def _scenario_data(collective: str, n: int, words: int) -> list[np.ndarray]:
    """Integer-valued float payloads so semantic checks are exact."""
    if collective == "alltoall":
        return [np.arange(n, dtype=np.float64) + i * n for i in range(n)]
    return [np.arange(words, dtype=np.float64) + i for i in range(n)]


def _semantics_ok(collective: str, n: int, words: int,
                  data: list[np.ndarray], values) -> bool:
    """Cross-check delivered data against the collective's definition."""
    if collective == "allreduce":
        expect = np.sum(np.stack(data), axis=0)
        return all(np.array_equal(v, expect) for v in values)
    if collective == "allgather":
        expect = np.concatenate(data)
        return all(np.array_equal(v, expect) for v in values)
    if collective == "broadcast":
        return all(np.array_equal(v, data[0]) for v in values)
    if collective == "alltoall":
        # values[i][j] must be data[j][i] (the displacement exchange).
        return all(
            np.array_equal(values[i], np.asarray(
                [data[j][i] for j in range(n)]))
            for i in range(n)
        )
    raise ValueError(f"unknown collective {collective!r}")


def run_scenario(
    topo: str,
    scenario_seed: int,
    collective: str,
    mtbf: float,
    horizon: float,
    sweep_delay: float,
    words: int,
    max_retries: int,
) -> tuple[float, ...]:
    """One chaos scenario (module-level: picklable for worker pools).

    Returns the flat metrics vector
    ``(completed, semantic_ok, delivered_fraction, retransmissions,
    dropped_packets, repairs, recovery_latency, time_us, lost)``.
    """
    spec = get_topology(topo)
    fab = build_fabric(spec)
    tables = route_dmodk(fab)
    n = fab.num_endports
    sched = FaultSchedule.random(
        fab, seed=scenario_seed, horizon=horizon, mtbf=mtbf)
    comm = Communicator(
        tables,
        faults=sched,
        retry=RetryPolicy(max_retries=max_retries, seed=scenario_seed),
        sweep_delay=sweep_delay,
    )
    data = _scenario_data(collective, n, words)
    try:
        res = getattr(comm, collective)(data)
    except DeliveryError as err:
        m = err.metrics
        return (0.0, 1.0, m.delivered_fraction, float(m.retransmissions),
                float(m.dropped_packets), float(len(m.repairs)),
                m.recovery_latency, m.time_us, float(len(err.lost)))
    m = comm.last_faults
    ok = _semantics_ok(collective, n, words, data, res.values)
    return (1.0, float(ok), m.delivered_fraction, float(m.retransmissions),
            float(m.dropped_packets), float(len(m.repairs)),
            m.recovery_latency, m.time_us, 0.0)


def _baseline_time(topo: str, collective: str, words: int) -> float:
    """Fault-free packet-priced time of the same collective (the
    denominator of the slowdown column -- same engine, empty schedule)."""
    spec = get_topology(topo)
    fab = build_fabric(spec)
    tables = route_dmodk(fab)
    comm = Communicator(tables, faults=FaultSchedule())
    data = _scenario_data(collective, fab.num_endports, words)
    return getattr(comm, collective)(data).time_us


@dataclass
class _ChaosPlan:
    """Analytic replay of one (topo, collective, words) scenario family.

    Everything here is fault-independent: the stage ledger, the exact
    per-stage makespans and link-occupancy intervals of the fault-free
    run (offset to the global clock), and the fault-free semantic
    verdict.  A scenario whose schedule provably never touches this
    plan gets its metrics from the plan alone.
    """

    fab: object
    sem_ok: bool
    total_messages: int
    final_clock: float
    windows: list[tuple[float, float]]      # non-empty stage run windows
    links: np.ndarray                        # concatenated occupancy ...
    enter: np.ndarray                        # ... in global time
    exit: np.ndarray
    used: frozenset                          # every gport any stage crosses


def _batched_plan(topo: str, collective: str,
                  words: int) -> "_ChaosPlan | None":
    """Build the shared analytic plan, or ``None`` when even the
    fault-free stages need the event core (conflicts) -- then every
    scenario takes the per-scenario path."""
    from ..sim import BatchSpec, ScenarioSpec, run_batch

    spec = get_topology(topo)
    fab = build_fabric(spec)
    tables = route_dmodk(fab)
    n = fab.num_endports
    data = _scenario_data(collective, n, words)
    comm = Communicator(tables)
    res = getattr(comm, collective)(data)
    sem_ok = _semantics_ok(collective, n, words, data, res.values)
    assert comm.last_stages is not None

    # Fold each stage exactly the way Communicator._price_faulty does.
    stage_pending: list[dict[int, tuple[int, float]]] = []
    for stage in comm.last_stages:
        pending: dict[int, tuple[int, float]] = {}
        for src, dst, nbytes in stage:
            if src == dst or nbytes <= 0:
                continue
            if src in pending:
                prev = pending[src]
                pending[src] = (prev[0], prev[1] + nbytes)
            else:
                pending[src] = (dst, nbytes)
        stage_pending.append(pending)
    total = sum(len(p) for p in stage_pending)

    # Price every non-empty stage once through the batch engine; its
    # fast path is bit-identical to the reference engine the faulty
    # pricer runs, and it exposes the occupancy intervals the screen
    # needs.  The faulty pricer uses default (infinite) credits.
    elements = []
    for s_i, pending in enumerate(stage_pending):
        if not pending:
            continue
        seqs: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for src in sorted(pending):
            seqs[src].append(pending[src])
        elements.append(ScenarioSpec(sequences=seqs, label=f"stage{s_i}"))
    batch = run_batch(BatchSpec(tables=tables, elements=elements,
                                calibration=comm.cal))
    if any(e.status != "fast" for e in batch.elements):
        return None

    clock = 0.0
    windows: list[tuple[float, float]] = []
    occ_l: list[np.ndarray] = []
    occ_e: list[np.ndarray] = []
    occ_x: list[np.ndarray] = []
    stage_iter = iter(batch.elements)
    for pending in stage_pending:
        if not pending:
            clock += comm.cal.host_overhead  # empty (barrier) stage
            continue
        e = next(stage_iter)
        la, ea, xa = e.occupancy()
        occ_l.append(la)
        occ_e.append(ea + clock)
        occ_x.append(xa + clock)
        end = max(clock, clock + e.makespan)
        windows.append((clock, end))
        clock = end
    links = np.concatenate(occ_l) if occ_l else np.zeros(0, dtype=np.int64)
    enter = np.concatenate(occ_e) if occ_e else np.zeros(0)
    exit_ = np.concatenate(occ_x) if occ_x else np.zeros(0)
    return _ChaosPlan(
        fab=fab, sem_ok=sem_ok, total_messages=total, final_clock=clock,
        windows=windows, links=links, enter=enter, exit=exit_,
        used=frozenset(np.unique(links).tolist()))


def _screen_scenario(plan: _ChaosPlan, sched: FaultSchedule,
                     sweep_delay: float) -> "tuple[float, ...] | None":
    """The exact :func:`run_scenario` tuple when the schedule provably
    cannot perturb the plan, else ``None`` (run the real engine).

    Three demotion triggers, each conservative:

    * a dead window on a cable any stage crosses, opening before the
      run ends -- even a non-overlapping one re-points forwarding
      entries at repair time (and a mid-flight one drops packets);
    * any fault window (dead or flaky) intersecting any occupancy
      interval -- the engine's own exactness criterion;
    * a repair sweep landing inside a stage's run window -- mid-run
      table swaps re-resolve parked senders.

    A surviving scenario delivers everything on the fault-free
    timeline: repairs and recovery latency follow from schedule
    algebra alone (one sweep per distinct topology-event time).
    """
    margin = CONFLICT_MARGIN
    fab = plan.fab
    sweeps: dict[float, float] = {}
    for ev in sched.topology_events():
        sweeps.setdefault(ev.time + sweep_delay, ev.time)
    for a, b, start, _end in sched.down_intervals(fab):
        if (a in plan.used or b in plan.used) \
                and start < plan.final_clock + margin:
            return None
    if sched.overlaps_occupancy(fab, plan.links, plan.enter, plan.exit,
                                margin=margin):
        return None
    for sweep_time in sweeps:
        if sweep_time > plan.final_clock + margin:
            continue
        for w0, w1 in plan.windows:
            if w0 - margin < sweep_time < w1 + margin:
                return None
    repairs = [(st, ft) for st, ft in sweeps.items()
               if st <= plan.final_clock]
    recovery = max((st - ft for st, ft in repairs), default=0.0)
    return (1.0, float(plan.sem_ok), 1.0, 0.0, 0.0, float(len(repairs)),
            recovery, plan.final_clock, 0.0)


def _run_level_batched(plan: _ChaosPlan, argslist, sweeper,
                       batch_size: int, batch_check: int):
    """One MTBF level on the analytic fast path.

    Screens every scenario against the plan, cross-checks a sampled
    subset of fast verdicts against :func:`run_scenario` (exact tuple
    equality), and shards only the demoted scenarios across the
    sweeper's worker pool, ``batch_size`` at a time.  Returns the raw
    metrics list plus the number of screened-fast scenarios.
    """
    raw: list = [None] * len(argslist)
    demoted: list[int] = []
    for i, args in enumerate(argslist):
        topo, scenario_seed, _c, level, horizon, sweep_delay = args[:6]
        sched = FaultSchedule.random(plan.fab, seed=scenario_seed,
                                     horizon=horizon, mtbf=level)
        fast = _screen_scenario(plan, sched, sweep_delay)
        if fast is None:
            demoted.append(i)
        else:
            raw[i] = fast
    fast_idx = [i for i in range(len(argslist)) if raw[i] is not None]
    if batch_check and fast_idx:
        stride = max(1, len(fast_idx) // batch_check)
        for i in fast_idx[::stride][:batch_check]:
            ref = run_scenario(*argslist[i])
            if tuple(ref) != tuple(raw[i]):
                raise RuntimeError(
                    f"batched chaos mismatch at seed {argslist[i][1]}: "
                    f"screened {raw[i]} != per-scenario {ref}")
    for c0 in range(0, len(demoted), max(1, batch_size)):
        chunk = demoted[c0:c0 + max(1, batch_size)]
        results = sweeper.starmap(run_scenario,
                                  [argslist[i] for i in chunk])
        for i, r in zip(chunk, results):
            raw[i] = r
    return raw, len(fast_idx)


def run(topo: str = "n16-pgft", campaign: int = 50, seed: int = DEFAULT_SEED,
        mtbf=(500.0, 100.0, 25.0), collective: str = "allreduce",
        horizon: float = 300.0, sweep_delay: float = 50.0,
        words: int = 256, max_retries: int = 8, sweeper=None,
        batch: bool = False, batch_size: int = 4096,
        batch_check: int = 8) -> str:
    if collective not in COLLECTIVES:
        raise SystemExit(
            f"unknown collective {collective!r}; pick one of "
            f"{', '.join(COLLECTIVES)}")
    if sweeper is None:
        sweeper = make_sweeper()
    base_us = _baseline_time(topo, collective, words)
    plan = _batched_plan(topo, collective, words) if batch else None
    screened = 0

    rows = []
    for level in mtbf:
        argslist = [
            (topo, seed + i, collective, float(level), horizon,
             sweep_delay, words, max_retries)
            for i in range(campaign)
        ]
        if plan is not None:
            raw, n_fast = _run_level_batched(plan, argslist, sweeper,
                                             batch_size, batch_check)
            screened += n_fast
        else:
            raw = sweeper.starmap(run_scenario, argslist)
        out = np.asarray([r for r in raw if r is not None])
        if not out.size:
            raise RuntimeError(
                f"chaos campaign mtbf={level}: every scenario worker "
                f"failed ({len(sweeper.last_failures)} failures)")
        completed, sem_ok, df = out[:, 0], out[:, 1], out[:, 2]
        retrans, repairs = out[:, 3], out[:, 5]
        recovery, time_us, lost = out[:, 6], out[:, 7], out[:, 8]
        silent = np.flatnonzero((completed > 0) & (sem_ok == 0))
        if silent.size:
            bad = [seed + int(i) for i in silent]
            raise RuntimeError(
                f"SILENT DATA LOSS: scenario seed(s) {bad} completed "
                f"{collective} with wrong data (mtbf={level})")
        done = completed > 0
        rows.append((
            f"{level:g}",
            len(out),
            int(done.sum()),
            int((~done).sum()),
            round(float(df.min()), 3),
            round(float(df.mean()), 3),
            round(float(retrans.mean()), 1),
            round(float(repairs.mean()), 1),
            round(float(np.percentile(recovery, 95)), 1),
            round(float(time_us[done].mean() / base_us), 2)
            if done.any() else "-",
            int(lost.sum()),
        ))

    table = render_table(
        ["mtbf (us)", "scenarios", "ok", "delivery-err", "min df",
         "mean df", "retrans", "repairs", "p95 recovery", "slowdown",
         "lost msgs"],
        rows,
        title=(f"Chaos campaign: {campaign} seeded scenarios x "
               f"{collective} on {topo} (horizon {horizon:g} us, "
               f"sweep delay {sweep_delay:g} us, "
               f"baseline {base_us:.1f} us)\n"
               "(every scenario either delivers semantically-correct "
               "data or raises DeliveryError -- no silent loss)"),
    )
    if batch:
        mode = (f"batched: {screened}/{campaign * len(mtbf)} scenarios "
                f"resolved analytically, {batch_check} cross-checked "
                f"per level" if plan is not None else
                "batched: plan unavailable (stage needs the event "
                "core); ran per-scenario")
        return f"{table}\n{mode}\n{runtime_summary(sweeper)}"
    return f"{table}\n{runtime_summary(sweeper)}"


def main(argv=None) -> None:
    parser = make_parser(__doc__)
    parser.add_argument("--topo", default="n16-pgft")
    parser.add_argument("--campaign", type=int, default=50, metavar="N",
                        help="scenarios per MTBF level (default: %(default)s)")
    parser.add_argument("--mtbf", type=float, nargs="+",
                        default=[500.0, 100.0, 25.0],
                        help="mean time between faults, us (one column set"
                             " per value)")
    parser.add_argument("--collective", default="allreduce",
                        choices=COLLECTIVES)
    parser.add_argument("--horizon", type=float, default=300.0,
                        help="fault schedule horizon, us")
    parser.add_argument("--sweep-delay", type=float, default=50.0,
                        help="SM sweep delay before repairs apply, us")
    parser.add_argument("--words", type=int, default=256,
                        help="float64 words per rank payload")
    parser.add_argument("--max-retries", type=int, default=8)
    parser.add_argument("--batch", action="store_true",
                        help="tensorized fast path: screen scenarios "
                             "against the batch-priced stage plan; only "
                             "perturbed ones simulate (per --jobs)")
    parser.add_argument("--batch-size", type=int, default=4096,
                        help="demoted scenarios dispatched per worker "
                             "round in --batch mode")
    parser.add_argument("--batch-check", type=int, default=8,
                        help="fast verdicts cross-checked against the "
                             "per-scenario engine, per MTBF level")
    add_runtime_args(parser)
    args = parser.parse_args(argv)
    sweeper = make_sweeper(args.jobs, use_cache=False,
                           shard_timeout=args.shard_timeout)
    print(run(topo=args.topo, campaign=args.campaign, seed=args.seed,
              mtbf=tuple(args.mtbf), collective=args.collective,
              horizon=args.horizon, sweep_delay=args.sweep_delay,
              words=args.words, max_retries=args.max_retries,
              sweeper=sweeper, batch=args.batch,
              batch_size=args.batch_size, batch_check=args.batch_check))


if __name__ == "__main__":
    main()
