"""Event-queue reference body of the packet core, kept as a test oracle.

:func:`repro.faults.packetsim.run_faulty` runs one flat event loop over
its own calendar (a heap of distinct event times, each with a list of
fixed-arity entries), keeps per-port state in plain lists, reads
forwarding rows as Python tuples and fuses each transmit's completion
into one event.  The function below is the form it replaced: an
:class:`~repro.sim.events.EventQueue` of ``*args`` events, per-port
dicts, NumPy table lookups, and three separate completion events
(``output_free``, ``release_credit``, ``request_output``) per transmit.
Tests hold the lean loop to it bit for bit: records, latencies, engine
statistics, the :class:`~repro.faults.packetsim.FaultRunReport` and the
text of every :class:`~repro.sim.events.SimulationError`."""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.faults.controller import HealingController, RepairAction
from repro.faults.packetsim import FaultRunReport, LostMessage
from repro.faults.schedule import FaultSchedule
from repro.sim.calibration import link_capacities
from repro.sim.events import EventQueue, SimulationError
from repro.sim.packet import PacketEngineStats
from repro.sim.records import MessageRecord

from .records_reference import ReferenceResult, finalize

__all__ = ["run_faulty"]


@dataclass
class _Msg:
    src: int
    dst: int
    size: float
    start: float
    seq_idx: int = 0
    inject: float = -1.0
    finish: float = -1.0
    packets_left: int = 0
    dropped: int = 0
    reason: str = ""


@dataclass
class _Packet:
    msg_id: int
    dst: int
    size: float
    is_last: bool
    ready: float = 0.0


@dataclass
class _Counters:
    events: int = 0
    dropped: int = 0
    unresolved: int = 0   # real messages not yet delivered or doomed
    pending_ports: int = 0  # ports still working through their sequence


def run_faulty(
    sim,
    sequences: list[list[tuple[int, float]]],
    faults: FaultSchedule,
    controller: HealingController | None = None,
    t0: float = 0.0,
    attempt: int = 0,
) -> tuple[ReferenceResult, FaultRunReport]:
    """Run ``sequences`` under ``faults`` starting at global time ``t0``.

    Returns the :class:`ReferenceResult` (lost messages appear in
    ``messages`` with ``finish == -1``; latencies/makespan/bytes cover
    deliveries only) and the :class:`FaultRunReport`.  Engine-local
    time 0 corresponds to global time ``t0``.  On an empty schedule
    this is the reference run of ``sim``.
    """
    fab = sim.fabric
    N = fab.num_endports
    if len(sequences) != N:
        raise ValueError(f"need {N} sequences, got {len(sequences)}")
    q = EventQueue()
    cal = sim.cal
    limit = sim.credit_limit
    tables_ref = [controller.tables_at(t0) if controller is not None
                  else sim.tables]

    # Plain lists: the handlers below index them once per event.  A
    # cable the fabric lacks is down for the whole run.
    down = (fab.port_peer < 0).tolist()
    flaky: dict[int, float] = {}   # directed gport -> active loss prob
    rng = np.random.default_rng(np.random.SeedSequence(
        [faults.seed & 0xFFFFFFFF, int(attempt),
         abs(int(round(t0 * 1e3))) & 0xFFFFFFFFFFFF]))

    in_queue: dict[int, deque] = {}
    occupancy: dict[int, int] = {}
    out_busy: dict[int, float] = {}
    out_wait: dict[int, deque] = {}
    credit_wait: dict[int, deque] = {}

    host_pkts: dict[int, deque] = {p: deque() for p in range(N)}
    host_free = [0.0] * N
    seq_pos = [0] * N
    messages: list[_Msg] = []
    applied: list[RepairAction] = []
    ctr = _Counters()

    cap = link_capacities(sim.fabric, sim.cal)

    def segment(size: float) -> list[float]:
        full, rest = divmod(size, cal.mtu)
        sizes = [float(cal.mtu)] * int(full)
        if rest > 1e-12 or not sizes:
            sizes.append(float(rest) if rest > 1e-12 else float(size))
        return sizes

    def tick() -> None:
        ctr.events += 1
        if ctr.events > sim.max_events:
            raise SimulationError("packet event budget exhausted")

    def has_credit(send_gp: int) -> bool:
        if limit is None:
            return True
        if fab.peer_node[send_gp] < N:
            return True
        return occupancy.get(send_gp, 0) < limit

    def drop_packet(pkt: _Packet, reason: str) -> None:
        ctr.dropped += 1
        msg = messages[pkt.msg_id]
        if msg.dropped == 0:
            msg.reason = reason
            if msg.finish < 0:
                ctr.unresolved -= 1   # doomed: can never complete
        msg.dropped += 1

    # -- fault plane ------------------------------------------------------
    def wake_parked(gp: int) -> None:
        """Re-dispatch every sender parked on link ``gp`` (output-busy
        or credit wait): the link state or tables changed under them."""
        for dq in (out_wait.pop(gp, None), credit_wait.pop(gp, None)):
            if dq:
                for sender in dq:
                    q.schedule(q.now, request_output, sender)

    def set_link_down(gpa: int, gpb: int) -> None:
        down[gpa] = True
        down[gpb] = True
        wake_parked(gpa)
        wake_parked(gpb)

    def set_link_up(gpa: int, gpb: int) -> None:
        down[gpa] = False
        down[gpb] = False

    def kill_switch(node: int) -> None:
        # Purge the dead switch's input buffers: queues live behind the
        # *sending* gport of each cable into the node.
        for gp_out in fab.ports_of(node):
            in_gp = int(fab.port_peer[gp_out])
            if in_gp < 0:
                continue
            queue = in_queue.get(in_gp)
            if queue:
                while queue:
                    drop_packet(queue.popleft(), "switch died")
                occupancy[in_gp] = 0
            wake_parked(in_gp)
            wake_parked(int(gp_out))

    def flaky_on(gpa: int, gpb: int, loss: float) -> None:
        flaky[gpa] = loss
        flaky[gpb] = loss

    def flaky_off(gpa: int, gpb: int) -> None:
        flaky.pop(gpa, None)
        flaky.pop(gpb, None)

    def apply_repair(i: int) -> None:
        tables_ref[0], action = controller.swap(i)
        applied.append(action)
        # Every parked sender may have a different next hop now.
        for gp in sorted(set(out_wait) | set(credit_wait)):
            wake_parked(gp)

    # -- host side --------------------------------------------------------
    def host_start_message(p: int) -> None:
        if seq_pos[p] >= len(sequences[p]):
            ctr.pending_ports -= 1
            return
        dst, size = sequences[p][seq_pos[p]]
        msg = _Msg(src=p, dst=dst, size=size, start=q.now,
                   seq_idx=seq_pos[p])
        seq_pos[p] += 1
        t_start = max(q.now, host_free[p]) + cal.host_overhead
        msg_id = len(messages)
        messages.append(msg)
        if dst == p or size <= 0:
            msg.inject = t_start
            msg.finish = t_start
            host_free[p] = t_start
            q.schedule(t_start, host_start_message, p)
            return
        ctr.unresolved += 1
        pieces = segment(size)
        msg.packets_left = len(pieces)
        for i, psize in enumerate(pieces):
            host_pkts[p].append(
                _Packet(msg_id, dst, psize, is_last=(i == len(pieces) - 1)))
        host_free[p] = max(q.now, host_free[p]) + cal.host_overhead
        q.schedule(host_free[p], host_try_send, p)

    def host_try_send(p: int) -> None:
        if not host_pkts[p]:
            return
        gp = int(fab.port_start[p])  # single-rail up port
        if q.now < host_free[p] - 1e-12:
            q.schedule(host_free[p], host_try_send, p)
            return
        if down[gp]:
            # The NIC sees its link dead and discards instantly; the
            # send chain advances so later (possibly post-repair...
            # the uplink itself never repairs) messages are attempted.
            pkt = host_pkts[p].popleft()
            msg = messages[pkt.msg_id]
            if msg.inject < 0:
                msg.inject = q.now
            drop_packet(pkt, "host uplink down")
            if host_pkts[p]:
                q.schedule(q.now, host_try_send, p)
            elif pkt.is_last:
                q.schedule(q.now, host_start_message, p)
            return
        if not has_credit(gp):
            credit_wait.setdefault(gp, deque()).append(("host", p))
            return
        pkt = host_pkts[p].popleft()
        msg = messages[pkt.msg_id]
        if msg.inject < 0:
            msg.inject = q.now
        duration = pkt.size / cap[gp]
        occupancy[gp] = occupancy.get(gp, 0) + 1
        q.schedule(q.now + cal.wire_latency, arrive, gp, pkt)
        host_free[p] = q.now + duration
        if host_pkts[p]:
            q.schedule(host_free[p], host_try_send, p)
        elif pkt.is_last:
            q.schedule(host_free[p], host_start_message, p)

    # -- switch side ------------------------------------------------------
    def arrive(send_gp: int, pkt: _Packet) -> None:
        tick()
        if down[send_gp]:
            drop_packet(pkt, "link cut in flight")
            release_credit(send_gp)
            return
        loss = flaky.get(send_gp)
        if loss is not None and rng.random() < loss:
            drop_packet(pkt, "flaky loss")
            release_credit(send_gp)
            return
        node = int(fab.peer_node[send_gp])
        if node < N:
            tail = q.now + pkt.size / cap[send_gp]
            q.schedule(tail, deliver, pkt)
            return
        pkt.ready = q.now + cal.switch_latency
        queue = in_queue.setdefault(send_gp, deque())
        queue.append(pkt)
        if len(queue) == 1:
            request_output(("sw", node, send_gp))

    def deliver(pkt: _Packet) -> None:
        msg = messages[pkt.msg_id]
        msg.packets_left -= 1
        if msg.packets_left == 0 and msg.dropped == 0:
            msg.finish = q.now
            ctr.unresolved -= 1

    def request_output(sender) -> None:
        if sender[0] == "host":
            host_try_send(sender[1])
            return
        _, node, in_gp = sender
        queue = in_queue.get(in_gp)
        if not queue:
            return
        pkt = queue[0]
        out = int(tables_ref[0].out_port(node, pkt.dst))
        if out < 0 or down[out]:
            # NACK: unroutable (repair declared the destination lost)
            # or next link dead.  Discard, free the buffer slot now,
            # keep the queue moving.
            queue.popleft()
            drop_packet(pkt, "no route" if out < 0 else "link down")
            release_credit(in_gp)
            if queue:
                q.schedule(q.now, request_output, sender)
            return
        if out_busy.get(out, 0.0) > q.now + 1e-12:
            out_wait.setdefault(out, deque()).append(sender)
            return
        if not has_credit(out):
            credit_wait.setdefault(out, deque()).append(sender)
            return
        transmit(node, in_gp, out, pkt)

    def transmit(node: int, in_gp: int, out: int, pkt: _Packet) -> None:
        in_queue[in_gp].popleft()
        start = max(q.now, pkt.ready)
        duration = pkt.size / cap[out]
        out_busy[out] = start + duration
        occupancy[out] = occupancy.get(out, 0) + 1
        q.schedule(start + cal.wire_latency, arrive, out, pkt)
        q.schedule(start + duration, output_free, out)
        q.schedule(start + duration, release_credit, in_gp)
        if in_queue[in_gp]:
            q.schedule(start + duration, request_output, ("sw", node, in_gp))

    def output_free(out: int) -> None:
        waiting = out_wait.get(out)
        while waiting:
            sender = waiting.popleft()
            _, node, in_gp = sender
            queue = in_queue.get(in_gp)
            if not queue:
                continue
            pkt = queue[0]
            o = int(tables_ref[0].out_port(node, pkt.dst))
            if o != out or o < 0 or down[out]:
                # Tables swapped or the link died while parked:
                # re-resolve from scratch (may drop or re-route).
                q.schedule(q.now, request_output, sender)
                continue
            if has_credit(out):
                transmit(node, in_gp, out, pkt)
                return
            credit_wait.setdefault(out, deque()).append(sender)

    def release_credit(send_gp: int) -> None:
        occupancy[send_gp] = occupancy.get(send_gp, 1) - 1
        waiting = credit_wait.get(send_gp)
        if waiting:
            request_output(waiting.popleft())

    # -- schedule the fault plane (engine-local time = global - t0) -------
    for a, b, start, end in faults.down_intervals(fab):
        if end <= t0:
            continue
        if start <= t0:
            down[a] = True
            down[b] = True
        else:
            q.schedule(start - t0, set_link_down, a, b)
        if np.isfinite(end):
            q.schedule(end - t0, set_link_up, a, b)
    for e in faults.topology_events():
        if e.kind == "switch_down" and e.time > t0:
            q.schedule(e.time - t0, kill_switch, e.node)
    for a, b, start, end, loss in faults.flaky_intervals(fab):
        if end <= t0:
            continue
        if start <= t0:
            flaky[a] = loss
            flaky[b] = loss
        else:
            q.schedule(start - t0, flaky_on, a, b, loss)
        if np.isfinite(end):
            q.schedule(end - t0, flaky_off, a, b)
    if controller is not None:
        # Swaps are scheduled by index: a sweep's repair is computed
        # only if the run is still going when it fires.
        times = controller.sweep_times
        for i in range(bisect.bisect_right(times, t0), len(times)):
            q.schedule(times[i] - t0, apply_repair, i)

    for p in range(N):
        if sequences[p]:
            ctr.pending_ports += 1
            q.schedule(0.0, host_start_message, p)

    # Stop as soon as all traffic is resolved; pending fault/repair
    # bookkeeping beyond that point cannot change the outcome.  In-flight
    # remnants of doomed messages only matter while an undecided message
    # could still queue behind them -- and then unresolved > 0.
    q.run(max_events=None,
          stop=lambda: ctr.unresolved == 0 and ctr.pending_ports == 0)

    stuck = [m for m in messages if m.finish < 0 and m.dropped == 0
             and not (m.dst == m.src or m.size <= 0)]
    if stuck:
        raise SimulationError(
            f"{len(stuck)} messages neither delivered nor dropped "
            "(deadlock in the event core)")

    messages.sort(key=lambda m: (m.src, m.seq_idx))
    records = [
        MessageRecord(m.src, m.dst, m.size, m.start,
                      float(m.inject), float(m.finish))
        for m in messages
    ]
    real = [m for m in messages if m.size > 0 and m.src != m.dst]
    delivered = [m for m in real if m.finish >= 0]
    lost = tuple(
        LostMessage(src=m.src, dst=m.dst, seq=m.seq_idx, size=m.size,
                    dropped_packets=m.dropped, reason=m.reason)
        for m in real if m.finish < 0
    )
    stats = PacketEngineStats(
        engine="reference", fast_path=False, fallback=False,
        conflicts=0, messages=len(real),
        packets=sum(len(segment(m.size)) for m in real),
        events_saved=0,
    )
    result = finalize(sim, records, sequences, stats)
    report = FaultRunReport(
        t0=t0, end=t0 + result.makespan,
        total_messages=len(real),
        delivered_messages=len(delivered),
        delivered_bytes=sum(m.size for m in delivered),
        dropped_packets=ctr.dropped,
        lost=lost,
        repairs=tuple(applied),
    )
    result.fault_report = report
    return result, report
