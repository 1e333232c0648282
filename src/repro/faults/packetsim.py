"""The event-driven packet core, with a dynamic fault plane.

This is the only per-packet event engine in the package:
``PacketSimulator(engine="reference")`` is :func:`run_faulty` on an
empty :class:`FaultSchedule`, and the wave calendar of
:mod:`repro.sim.batch` demotes every element it cannot resolve
analytically straight to it.  The traffic model is the one documented
in :mod:`repro.sim.packet` -- MTU segmentation, cut-through forwarding,
input-queued FIFOs, credit flow control.  A cable missing from the
fabric (``port_peer < 0``) is a link that is down from t=0, so a packet
a stale table routes onto it is dropped like any other.  Faults add
four behaviours:

* **drop at transmit** -- a packet whose next link is down (or whose
  LFT entry is ``-1`` after a repair left the destination unreachable)
  is discarded where it stands; the head-of-line advances and the input
  buffer credit is released immediately, so drops never wedge a queue;
* **drop in flight** -- a packet on the wire when its link dies is
  lost; the downstream buffer slot it had reserved is released;
* **flaky loss** -- packets crossing a flaky cable are dropped at
  arrival with the window's probability, drawn from a generator seeded
  by ``(schedule seed, attempt, t0)`` in deterministic event order;
* **switch death** -- every queue inside the dead switch is purged
  (packets gone), all its cables go down, and parked senders re-resolve
  (and drop) instead of waiting forever.

A :class:`HealingController` swaps repaired tables in *live*: packets
already queued re-resolve their next hop, parked senders are woken, and
packets injected later follow the repaired routes.

A message with any dropped packet can never complete; the receiver
discards partial payloads (messages are all-or-nothing, as MPI-level
retransmission resends whole messages).  The run reports those losses
in a :class:`FaultRunReport` instead of raising -- silent data loss is
impossible by construction, loud diagnosis is the caller's job
(:class:`repro.mpi.DeliveryError`; a :class:`PacketSimulator` run
without a schedule raises :class:`SimulationError`).  ``t0`` offsets
the engine onto the global fault clock so a retry started at ``t0``
experiences exactly the faults scheduled for ``[t0, ...)``.

The loop is flat.  Its calendar is a heap of the distinct pending event
times plus, per time, a list of fixed-arity ``(handler, a, b)`` entries
in scheduling order, so events fire in ``(time, sequence)`` order with
float-only heap comparisons; the stop predicate is checked inline
before each event.  Per-port state is plain lists indexed by global
port, and forwarding reads Python rows of the live tables, reloaded on
every swap.  A packet-hop costs two events, its arrival and its
transmit completion: the completion fuses what were three equal-time
events with consecutive sequence numbers -- free the output, return
the input credit, serve the next head-of-line packet -- and checks the
stop predicate between its parts.  An event scheduled in the past
within float rounding (possible only with a negative calibration
latency) fires before the rest of the current time, as it would from
a single ``(time, sequence)`` heap.
"""

from __future__ import annotations

import bisect
import heapq
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..sim.calibration import link_capacities
from ..sim.events import SimulationError
from ..sim.packet import PacketEngineStats, PacketResult
from ..sim.records import RecordTable
from .controller import HealingController, RepairAction
from .schedule import FaultSchedule

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.packet import PacketSimulator

__all__ = ["FaultRunReport", "LostMessage", "run_faulty"]


@dataclass(frozen=True)
class LostMessage:
    """One message the fabric failed to deliver."""

    src: int
    dst: int
    seq: int        # position within the source port's sequence
    size: float
    dropped_packets: int
    reason: str


@dataclass(frozen=True)
class FaultRunReport:
    """Fault-plane outcome of one engine run (attached to the
    :class:`~repro.sim.packet.PacketResult` as ``fault_report``)."""

    t0: float                       # global time the run started at
    end: float                      # global time the last delivery landed
    total_messages: int             # real (routed) messages attempted
    delivered_messages: int
    delivered_bytes: float
    dropped_packets: int
    lost: tuple[LostMessage, ...]
    repairs: tuple[RepairAction, ...]  # table swaps applied mid-run

    def __post_init__(self) -> None:
        # summed off the record table, which stores sizes as floats
        object.__setattr__(self, "delivered_bytes",
                           float(self.delivered_bytes))

    @property
    def delivered_fraction(self) -> float:
        if self.total_messages == 0:
            return 1.0
        return self.delivered_messages / self.total_messages


class _Msg:
    __slots__ = ("src", "dst", "size", "start", "seq_idx", "inject",
                 "finish", "packets_left", "dropped", "reason")

    def __init__(self, src: int, dst: int, size: float, start: float,
                 seq_idx: int) -> None:
        self.src = src
        self.dst = dst
        self.size = size
        self.start = start
        self.seq_idx = seq_idx
        self.inject = -1.0
        self.finish = -1.0
        self.packets_left = 0
        self.dropped = 0
        self.reason = ""


class _Packet:
    __slots__ = ("msg", "dst", "size", "is_last", "ready")

    def __init__(self, msg: _Msg, dst: int, size: float,
                 is_last: bool) -> None:
        self.msg = msg
        self.dst = dst
        self.size = size
        self.is_last = is_last
        self.ready = 0.0


class _Counters:
    __slots__ = ("events", "dropped", "packets", "unresolved",
                 "pending_ports")

    def __init__(self) -> None:
        self.events = 0
        self.dropped = 0
        self.packets = 0
        self.unresolved = 0     # real messages not yet delivered or doomed
        self.pending_ports = 0  # ports still working through their sequence


def _past(when: float, now: float) -> None:
    """Raise unless ``when`` is ``now`` up to float rounding (the
    tolerance scales with the clock, as accumulated sums carry relative
    error)."""
    if when < now - 1e-9 * max(1.0, abs(now)):
        raise SimulationError(
            f"cannot schedule event in the past ({when} < now {now})")


def run_faulty(
    sim: "PacketSimulator",
    sequences: list[list[tuple[int, float]]],
    faults: FaultSchedule,
    controller: HealingController | None = None,
    t0: float = 0.0,
    attempt: int = 0,
) -> tuple[PacketResult, FaultRunReport]:
    """Run ``sequences`` under ``faults`` starting at global time ``t0``.

    Returns the :class:`PacketResult` (lost messages appear in
    ``messages`` with ``finish == -1``; latencies/makespan/bytes cover
    deliveries only) and the :class:`FaultRunReport`.  Engine-local
    time 0 corresponds to global time ``t0``.  On an empty schedule
    this is the reference run of ``sim``.
    """
    fab = sim.fabric
    N = fab.num_endports
    if len(sequences) != N:
        raise ValueError(f"need {N} sequences, got {len(sequences)}")
    P = fab.num_ports
    cal = sim.cal
    mtu = float(cal.mtu)
    wire = cal.wire_latency
    switch_latency = cal.switch_latency
    host_overhead = cal.host_overhead
    max_events = sim.max_events

    # The calendar: a heap of the distinct pending event times and, per
    # time, the list of its ``(handler, a, b)`` entries in scheduling
    # order.  A list position is a sequence number, so events fire in
    # ``(time, sequence)`` order.
    times: list[float] = []
    slots: dict[float, list] = {}
    push = heapq.heappush
    now = 0.0
    preempted = False  # a tolerated past event must fire before the rest
    resume: list = []  # unfinished parts of a preempted fused event

    # Per-port state, indexed by global port.  A cable the fabric lacks
    # is down for the whole run; an ejection port (or a missing cable)
    # never runs out of credits.
    port_peer = fab.port_peer.tolist()
    peer_node = fab.peer_node.tolist()
    port_start = fab.port_start.tolist()
    host_port = port_start[:N]  # single-rail up ports
    cap = link_capacities(fab, sim.cal).tolist()
    down = [gp < 0 for gp in port_peer]
    unlimited = 1 << 62
    if sim.credit_limit is None:
        credits = [unlimited] * P
    else:
        credits = [unlimited if node < N else sim.credit_limit
                   for node in peer_node]
    occupancy = [0] * P
    out_busy = [0.0] * P
    # Deques (or None until first used) of queued packets and of
    # parked senders; the active loss probability of flaky links.
    in_queue: list = [None] * P
    out_wait: list = [None] * P
    credit_wait: list = [None] * P
    flaky: list = [None] * P
    rng = np.random.default_rng(np.random.SeedSequence(
        [faults.seed & 0xFFFFFFFF, int(attempt),
         abs(int(round(t0 * 1e3))) & 0xFFFFFFFFFFFF]))

    # Forwarding rows indexed by node: rows[node][dst] is the out-port
    # of switch ``node`` toward ``dst``.  Entries share one int object
    # per port (rows of fresh ints scatter over memory at n1944).
    # Swaps reload them in place.
    port_ids = list(range(-1, P))

    def load_rows(tables) -> list:
        return [tuple(map(port_ids.__getitem__, row))
                for row in (tables.switch_out + 1).tolist()]

    rows: list = [None] * N + load_rows(
        controller.tables_at(t0) if controller is not None else sim.tables)

    host_pkts: list[deque] = [deque() for _ in range(N)]
    host_free = [0.0] * N
    seq_pos = [0] * N
    messages: list[_Msg] = []
    applied: list[RepairAction] = []
    ctr = _Counters()

    def segment(size: float) -> list[float]:
        full, rest = divmod(size, cal.mtu)
        sizes = [mtu] * int(full)
        if rest > 1e-12 or not sizes:
            sizes.append(float(rest) if rest > 1e-12 else float(size))
        return sizes

    def at(when: float, fn, a, b=None) -> None:
        """Schedule ``fn(a, b)`` at ``when``."""
        nonlocal preempted
        if when < now:
            _past(when, now)
            preempted = True
        slot = slots.get(when)
        if slot is None:
            slots[when] = [(fn, a, b)]
            push(times, when)
        else:
            slot.append((fn, a, b))

    def drop_packet(pkt: _Packet, reason: str) -> None:
        ctr.dropped += 1
        msg = pkt.msg
        if msg.dropped == 0:
            msg.reason = reason
            if msg.finish < 0:
                ctr.unresolved -= 1   # doomed: can never complete
        msg.dropped += 1

    def park(waits: list, gp: int, sender: int) -> None:
        dq = waits[gp]
        if dq is None:
            dq = waits[gp] = deque()
        dq.append(sender)

    # A sender is an input port ``in_gp`` (the head of the queue behind
    # it, inside switch ``peer_node[in_gp]``) or ``~p`` for host ``p``.

    # -- fault plane ------------------------------------------------------
    def wake_parked(gp: int) -> None:
        """Re-dispatch every sender parked on link ``gp`` (output-busy
        or credit wait): the link state or tables changed under them."""
        for waits in (out_wait, credit_wait):
            dq = waits[gp]
            if dq:
                waits[gp] = None
                for sender in dq:
                    at(now, request_output, sender)

    def set_link_down(gpa: int, gpb: int) -> None:
        down[gpa] = True
        down[gpb] = True
        wake_parked(gpa)
        wake_parked(gpb)

    def set_link_up(gpa: int, gpb: int) -> None:
        down[gpa] = False
        down[gpb] = False

    def kill_switch(node: int, _) -> None:
        # Purge the dead switch's input buffers: queues live behind the
        # *sending* gport of each cable into the node.
        for gp_out in range(port_start[node], port_start[node + 1]):
            in_gp = port_peer[gp_out]
            if in_gp < 0:
                continue
            queue = in_queue[in_gp]
            if queue:
                while queue:
                    drop_packet(queue.popleft(), "switch died")
                occupancy[in_gp] = 0
            wake_parked(in_gp)
            wake_parked(gp_out)

    def flaky_on(pair: tuple[int, int], loss: float) -> None:
        flaky[pair[0]] = loss
        flaky[pair[1]] = loss

    def flaky_off(gpa: int, gpb: int) -> None:
        flaky[gpa] = None
        flaky[gpb] = None

    def apply_repair(i: int, _) -> None:
        swapped, action = controller.swap(i)
        rows[N:] = load_rows(swapped)
        applied.append(action)
        # Every parked sender may have a different next hop now.
        for gp in range(P):
            if out_wait[gp] or credit_wait[gp]:
                wake_parked(gp)

    # -- host side --------------------------------------------------------
    def host_start_message(p: int, _) -> None:
        seq = sequences[p]
        i = seq_pos[p]
        if i >= len(seq):
            ctr.pending_ports -= 1
            return
        dst, size = seq[i]
        msg = _Msg(p, dst, size, now, i)
        seq_pos[p] = i + 1
        t_start = max(now, host_free[p]) + host_overhead
        messages.append(msg)
        host_free[p] = t_start
        if dst == p or size <= 0:
            msg.inject = t_start
            msg.finish = t_start
            at(t_start, host_start_message, p)
            return
        ctr.unresolved += 1
        dst = int(dst)
        pkts = host_pkts[p]
        if size <= mtu:
            msg.packets_left = 1
            ctr.packets += 1
            pkts.append(_Packet(msg, dst, float(size), True))
        else:
            pieces = segment(size)
            msg.packets_left = len(pieces)
            ctr.packets += len(pieces)
            for psize in pieces:
                pkts.append(_Packet(msg, dst, psize, False))
            pkts[-1].is_last = True
        at(t_start, host_try_send, p)

    def host_try_send(p: int, _) -> None:
        pkts = host_pkts[p]
        if not pkts:
            return
        gp = host_port[p]
        free = host_free[p]
        if now < free - 1e-12:
            at(free, host_try_send, p)
            return
        if down[gp]:
            # The NIC sees its link dead and discards instantly; the
            # send chain advances so later (possibly post-repair...
            # the uplink itself never repairs) messages are attempted.
            pkt = pkts.popleft()
            msg = pkt.msg
            if msg.inject < 0:
                msg.inject = now
            drop_packet(pkt, "host uplink down")
            if pkts:
                at(now, host_try_send, p)
            elif pkt.is_last:
                at(now, host_start_message, p)
            return
        if occupancy[gp] >= credits[gp]:
            park(credit_wait, gp, ~p)
            return
        pkt = pkts.popleft()
        msg = pkt.msg
        if msg.inject < 0:
            msg.inject = now
        occupancy[gp] += 1
        at(now + wire, arrive, gp, pkt)
        free = host_free[p] = now + pkt.size / cap[gp]
        if pkts:
            at(free, host_try_send, p)
        elif pkt.is_last:
            at(free, host_start_message, p)

    # -- switch side ------------------------------------------------------
    def arrive(send_gp: int, pkt: _Packet) -> None:
        ctr.events += 1
        if ctr.events > max_events:
            raise SimulationError("packet event budget exhausted")
        if down[send_gp]:
            drop_packet(pkt, "link cut in flight")
            release_credit(send_gp)
            return
        loss = flaky[send_gp]
        if loss is not None and rng.random() < loss:
            drop_packet(pkt, "flaky loss")
            release_credit(send_gp)
            return
        if peer_node[send_gp] < N:
            at(now + pkt.size / cap[send_gp], deliver, pkt)
            return
        pkt.ready = now + switch_latency
        queue = in_queue[send_gp]
        if queue is None:
            queue = in_queue[send_gp] = deque()
        queue.append(pkt)
        if len(queue) == 1:
            request_output(send_gp)

    def deliver(pkt: _Packet, _) -> None:
        msg = pkt.msg
        msg.packets_left -= 1
        if msg.packets_left == 0 and msg.dropped == 0:
            msg.finish = now
            ctr.unresolved -= 1

    def request_output(sender: int, _=None) -> None:
        if sender < 0:
            host_try_send(~sender, None)
            return
        queue = in_queue[sender]
        if not queue:
            return
        pkt = queue[0]
        out = rows[peer_node[sender]][pkt.dst]
        if out < 0 or down[out]:
            # NACK: unroutable (repair declared the destination lost)
            # or next link dead.  Discard, free the buffer slot now,
            # keep the queue moving.
            queue.popleft()
            drop_packet(pkt, "no route" if out < 0 else "link down")
            release_credit(sender)
            if queue:
                at(now, request_output, sender)
            return
        if out_busy[out] > now + 1e-12:
            park(out_wait, out, sender)
        elif occupancy[out] >= credits[out]:
            park(credit_wait, out, sender)
        else:
            transmit(sender, out, pkt)

    def transmit(in_gp: int, out: int, pkt: _Packet) -> None:
        queue = in_queue[in_gp]
        queue.popleft()
        start = max(now, pkt.ready)
        end = out_busy[out] = start + pkt.size / cap[out]
        occupancy[out] += 1
        at(start + wire, arrive, out, pkt)
        at(end, tx_done_next if queue else tx_done, out, in_gp)

    def output_free(out: int) -> None:
        waiting = out_wait[out]
        while waiting:
            sender = waiting.popleft()
            queue = in_queue[sender]
            if not queue:
                continue
            pkt = queue[0]
            o = rows[peer_node[sender]][pkt.dst]
            if o != out or o < 0 or down[out]:
                # Tables swapped or the link died while parked:
                # re-resolve from scratch (may drop or re-route).
                at(now, request_output, sender)
                continue
            if occupancy[out] < credits[out]:
                transmit(sender, out, pkt)
                return
            park(credit_wait, out, sender)

    def release_credit(send_gp: int, _=None) -> None:
        occupancy[send_gp] -= 1
        waiting = credit_wait[send_gp]
        if waiting:
            request_output(waiting.popleft())

    # A transmit's completion: free the output, return the input
    # credit and, if packets were queued behind the one sent, serve
    # the next.  These were three equal-time events with consecutive
    # sequence numbers.  After each part that ran a handler (a part
    # that did nothing changes nothing) the stop predicate is checked,
    # and if the part scheduled a tolerated past event, the remaining
    # parts resume after it, as separate events would have.
    def tx_done(out: int, in_gp: int) -> None:
        if out_wait[out]:
            output_free(out)
            if ctr.unresolved == 0 and ctr.pending_ports == 0:
                return
            if preempted:
                resume.append((release_credit, in_gp, None))
                return
        release_credit(in_gp)

    def tx_done_next(out: int, in_gp: int) -> None:
        if out_wait[out]:
            output_free(out)
            if ctr.unresolved == 0 and ctr.pending_ports == 0:
                return
            if preempted:
                resume.append((release_credit, in_gp, None))
                resume.append((request_output, in_gp, None))
                return
        occupancy[in_gp] -= 1
        waiting = credit_wait[in_gp]
        if waiting:
            request_output(waiting.popleft())
            if ctr.unresolved == 0 and ctr.pending_ports == 0:
                return
            if preempted:
                resume.append((request_output, in_gp, None))
                return
        request_output(in_gp)

    # -- schedule the fault plane (engine-local time = global - t0) -------
    for a, b, start, end in faults.down_intervals(fab):
        if end <= t0:
            continue
        if start <= t0:
            down[a] = True
            down[b] = True
        else:
            at(start - t0, set_link_down, a, b)
        if np.isfinite(end):
            at(end - t0, set_link_up, a, b)
    for e in faults.topology_events():
        if e.kind == "switch_down" and e.time > t0:
            at(e.time - t0, kill_switch, e.node)
    for a, b, start, end, loss in faults.flaky_intervals(fab):
        if end <= t0:
            continue
        if start <= t0:
            flaky[a] = loss
            flaky[b] = loss
        else:
            at(start - t0, flaky_on, (a, b), loss)
        if np.isfinite(end):
            at(end - t0, flaky_off, a, b)
    if controller is not None:
        # Swaps are scheduled by index: a sweep's repair is computed
        # only if the run is still going when it fires.
        sweeps = controller.sweep_times
        for i in range(bisect.bisect_right(sweeps, t0), len(sweeps)):
            at(sweeps[i] - t0, apply_repair, i)

    for p in range(N):
        if sequences[p]:
            ctr.pending_ports += 1
            at(0.0, host_start_message, p)

    # Stop as soon as all traffic is resolved; pending fault/repair
    # bookkeeping beyond that point cannot change the outcome.  In-flight
    # remnants of doomed messages only matter while an undecided message
    # could still queue behind them -- and then unresolved > 0.
    pop = heapq.heappop
    while times:
        now = pop(times)
        slot = slots[now]
        entries = iter(slot)  # grows while it is drained
        for fn, a, b in entries:
            if ctr.unresolved == 0 and ctr.pending_ports == 0:
                times.clear()
                break
            fn(a, b)
            if preempted:
                # Requeue the rest of this time behind the past event.
                preempted = False
                slots[now] = resume + list(entries)
                resume.clear()
                push(times, now)
                break
        else:
            del slots[now]

    stuck = [m for m in messages if m.finish < 0 and m.dropped == 0
             and not (m.dst == m.src or m.size <= 0)]
    if stuck:
        raise SimulationError(
            f"{len(stuck)} messages neither delivered nor dropped "
            "(deadlock in the event core)")

    messages.sort(key=lambda m: (m.src, m.seq_idx))
    table = RecordTable.from_rows([
        (m.src, m.dst, m.size, m.start, m.inject, m.finish)
        for m in messages])
    delivered = table.real & table.done
    lost = tuple(
        LostMessage(src=m.src, dst=m.dst, seq=m.seq_idx, size=m.size,
                    dropped_packets=m.dropped, reason=m.reason)
        for m, gone in zip(messages, (table.real & ~table.done).tolist())
        if gone)
    num_real = int(table.real.sum())
    result = PacketResult(
        records=table, num_ports=N, calibration=cal,
        engine_stats=PacketEngineStats(
            engine="reference", fast_path=False, fallback=False,
            conflicts=0, messages=num_real, packets=ctr.packets,
            events_saved=0))
    report = FaultRunReport(
        t0=t0, end=t0 + result.makespan,
        total_messages=num_real,
        delivered_messages=int(delivered.sum()),
        delivered_bytes=sum(table.size[delivered].tolist()),
        dropped_packets=ctr.dropped,
        lost=lost,
        repairs=tuple(applied),
    )
    result.fault_report = report
    return result, report
