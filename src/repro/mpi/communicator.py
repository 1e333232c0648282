"""A miniature MPI communicator over the simulated fabric.

Everything below ties the library together into the API an application
programmer would recognise: a :class:`Communicator` owns a rank
placement on a routed fabric and executes collectives *with real
data* -- each stage moves actual NumPy buffers between rank states --
while the fluid simulator prices the same stages on the network, so
every call returns both the numerically-correct result and the
simulated completion time.

Executors implement the classic algorithms surveyed in Table 1:

=============  =======================================================
collective     algorithms
=============  =======================================================
broadcast      ``binomial`` (small), ``scatter-allgather`` (large)
allgather      ``recursive-doubling`` (pow2), ``ring``, ``bruck``
allreduce      ``recursive-doubling`` (small), ``rabenseifner`` (large)
reduce         ``binomial`` (small), ``rabenseifner`` (large)
alltoall       ``pairwise`` (the displacement exchange)
barrier        ``dissemination``
=============  =======================================================

The data semantics follow the real implementations (chunks for the
scatter/allgather composites, halving/doubling for Rabenseifner); the
test suite checks each result against the NumPy one-liner it should
equal, for power-of-two and odd rank counts alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..collectives.nonpow2 import pow2_floor
from ..fabric.lft import ForwardingTables
from ..ordering.orders import topology_order
from ..sim.calibration import LinkCalibration, QDR_PCIE_GEN2
from ..sim.fluid import FluidSimulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.controller import HealingController, RepairAction
    from ..faults.schedule import FaultSchedule

__all__ = [
    "Communicator",
    "CollectiveResult",
    "DeliveryError",
    "FaultMetrics",
    "RetryPolicy",
]


@dataclass(frozen=True)
class RetryPolicy:
    """At-least-once delivery knobs for a faulty fabric.

    A sender that has not seen the ack for a message after
    ``ack_timeout`` microseconds retransmits it, waiting
    ``ack_timeout * backoff**k`` (plus seeded uniform jitter up to
    ``jitter`` of that value) before retry ``k``.  After
    ``max_retries`` retransmissions the message is declared
    undeliverable and the collective raises :class:`DeliveryError`.
    """

    max_retries: int = 8
    ack_timeout: float = 50.0     # us before a send is presumed lost
    backoff: float = 2.0          # exponential base between attempts
    jitter: float = 0.25          # fraction of the delay randomised
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.ack_timeout <= 0:
            raise ValueError("ack_timeout must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        """Wait before retransmission number ``attempt`` (1-based)."""
        base = self.ack_timeout * self.backoff ** (attempt - 1)
        return base * (1.0 + self.jitter * float(rng.random()))


@dataclass(frozen=True)
class FaultMetrics:
    """What a collective endured on a faulty fabric.

    Attached to the communicator as ``last_faults`` after every
    collective priced under a fault schedule, and carried by
    :class:`DeliveryError` when delivery ultimately failed.
    """

    messages: int                 # unique fabric messages the schedule sent
    delivered: int                # of those, eventually acknowledged
    retransmissions: int          # extra send attempts beyond the first
    retry_rounds: int             # stages-with-retry iterations
    dropped_packets: int          # packets the fabric destroyed
    repairs: tuple["RepairAction", ...]
    time_us: float                # clock when the collective finished/gave up

    @property
    def delivered_fraction(self) -> float:
        return self.delivered / self.messages if self.messages else 1.0

    @property
    def recovery_latency(self) -> float:
        """Worst failure-to-repair latency observed (0 when no repairs)."""
        return max((r.recovery_latency for r in self.repairs), default=0.0)


class DeliveryError(RuntimeError):
    """A collective could not deliver every message.

    Raised only after the retry budget is exhausted; ``lost`` names the
    exact undeliverable ``(src_port, dst_port, stage)`` triples and
    ``metrics`` is the :class:`FaultMetrics` of the failed attempt, so
    there is never silent data loss.
    """

    def __init__(self, lost: tuple[tuple[int, int, int], ...],
                 metrics: FaultMetrics):
        self.lost = lost
        self.metrics = metrics
        head = ", ".join(f"({s}->{d} @stage {k})" for s, d, k in lost[:4])
        more = f" and {len(lost) - 4} more" if len(lost) > 4 else ""
        super().__init__(
            f"{len(lost)} undeliverable message(s) after retries: "
            f"{head}{more}")


@dataclass
class CollectiveResult:
    """Outcome of one collective call."""

    name: str
    algorithm: str
    values: list[np.ndarray] | None   # per-rank result (None for barrier)
    time_us: float
    num_stages: int
    bytes_on_wire: float

    def __repr__(self) -> str:
        return (f"CollectiveResult({self.name}/{self.algorithm}, "
                f"{self.num_stages} stages, {self.time_us:.2f} us)")


class _StageLedger:
    """Collects the (src_port, dst_port, bytes) messages of each stage
    for pricing by the fluid simulator."""

    def __init__(self, placement: np.ndarray):
        self.placement = placement
        self.stages: list[list[tuple[int, int, float]]] = []
        self._cur: list[tuple[int, int, float]] | None = None

    def begin(self) -> None:
        self._cur = []

    def send(self, src_rank: int, dst_rank: int, nbytes: float) -> None:
        if src_rank == dst_rank or nbytes <= 0:
            return
        self._cur.append((int(self.placement[src_rank]),
                          int(self.placement[dst_rank]), float(nbytes)))

    def commit(self) -> None:
        self.stages.append(self._cur)
        self._cur = None

    @property
    def total_bytes(self) -> float:
        return sum(b for st in self.stages for _, _, b in st)


class Communicator:
    """MPI-style collectives for ``len(placement)`` ranks."""

    def __init__(
        self,
        tables: ForwardingTables,
        placement: np.ndarray | None = None,
        calibration: LinkCalibration = QDR_PCIE_GEN2,
        simulate: bool = True,
        faults: "FaultSchedule | None" = None,
        retry: RetryPolicy | None = None,
        sweep_delay: float | None = None,
    ):
        self.tables = tables
        self.cal = calibration
        self.simulate = simulate
        N = tables.fabric.num_endports
        self.placement = (np.asarray(placement, dtype=np.int64)
                          if placement is not None else topology_order(N))
        if len(np.unique(self.placement)) != len(self.placement):
            raise ValueError("placement maps two ranks to one end-port")
        self.size = len(self.placement)
        if self.size < 1:
            raise ValueError("communicator needs at least one rank")
        if retry is not None and faults is None:
            raise ValueError("retry policy given without a fault schedule")
        if sweep_delay is not None and faults is None:
            raise ValueError("sweep_delay given without a fault schedule")
        self.faults = faults
        self.retry = retry if retry is not None else RetryPolicy()
        self.healing: "HealingController | None" = None
        if faults is not None and sweep_delay is not None:
            from ..faults.controller import HealingController

            self.healing = HealingController(
                tables, faults, sweep_delay=sweep_delay)
        # FaultMetrics of the most recent collective priced under a
        # fault schedule (None before any, or when faults is None).
        self.last_faults: FaultMetrics | None = None
        # Stage ledger of the most recent priced collective, kept so
        # batched frontends can replay the exact (src, dst, nbytes)
        # stages without re-deriving the algorithm's schedule.
        self.last_stages: list[list[tuple[int, int, float]]] | None = None

    # ------------------------------------------------------------------
    def _price(self, ledger: _StageLedger) -> float:
        """Simulated time of the staged schedule (barrier-synchronous,
        matching blocking MPI collectives)."""
        self.last_stages = [list(stage) for stage in ledger.stages]
        if not self.simulate:
            return 0.0
        if self.faults is not None:
            return self._price_faulty(ledger)
        N = self.tables.fabric.num_endports
        # Per-stage aligned sequences: idle ports carry a zero-byte
        # self-message so barrier positions line up across ports.
        # (A rank sending twice in one stage -- never the case for the
        # implemented algorithms -- would be folded into one message.)
        seqs: list[list[tuple[int, float]]] = [[] for _ in range(N)]
        for stage in ledger.stages:
            senders: dict[int, tuple[int, float]] = {}
            for src, dst, nbytes in stage:
                if src in senders:
                    prev = senders[src]
                    senders[src] = (prev[0], prev[1] + nbytes)
                else:
                    senders[src] = (dst, nbytes)
            for p in range(N):
                seqs[p].append(senders.get(p, (p, 0.0)))
        res = FluidSimulator(self.tables, self.cal).run_sequences(
            seqs, mode="barrier")
        return res.makespan

    def _price_faulty(self, ledger: _StageLedger) -> float:
        """Stage-by-stage packet pricing under the fault schedule with
        at-least-once delivery.

        Each stage's messages run through the fault-honoring reference
        packet engine at the current clock; messages the fabric lost are
        retransmitted after a seeded exponential-backoff delay until
        they land or the retry budget runs out, in which case
        :class:`DeliveryError` names the exact lost triples.  Sets
        ``self.last_faults`` either way.
        """
        from ..faults.packetsim import run_faulty
        from ..sim.packet import PacketSimulator

        assert self.faults is not None
        N = self.tables.fabric.num_endports
        sim = PacketSimulator(self.tables, self.cal, engine="reference")
        mask = 0xFFFFFFFF
        rng = np.random.default_rng(np.random.SeedSequence(
            [self.retry.seed & mask, self.faults.seed & mask]))
        clock = 0.0
        total = delivered = retrans = rounds = dropped = 0
        repairs: dict[float, "RepairAction"] = {}
        failed: list[tuple[int, int, int]] = []
        attempt_no = 0  # global attempt counter: unique rng stream per run

        for stage_idx, stage in enumerate(ledger.stages):
            # Fold multi-sends (never produced by the implemented
            # algorithms) the same way the fluid pricer does.
            pending: dict[int, tuple[int, float]] = {}
            for src, dst, nbytes in stage:
                if src == dst or nbytes <= 0:
                    continue
                if src in pending:
                    prev = pending[src]
                    pending[src] = (prev[0], prev[1] + nbytes)
                else:
                    pending[src] = (dst, nbytes)
            total += len(pending)
            if not pending:
                clock += self.cal.host_overhead  # empty (barrier) stage
                continue

            retry_k = 0
            while True:
                seqs: list[list[tuple[int, float]]] = [[] for _ in range(N)]
                for src in sorted(pending):
                    seqs[src].append(pending[src])
                _, rep = run_faulty(
                    sim, seqs, self.faults, self.healing,
                    t0=clock, attempt=attempt_no)
                attempt_no += 1
                dropped += rep.dropped_packets
                for act in rep.repairs:
                    repairs[act.sweep_time] = act
                clock = max(clock, rep.end)
                lost_now = {(lm.src, lm.dst) for lm in rep.lost}
                for src in sorted(pending):
                    if (src, pending[src][0]) not in lost_now:
                        del pending[src]
                        delivered += 1
                if not pending:
                    break
                if retry_k >= self.retry.max_retries:
                    failed.extend((src, pending[src][0], stage_idx)
                                  for src in sorted(pending))
                    break
                retry_k += 1
                rounds += 1
                retrans += len(pending)
                # The sender notices the loss at the ack timeout, then
                # backs off before retransmitting.
                clock += self.retry.delay(retry_k, rng)
            if failed:
                break  # terminal: later stages depend on this one

        # Repairs that landed between stage runs (or before the first
        # message even flew) never execute inside a run's event window,
        # so fold in every controller action up to the final clock.
        if self.healing is not None:
            for act in self.healing.actions_until(clock):
                repairs[act.sweep_time] = act
        metrics = FaultMetrics(
            messages=total,
            delivered=delivered,
            retransmissions=retrans,
            retry_rounds=rounds,
            dropped_packets=dropped,
            repairs=tuple(repairs[t] for t in sorted(repairs)),
            time_us=clock,
        )
        self.last_faults = metrics
        if failed:
            raise DeliveryError(tuple(failed), metrics)
        return clock

    @staticmethod
    def _as_arrays(data) -> list[np.ndarray]:
        return [np.atleast_1d(np.asarray(d, dtype=np.float64)) for d in data]

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range 0..{self.size - 1}")

    # ------------------------------------------------------------------
    # broadcast
    # ------------------------------------------------------------------
    def broadcast(self, data: np.ndarray, root: int = 0,
                  algorithm: str = "binomial") -> CollectiveResult:
        """Every rank receives ``data`` (held by ``root``)."""
        self._check_rank(root)
        buf = np.atleast_1d(np.asarray(data, dtype=np.float64))
        n = self.size
        ledger = _StageLedger(self.placement)

        if algorithm == "binomial":
            have = {root}
            values: list = [None] * n
            values[root] = buf.copy()
            # Relative binomial tree rooted at `root`.
            for s in range(max(1, math.ceil(math.log2(n))) if n > 1 else 0):
                ledger.begin()
                new = set()
                for i in list(have):
                    rel = (i - root) % n
                    if rel < (1 << s):
                        partner_rel = rel + (1 << s)
                        if partner_rel < n:
                            j = (root + partner_rel) % n
                            ledger.send(i, j, buf.nbytes)
                            values[j] = buf.copy()
                            new.add(j)
                have |= new
                ledger.commit()
        elif algorithm == "scatter-allgather":
            values = self._bcast_scatter_allgather(buf, root, ledger)
        else:
            raise ValueError(f"unknown broadcast algorithm {algorithm!r}")

        return CollectiveResult(
            name="broadcast", algorithm=algorithm, values=values,
            time_us=self._price(ledger), num_stages=len(ledger.stages),
            bytes_on_wire=ledger.total_bytes,
        )

    def _bcast_scatter_allgather(self, buf, root, ledger):
        n = self.size
        chunks = np.array_split(buf, n)
        # Binomial scatter of chunk ranges (relative to root).
        owned: list[set[int]] = [set() for _ in range(n)]
        owned[root] = set(range(n))
        levels = max(1, math.ceil(math.log2(n))) if n > 1 else 0
        for s in reversed(range(levels)):
            ledger.begin()
            for i in range(n):
                rel = (i - root) % n
                if rel % (1 << (s + 1)) == 0 and owned[i]:
                    partner_rel = rel + (1 << s)
                    if partner_rel < n:
                        j = (root + partner_rel) % n
                        give = {c for c in owned[i]
                                if (c - root) % n >= partner_rel}
                        if give:
                            nbytes = sum(chunks[c].nbytes for c in give)
                            ledger.send(i, j, nbytes)
                            owned[j] |= give
                            owned[i] -= give
            ledger.commit()
        # Ring allgather of the chunk ranges: each round every rank
        # forwards the range it received in the previous round.
        carry = [set(owned[i]) for i in range(n)]
        for _ in range(n - 1):
            ledger.begin()
            received: list[set] = [set()] * n
            for i in range(n):
                j = (i + 1) % n
                nbytes = sum(chunks[c].nbytes for c in carry[i])
                ledger.send(i, j, nbytes)
                received[j] = set(carry[i])
            for j in range(n):
                owned[j] |= received[j]
            carry = received
            ledger.commit()
        if not all(len(o) == n for o in owned):
            raise RuntimeError("allgather ring failed to cover all ranks")
        values = [np.concatenate([chunks[c] for c in range(n)])
                  for _ in range(n)]
        return values

    # ------------------------------------------------------------------
    # allgather
    # ------------------------------------------------------------------
    def allgather(self, data, algorithm: str = "auto") -> CollectiveResult:
        """Every rank ends with the concatenation of all contributions."""
        bufs = self._as_arrays(data)
        if len(bufs) != self.size:
            raise ValueError(f"need one buffer per rank ({self.size})")
        n = self.size
        if algorithm == "auto":
            algorithm = ("recursive-doubling" if n & (n - 1) == 0
                         else "ring")
        ledger = _StageLedger(self.placement)
        state: list[dict[int, np.ndarray]] = [{i: bufs[i]} for i in range(n)]

        if algorithm == "ring":
            # Each round every rank forwards the block it received in
            # the previous round (its own block in round one).
            carry = [{i: bufs[i]} for i in range(n)]
            for _ in range(n - 1):
                ledger.begin()
                received: list[dict] = [None] * n
                for i in range(n):
                    j = (i + 1) % n
                    nbytes = sum(carry[i][k].nbytes for k in sorted(carry[i]))
                    ledger.send(i, j, nbytes)
                    received[j] = dict(carry[i])
                for j in range(n):
                    state[j].update(received[j])
                carry = received
                ledger.commit()
        elif algorithm == "recursive-doubling":
            if n & (n - 1):
                raise ValueError("recursive-doubling allgather needs pow2")
            for s in range(int(math.log2(n))):
                ledger.begin()
                snapshot = [dict(st) for st in state]
                for i in range(n):
                    j = i ^ (1 << s)
                    nbytes = sum(snapshot[i][k].nbytes for k in sorted(snapshot[i]))
                    ledger.send(i, j, nbytes)
                    state[j].update(snapshot[i])
                ledger.commit()
        elif algorithm == "bruck":
            s = 0
            while (1 << s) < n:
                ledger.begin()
                snapshot = [dict(st) for st in state]
                for i in range(n):
                    j = (i + (1 << s)) % n
                    nbytes = sum(snapshot[i][k].nbytes for k in sorted(snapshot[i]))
                    ledger.send(i, j, nbytes)
                    state[j].update(snapshot[i])
                ledger.commit()
                s += 1
        else:
            raise ValueError(f"unknown allgather algorithm {algorithm!r}")

        values = [np.concatenate([st[k] for k in range(n)]) for st in state]
        return CollectiveResult(
            name="allgather", algorithm=algorithm, values=values,
            time_us=self._price(ledger), num_stages=len(ledger.stages),
            bytes_on_wire=ledger.total_bytes,
        )

    # ------------------------------------------------------------------
    # allreduce / reduce
    # ------------------------------------------------------------------
    def allreduce(self, data, op=np.add, algorithm: str = "auto"
                  ) -> CollectiveResult:
        """Element-wise reduction of all contributions, result everywhere."""
        bufs = self._as_arrays(data)
        if len(bufs) != self.size:
            raise ValueError(f"need one buffer per rank ({self.size})")
        n = self.size
        if algorithm == "auto":
            algorithm = ("rabenseifner"
                         if bufs[0].nbytes >= 4096 and n >= 4
                         else "recursive-doubling")
        ledger = _StageLedger(self.placement)

        if algorithm == "recursive-doubling":
            values = self._allreduce_rd(bufs, op, ledger)
        elif algorithm == "rabenseifner":
            values = self._allreduce_rabenseifner(bufs, op, ledger)
        else:
            raise ValueError(f"unknown allreduce algorithm {algorithm!r}")
        return CollectiveResult(
            name="allreduce", algorithm=algorithm, values=values,
            time_us=self._price(ledger), num_stages=len(ledger.stages),
            bytes_on_wire=ledger.total_bytes,
        )

    def _allreduce_rd(self, bufs, op, ledger):
        n = self.size
        p2 = pow2_floor(n)
        acc = [b.copy() for b in bufs]
        # pre: fold the remainder onto proxies.
        if p2 != n:
            ledger.begin()
            for i in range(n - p2):
                ledger.send(p2 + i, i, acc[p2 + i].nbytes)
                acc[i] = op(acc[i], acc[p2 + i])
            ledger.commit()
        for s in range(int(math.log2(p2))) if p2 > 1 else []:
            ledger.begin()
            snapshot = [a.copy() for a in acc[:p2]]
            for i in range(p2):
                j = i ^ (1 << s)
                ledger.send(i, j, snapshot[i].nbytes)
            for i in range(p2):
                acc[i] = op(acc[i], snapshot[i ^ (1 << s)])
            ledger.commit()
        if p2 != n:
            ledger.begin()
            for i in range(n - p2):
                ledger.send(i, p2 + i, acc[i].nbytes)
                acc[p2 + i] = acc[i].copy()
            ledger.commit()
        return acc

    def _allreduce_rabenseifner(self, bufs, op, ledger):
        n = self.size
        p2 = pow2_floor(n)
        acc = [b.copy() for b in bufs]
        if p2 != n:
            ledger.begin()
            for i in range(n - p2):
                ledger.send(p2 + i, i, acc[p2 + i].nbytes)
                acc[i] = op(acc[i], acc[p2 + i])
            ledger.commit()
        # Reduce-scatter by recursive halving over chunks.
        chunks = [np.array_split(acc[i], p2) for i in range(p2)]
        own = [set(range(p2)) for _ in range(p2)]
        levels = int(math.log2(p2)) if p2 > 1 else 0
        for s in reversed(range(levels)):
            ledger.begin()
            snapshot = [[c.copy() for c in chunks[i]] for i in range(p2)]
            for i in range(p2):
                j = i ^ (1 << s)
                keep = {c for c in own[i] if ((c >> s) & 1) == ((i >> s) & 1)}
                give = own[i] - keep
                nbytes = sum(snapshot[i][c].nbytes for c in give)
                ledger.send(i, j, nbytes)
                own[i] = keep
            for i in range(p2):
                j = i ^ (1 << s)
                for c in own[i]:
                    chunks[i][c] = op(chunks[i][c], snapshot[j][c])
            ledger.commit()
        # Allgather by recursive doubling.
        for s in range(levels):
            ledger.begin()
            snapshot = [[c.copy() for c in chunks[i]] for i in range(p2)]
            osnap = [set(o) for o in own]
            for i in range(p2):
                j = i ^ (1 << s)
                nbytes = sum(snapshot[i][c].nbytes for c in osnap[i])
                ledger.send(i, j, nbytes)
            for i in range(p2):
                j = i ^ (1 << s)
                for c in osnap[j]:
                    chunks[i][c] = snapshot[j][c]
                own[i] |= osnap[j]
            ledger.commit()
        result = [np.concatenate(chunks[i]) for i in range(p2)]
        acc = list(result) + acc[p2:]
        if p2 != n:
            ledger.begin()
            for i in range(n - p2):
                ledger.send(i, p2 + i, acc[i].nbytes)
                acc[p2 + i] = acc[i].copy()
            ledger.commit()
        return acc

    def reduce(self, data, root: int = 0, op=np.add) -> CollectiveResult:
        """Reduction to ``root`` by a (relative) binomial gather tree."""
        self._check_rank(root)
        bufs = self._as_arrays(data)
        if len(bufs) != self.size:
            raise ValueError(f"need one buffer per rank ({self.size})")
        n = self.size
        ledger = _StageLedger(self.placement)
        acc = {i: bufs[i].copy() for i in range(n)}
        levels = max(1, math.ceil(math.log2(n))) if n > 1 else 0
        for s in range(levels):
            ledger.begin()
            merged = []
            for i in range(n):
                rel = (i - root) % n
                if rel % (1 << (s + 1)) == (1 << s) and i in acc:
                    j = (root + rel - (1 << s)) % n
                    ledger.send(i, j, acc[i].nbytes)
                    merged.append((i, j))
            for i, j in merged:
                acc[j] = op(acc[j], acc.pop(i))
            ledger.commit()
        values = [acc[root] if r == root else None for r in range(n)]
        return CollectiveResult(
            name="reduce", algorithm="binomial", values=values,
            time_us=self._price(ledger), num_stages=len(ledger.stages),
            bytes_on_wire=ledger.total_bytes,
        )

    # ------------------------------------------------------------------
    # scatter / gather / scan
    # ------------------------------------------------------------------
    def scatter(self, data, root: int = 0) -> CollectiveResult:
        """Root distributes ``data[r]`` to each rank ``r`` down a
        (relative) binomial tree, halving the payload per level."""
        self._check_rank(root)
        bufs = self._as_arrays(data)
        n = self.size
        if len(bufs) != n:
            raise ValueError(f"need one buffer per rank ({n})")
        ledger = _StageLedger(self.placement)
        # holder of each chunk starts at root; ranges split binomially.
        owned: list[set[int]] = [set() for _ in range(n)]
        owned[root] = set(range(n))
        levels = max(1, math.ceil(math.log2(n))) if n > 1 else 0
        for s in reversed(range(levels)):
            ledger.begin()
            for i in range(n):
                rel = (i - root) % n
                if rel % (1 << (s + 1)) == 0 and owned[i]:
                    partner_rel = rel + (1 << s)
                    if partner_rel < n:
                        j = (root + partner_rel) % n
                        give = {c for c in owned[i]
                                if (c - root) % n >= partner_rel}
                        if give:
                            nbytes = sum(bufs[c].nbytes for c in give)
                            ledger.send(i, j, nbytes)
                            owned[j] |= give
                            owned[i] -= give
            ledger.commit()
        values = [bufs[r].copy() if r in owned[r] else None
                  for r in range(n)]
        if any(v is None for v in values):
            raise RuntimeError("scatter tree failed to cover all ranks")
        return CollectiveResult(
            name="scatter", algorithm="binomial", values=values,
            time_us=self._price(ledger), num_stages=len(ledger.stages),
            bytes_on_wire=ledger.total_bytes,
        )

    def gather(self, data, root: int = 0) -> CollectiveResult:
        """Inverse of scatter: root collects every rank's buffer up a
        binomial tree; ``values[root]`` is the concatenation."""
        self._check_rank(root)
        bufs = self._as_arrays(data)
        n = self.size
        if len(bufs) != n:
            raise ValueError(f"need one buffer per rank ({n})")
        ledger = _StageLedger(self.placement)
        held: dict[int, dict[int, np.ndarray]] = {
            i: {i: bufs[i].copy()} for i in range(n)
        }
        levels = max(1, math.ceil(math.log2(n))) if n > 1 else 0
        for s in range(levels):
            ledger.begin()
            moves = []
            for i in range(n):
                rel = (i - root) % n
                if rel % (1 << (s + 1)) == (1 << s) and i in held:
                    j = (root + rel - (1 << s)) % n
                    nbytes = sum(held[i][k].nbytes for k in sorted(held[i]))
                    ledger.send(i, j, nbytes)
                    moves.append((i, j))
            for i, j in moves:
                held[j].update(held.pop(i))
            ledger.commit()
        gathered = np.concatenate([held[root][k] for k in range(n)])
        values = [gathered if r == root else None for r in range(n)]
        return CollectiveResult(
            name="gather", algorithm="binomial", values=values,
            time_us=self._price(ledger), num_stages=len(ledger.stages),
            bytes_on_wire=ledger.total_bytes,
        )

    def scan(self, data, op=np.add) -> CollectiveResult:
        """Inclusive prefix reduction: rank r ends with
        ``op(data[0], ..., data[r])`` (recursive-doubling scan)."""
        bufs = self._as_arrays(data)
        n = self.size
        if len(bufs) != n:
            raise ValueError(f"need one buffer per rank ({n})")
        ledger = _StageLedger(self.placement)
        acc = [b.copy() for b in bufs]
        s = 0
        while (1 << s) < n:
            ledger.begin()
            snapshot = [a.copy() for a in acc]
            for i in range(n - (1 << s)):
                # rank i sends its partial prefix to rank i + 2**s.
                ledger.send(i, i + (1 << s), snapshot[i].nbytes)
            for i in range(n - 1, (1 << s) - 1, -1):
                acc[i] = op(acc[i], snapshot[i - (1 << s)])
            ledger.commit()
            s += 1
        return CollectiveResult(
            name="scan", algorithm="recursive-doubling", values=acc,
            time_us=self._price(ledger), num_stages=len(ledger.stages),
            bytes_on_wire=ledger.total_bytes,
        )

    # ------------------------------------------------------------------
    # alltoall / barrier
    # ------------------------------------------------------------------
    def alltoall(self, data) -> CollectiveResult:
        """Personalised exchange: ``data[i][j]`` goes from rank i to j."""
        n = self.size
        matrix = [self._as_arrays(row) for row in data]
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError(f"need an {n}x{n} buffer matrix")
        ledger = _StageLedger(self.placement)
        out: list[list] = [[None] * n for _ in range(n)]
        for i in range(n):
            out[i][i] = matrix[i][i].copy()
        for s in range(1, n):
            ledger.begin()
            for i in range(n):
                j = (i + s) % n
                ledger.send(i, j, matrix[i][j].nbytes)
                out[j][i] = matrix[i][j].copy()
            ledger.commit()
        values = [np.concatenate(row) for row in out]
        return CollectiveResult(
            name="alltoall", algorithm="pairwise", values=values,
            time_us=self._price(ledger), num_stages=len(ledger.stages),
            bytes_on_wire=ledger.total_bytes,
        )

    def barrier(self) -> CollectiveResult:
        """Dissemination barrier (8-byte tokens)."""
        n = self.size
        ledger = _StageLedger(self.placement)
        s = 0
        while (1 << s) < n:
            ledger.begin()
            for i in range(n):
                ledger.send(i, (i + (1 << s)) % n, 8.0)
            ledger.commit()
            s += 1
        return CollectiveResult(
            name="barrier", algorithm="dissemination", values=None,
            time_us=self._price(ledger), num_stages=len(ledger.stages),
            bytes_on_wire=ledger.total_bytes,
        )
