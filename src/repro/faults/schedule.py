"""Declarative, seeded fault schedules.

A :class:`FaultSchedule` is an immutable list of timed
:class:`FaultEvent` entries -- the *script* of everything that goes
wrong during a simulated run:

* ``link_down`` / ``link_up`` -- a cable (named by either of its global
  port ids) dies at time ``t`` and optionally comes back later;
* ``switch_down`` -- a switch dies, taking every attached cable with it
  (switches do not come back: a rebooted switch re-enters via topology
  change, which is outside this model);
* ``flaky`` -- a cable drops each packet crossing it during
  ``[time, until)`` with probability ``loss`` (seeded, deterministic).

Schedules are *data*, not behaviour: the packet engines interpret them
(:mod:`repro.faults.packetsim`), the healing controller derives repair
timelines from them (:mod:`repro.faults.controller`), the vectorized
engine intersects them with its link-occupancy intervals to decide
whether the analytic fast path is still exact, and ``repro.check``
lints them against a fabric.  Times are absolute simulated microseconds
on the same clock the simulators use.

:meth:`FaultSchedule.random` draws an MTBF-parameterised schedule from
a seeded generator -- the unit the chaos harness grinds by the
thousand.  Identical ``(fabric, seed, parameters)`` always produce an
identical schedule, byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..fabric.model import Fabric

__all__ = [
    "FLAKY",
    "KINDS",
    "LINK_DOWN",
    "LINK_UP",
    "SWITCH_DOWN",
    "FaultEvent",
    "FaultSchedule",
]

LINK_DOWN = "link_down"
LINK_UP = "link_up"
SWITCH_DOWN = "switch_down"
FLAKY = "flaky"

#: the fault-event kinds a schedule may contain
KINDS = (LINK_DOWN, LINK_UP, SWITCH_DOWN, FLAKY)


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault.

    ``gport`` names a cable by either of its global port ids (link and
    flaky events); ``node`` names a switch (switch events).  ``until``
    and ``loss`` apply to ``flaky`` windows only.
    """

    time: float
    kind: str
    gport: int = -1
    node: int = -1
    until: float = math.inf
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {KINDS}")
        if not (math.isfinite(self.time) and self.time >= 0.0):
            raise ValueError(f"fault time must be finite and >= 0, got {self.time}")
        if self.kind == FLAKY:
            if not 0.0 < self.loss <= 1.0:
                raise ValueError(f"flaky loss must be in (0, 1], got {self.loss}")
            if not self.until > self.time:
                raise ValueError("flaky window must end after it starts")
        if self.kind == SWITCH_DOWN and self.node < 0:
            raise ValueError("switch_down needs a node id")
        if self.kind in (LINK_DOWN, LINK_UP, FLAKY) and self.gport < 0:
            raise ValueError(f"{self.kind} needs a gport")

    def to_json(self) -> dict:
        out: dict = {"time": self.time, "kind": self.kind}
        if self.gport >= 0:
            out["gport"] = self.gport
        if self.node >= 0:
            out["node"] = self.node
        if self.kind == FLAKY:
            out["until"] = self.until if math.isfinite(self.until) else None
            out["loss"] = self.loss
        return out

    @classmethod
    def from_json(cls, obj: dict) -> FaultEvent:
        until = obj.get("until", math.inf)
        return cls(
            time=float(obj["time"]), kind=str(obj["kind"]),
            gport=int(obj.get("gport", -1)), node=int(obj.get("node", -1)),
            until=math.inf if until is None else float(until),
            loss=float(obj.get("loss", 0.0)),
        )


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, seeded script of faults.

    ``seed`` feeds the per-packet loss draws of ``flaky`` windows (and
    records the campaign seed of :meth:`random` schedules), so a run
    against a schedule is exactly reproducible.
    """

    events: tuple[FaultEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.time))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def is_empty(self) -> bool:
        return not self.events

    @property
    def horizon(self) -> float:
        """Last finite timestamp the schedule mentions (0.0 if empty)."""
        t = 0.0
        for e in self.events:
            t = max(t, e.time)
            if e.kind == FLAKY and math.isfinite(e.until):
                t = max(t, e.until)
        return t

    def topology_events(self) -> tuple[FaultEvent, ...]:
        """The events that change which cables exist (everything but
        ``flaky``) -- the ones a subnet-manager sweep reacts to."""
        return tuple(e for e in self.events if e.kind != FLAKY)

    # -- fabric-resolved views --------------------------------------------
    def _cable(self, fabric: Fabric, gport: int) -> tuple[int, int]:
        """Both directed gports of the cable ``gport`` sits on."""
        peer = int(fabric.port_peer[gport])
        return (gport, peer if peer >= 0 else gport)

    def down_intervals(self, fabric: Fabric) -> list[tuple[int, int, float, float]]:
        """Dead windows per cable: ``(gport_a, gport_b, start, end)``.

        ``end`` is ``inf`` for cables that never come back.  Switch
        death expands to one never-closing window per attached cable.
        A ``link_up`` closes the most recent open window of its cable;
        without a preceding ``link_down`` it is a no-op (the schedule
        lint flags it).
        """
        open_win: dict[tuple[int, int], float] = {}
        killed: set[tuple[int, int]] = set()
        out: list[tuple[int, int, float, float]] = []
        for e in self.events:
            if e.kind == LINK_DOWN:
                key = self._canon(fabric, e.gport)
                if key not in open_win and key not in killed:
                    open_win[key] = e.time
            elif e.kind == LINK_UP:
                key = self._canon(fabric, e.gport)
                start = open_win.pop(key, None)
                if start is not None:
                    out.append((key[0], key[1], start, e.time))
            elif e.kind == SWITCH_DOWN:
                for gp in fabric.ports_of(e.node):
                    if fabric.port_peer[gp] < 0:
                        continue
                    key = self._canon(fabric, int(gp))
                    if key in killed:
                        continue
                    start = open_win.pop(key, e.time)
                    killed.add(key)
                    out.append((key[0], key[1], min(start, e.time), math.inf))
        for key in sorted(open_win):  # leftovers never recovered
            out.append((key[0], key[1], open_win[key], math.inf))
        out.sort(key=lambda w: (w[2], w[0]))
        return out

    def _canon(self, fabric: Fabric, gport: int) -> tuple[int, int]:
        a, b = self._cable(fabric, gport)
        return (min(a, b), max(a, b))

    def flaky_intervals(
        self, fabric: Fabric
    ) -> list[tuple[int, int, float, float, float]]:
        """Flaky windows per cable: ``(gport_a, gport_b, start, end, loss)``."""
        out = []
        for e in self.events:
            if e.kind == FLAKY:
                a, b = self._canon(fabric, e.gport)
                out.append((a, b, e.time, e.until, e.loss))
        return out

    def dead_gports_at(self, fabric: Fabric, t: float) -> np.ndarray:
        """Sorted directed gports that are down at time ``t`` (cables in
        an open dead window, both directions)."""
        dead: set[int] = set()
        for a, b, start, end in self.down_intervals(fabric):
            if start <= t < end:
                dead.add(a)
                dead.add(b)
        return np.asarray(sorted(dead), dtype=np.int64)

    def overlaps_occupancy(
        self,
        fabric: Fabric,
        links: np.ndarray,
        enter: np.ndarray,
        exit_: np.ndarray,
        margin: float = 0.0,
    ) -> bool:
        """Does any fault window intersect any link-occupancy interval?

        ``links``/``enter``/``exit_`` are the flat per-(message, hop)
        occupancy arrays the wave calendar collects.  Used to decide
        whether an analytically resolved run could have been perturbed
        by this schedule: no intersection means no packet ever crossed a
        faulty link while the fault was active, so the fault-free
        timestamps are exact.
        """
        if not len(links):
            return False
        windows = [(a, b, s, e) for a, b, s, e in self.down_intervals(fabric)]
        windows += [(a, b, s, e) for a, b, s, e, _ in self.flaky_intervals(fabric)]
        for a, b, start, end in windows:
            mask = (links == a) | (links == b)
            if not mask.any():
                continue
            hit = (enter[mask] < end + margin) & (exit_[mask] > start - margin)
            if hit.any():
                return True
        return False

    # -- serialisation ------------------------------------------------------
    def to_json(self) -> dict:
        return {"seed": self.seed, "events": [e.to_json() for e in self.events]}

    @classmethod
    def from_json(cls, obj: dict) -> FaultSchedule:
        return cls(
            events=tuple(FaultEvent.from_json(e) for e in obj.get("events", ())),
            seed=int(obj.get("seed", 0)),
        )

    # -- seeded campaign generator ------------------------------------------
    @classmethod
    def random(
        cls,
        fabric: Fabric,
        seed: int,
        horizon: float = 20_000.0,
        mtbf: float = 5_000.0,
        p_switch: float = 0.08,
        p_host: float = 0.08,
        p_flaky: float = 0.25,
        p_recover: float = 0.6,
        mean_repair: float | None = None,
        loss_range: tuple[float, float] = (0.05, 0.3),
    ) -> FaultSchedule:
        """Draw an MTBF-parameterised schedule (chaos-campaign unit).

        The topology-fault count is Poisson with mean ``horizon/mtbf``;
        each fault is a switch death (probability ``p_switch``), a flaky
        window (``p_flaky``) or a cable cut -- hitting a host uplink
        with probability ``p_host``, a switch-to-switch cable otherwise.
        Cut cables recover after an exponential delay with probability
        ``p_recover``.  All draws come from one seeded generator in a
        fixed order, so the schedule is a pure function of the inputs.
        """
        rng = np.random.default_rng(seed)
        N = fabric.num_endports
        if mean_repair is None:
            mean_repair = horizon / 4.0
        live = fabric.port_peer >= 0
        host_up = np.flatnonzero(live & (fabric.port_owner < N))
        sw_up = np.flatnonzero(
            fabric.port_goes_up() & (fabric.port_owner >= N))
        switches = np.arange(N, fabric.num_nodes)
        events: list[FaultEvent] = []
        for _ in range(int(rng.poisson(max(horizon, 0.0) / max(mtbf, 1e-9)))):
            t = float(rng.uniform(0.0, horizon))
            u = float(rng.random())
            if u < p_switch and len(switches):
                node = int(rng.choice(switches))
                events.append(FaultEvent(time=t, kind=SWITCH_DOWN, node=node))
                continue
            if u < p_switch + p_flaky and len(sw_up):
                gp = int(rng.choice(sw_up))
                dur = float(rng.exponential(mean_repair))
                loss = float(rng.uniform(*loss_range))
                events.append(FaultEvent(
                    time=t, kind=FLAKY, gport=gp,
                    until=t + max(dur, 1.0), loss=loss))
                continue
            pool = host_up if (rng.random() < p_host and len(host_up)) else sw_up
            if not len(pool):
                continue
            gp = int(rng.choice(pool))
            events.append(FaultEvent(time=t, kind=LINK_DOWN, gport=gp))
            if rng.random() < p_recover:
                dt = float(rng.exponential(mean_repair))
                events.append(FaultEvent(
                    time=t + max(dt, 1.0), kind=LINK_UP, gport=gp))
        return cls(events=tuple(events), seed=seed)
