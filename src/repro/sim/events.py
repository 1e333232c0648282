"""Minimal discrete-event simulation core.

A deterministic, general-purpose event queue: events fire in (time,
sequence) order, so equal-time events run in scheduling order and runs
are exactly reproducible.  :meth:`EventQueue.step` runs one event;
:meth:`EventQueue.run` drains the queue.  No simulator in the package
runs on it: the fluid simulator advances between rate changes, the
packet engine's wave calendar (:mod:`repro.sim.batch`) needs no queue,
and the event-driven packet core (:mod:`repro.faults.packetsim`) keeps
its own calendar with the same firing order.  :class:`SimulationError`
is the error every simulator raises on an inconsistent state.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable

__all__ = ["EventQueue", "SimulationError"]


class SimulationError(RuntimeError):
    """The simulation reached an inconsistent state."""


class EventQueue:
    """Priority queue of ``(time, callback, payload)`` events."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        self._seq = count()
        self.now = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def _past_tolerance(self) -> float:
        # Scheduling "in the past" must allow for float rounding in time
        # arithmetic.  An absolute 1e-9 tolerance breaks once simulated
        # time grows large (at now=1e6 us the spacing between adjacent
        # doubles is ~1.2e-10, but accumulated sums carry relative -- not
        # absolute -- error), so the guard scales with the clock.
        return 1e-9 * max(1.0, abs(self.now))

    def schedule(self, when: float, callback: Callable, *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if when < self.now - self._past_tolerance():
            raise SimulationError(
                f"cannot schedule event in the past ({when} < now {self.now})"
            )
        heapq.heappush(self._heap, (when, next(self._seq), callback, args))

    def schedule_in(self, delay: float, callback: Callable, *args: Any) -> None:
        """Schedule ``callback(*args)`` after ``delay`` time units."""
        self.schedule(self.now + delay, callback, *args)

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        if not self._heap:
            return False
        when, _, callback, args = heapq.heappop(self._heap)
        self.now = when
        callback(*args)
        return True

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        stop: Callable[[], bool] | None = None,
    ) -> int:
        """Drain the queue (optionally bounded); returns events executed.

        ``stop`` is an optional predicate evaluated before each event:
        once it returns True the drain ends even though events remain.
        Engines that schedule bookkeeping far beyond the traffic they
        simulate (the fault injector's link-up/flaky-window timers) use
        it to finish as soon as every message is resolved.
        """
        executed = 0
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            if stop is not None and stop():
                break
            if max_events is not None and executed >= max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; runaway simulation?"
                )
            self.step()
            executed += 1
        return executed
