"""Discrete-event queue semantics."""

import pytest

from repro.sim import EventQueue, SimulationError


def test_events_fire_in_time_order():
    q = EventQueue()
    log = []
    q.schedule(2.0, log.append, "b")
    q.schedule(1.0, log.append, "a")
    q.schedule(3.0, log.append, "c")
    q.run()
    assert log == ["a", "b", "c"]


def test_equal_times_fifo():
    q = EventQueue()
    log = []
    for tag in "abc":
        q.schedule(1.0, log.append, tag)
    q.run()
    assert log == ["a", "b", "c"]


def test_now_advances():
    q = EventQueue()
    seen = []
    q.schedule(5.0, lambda: seen.append(q.now))
    q.run()
    assert seen == [5.0]
    assert q.now == 5.0


def test_schedule_in_is_relative():
    q = EventQueue()
    log = []

    def first():
        q.schedule_in(2.0, lambda: log.append(q.now))

    q.schedule(1.0, first)
    q.run()
    assert log == [3.0]


def test_cannot_schedule_in_past():
    q = EventQueue()
    q.schedule(5.0, lambda: None)
    q.run()
    with pytest.raises(SimulationError):
        q.schedule(1.0, lambda: None)


def test_run_until_stops_early():
    q = EventQueue()
    log = []
    q.schedule(1.0, log.append, 1)
    q.schedule(10.0, log.append, 2)
    q.run(until=5.0)
    assert log == [1]
    assert len(q) == 1


def test_max_events_guard():
    q = EventQueue()

    def loop():
        q.schedule_in(1.0, loop)

    q.schedule(0.0, loop)
    with pytest.raises(SimulationError, match="exceeded"):
        q.run(max_events=100)


def test_step_on_empty_queue():
    assert EventQueue().step() is False


def test_past_tolerance_is_relative():
    # At large simulated times the float spacing between adjacent
    # doubles exceeds any absolute epsilon: scheduling "now" computed
    # through a different arithmetic path may land a few ULPs early.
    # The guard must scale with the clock instead of rejecting it.
    q = EventQueue()
    big = 1e7
    q.schedule(big, lambda: None)
    q.run()
    assert q.now == big
    jitter = big * 1e-10  # well inside 1e-9 * now, far above 1e-9 abs
    q.schedule(big - jitter, lambda: None)  # must NOT raise
    q.run()


def test_past_tolerance_still_rejects_genuine_past():
    q = EventQueue()
    q.schedule(1e7, lambda: None)
    q.run()
    with pytest.raises(SimulationError, match="past"):
        q.schedule(1e7 - 1.0, lambda: None)


def test_past_tolerance_small_times_unchanged():
    q = EventQueue()
    q.schedule(1.0, lambda: None)
    q.run()
    q.schedule(1.0 - 1e-12, lambda: None)  # inside tolerance
    with pytest.raises(SimulationError):
        q.schedule(1.0 - 1e-6, lambda: None)
