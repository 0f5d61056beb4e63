"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_until_executes_in_order():
    sim = Simulator()
    order = []
    sim.schedule(30.0, lambda: order.append("c"))
    sim.schedule(10.0, lambda: order.append("a"))
    sim.schedule(20.0, lambda: order.append("b"))
    sim.run_until(100.0)
    assert order == ["a", "b", "c"]
    assert sim.now == 100.0


def test_same_timestamp_events_run_fifo():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(5.0, lambda t=tag: order.append(t))
    sim.run_until(5.0)
    assert order == [0, 1, 2, 3, 4]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(50.0, lambda: fired.append(1))
    sim.run_until(49.9)
    assert fired == []
    sim.run_until(50.0)
    assert fired == [1]


def test_clock_advances_to_event_time_during_execution():
    sim = Simulator()
    seen = []
    sim.schedule(12.5, lambda: seen.append(sim.now))
    sim.run_until(20.0)
    assert seen == [12.5]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.run_until(10.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_run_backwards_rejected():
    sim = Simulator()
    sim.run_until(10.0)
    with pytest.raises(SimulationError):
        sim.run_until(5.0)


def test_cancel_prevents_execution():
    sim = Simulator()
    fired = []
    event = sim.schedule(10.0, lambda: fired.append(1))
    sim.cancel(event)
    sim.run_until(20.0)
    assert fired == []


def test_cancel_twice_is_harmless():
    sim = Simulator()
    event = sim.schedule(10.0, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    sim.run_until(20.0)


def test_events_can_schedule_more_events():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.schedule(5.0, lambda: seen.append("second"))

    sim.schedule(10.0, first)
    sim.run_until(20.0)
    assert seen == ["first", "second"]


def test_periodic_fires_repeatedly():
    sim = Simulator()
    count = []
    sim.every(10.0, lambda: count.append(sim.now))
    sim.run_until(45.0)
    assert count == [10.0, 20.0, 30.0, 40.0]


def test_periodic_first_delay_override():
    sim = Simulator()
    count = []
    sim.every(10.0, lambda: count.append(sim.now), first_delay=3.0)
    sim.run_until(25.0)
    assert count == [3.0, 13.0, 23.0]


def test_periodic_stop_halts_firing():
    sim = Simulator()
    count = []
    handle = sim.every(10.0, lambda: count.append(1))
    sim.run_until(25.0)
    handle.stop()
    sim.run_until(100.0)
    assert count == [1, 1]


def test_periodic_stop_from_inside_callback():
    sim = Simulator()
    count = []
    handle = None

    def tick():
        count.append(1)
        if len(count) == 3:
            handle.stop()

    handle = sim.every(5.0, tick)
    sim.run_until(100.0)
    assert len(count) == 3


def test_each_periodic_firing_passes_one_wrapper(monkeypatch):
    # A tracer that wraps every callback handed to schedule_at and to
    # every (as the benchmark's span recorder does) must see each
    # firing once: every() queues its event itself and the engine
    # re-arms it, with no callback of its own in between.
    passed = []

    def wrap(fn):
        def wrapper(*args):
            passed.append(fn.__name__)
            return fn(*args)
        return wrapper

    schedule_at, every = Simulator.schedule_at, Simulator.every
    monkeypatch.setattr(
        Simulator, "schedule_at",
        lambda self, when, fn, *args: schedule_at(self, when, wrap(fn), *args),
    )
    monkeypatch.setattr(
        Simulator, "every",
        lambda self, interval, fn, *args, first_delay=None: every(
            self, interval, wrap(fn), *args, first_delay=first_delay),
    )
    sim = Simulator()
    fired = []

    def on_beat():
        fired.append(("on_beat", sim.now))

    def once():
        fired.append(("once", sim.now))

    sim.every(5.0, on_beat)
    sim.schedule(5.0, once)   # queued after the first beat
    sim.schedule(10.0, once)  # queued before the beat re-arms for t=10
    sim.run_until(10.0)
    assert sim.step()         # the re-arm after a step() firing too
    # Same-instant events keep their (time, seq) order: a re-armed beat
    # takes the next seq after its callback returns.
    assert fired == [("on_beat", 5.0), ("once", 5.0), ("once", 10.0),
                     ("on_beat", 10.0), ("on_beat", 15.0)]
    assert passed == [name for name, _ in fired]
    assert sim.pending_count() == 1


def test_periodic_zero_interval_rejected():
    with pytest.raises(SimulationError):
        Simulator().every(0.0, lambda: None)


def test_run_drains_heap():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1, 2]


def test_run_max_events_guard():
    sim = Simulator()

    def rearm():
        sim.schedule(1.0, rearm)

    sim.schedule(1.0, rearm)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_pending_count_excludes_cancelled():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    event = sim.schedule(2.0, lambda: None)
    sim.cancel(event)
    assert sim.pending_count() == 1


def test_peek_time_skips_cancelled():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(5.0, lambda: None)
    sim.cancel(event)
    assert sim.peek_time() == 5.0


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(4):
        sim.schedule(1.0, lambda: None)
    sim.run_until(2.0)
    assert sim.events_executed == 4


def test_pending_count_is_live_counter():
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert sim.pending_count() == 10
    sim.cancel(events[3])
    sim.cancel(events[3])  # double-cancel must not double-decrement
    assert sim.pending_count() == 9
    sim.run_until(5.0)  # executes events 1..5 except the cancelled one
    assert sim.pending_count() == 5
    sim.run()
    assert sim.pending_count() == 0


def test_cancel_after_execution_is_harmless():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run_until(1.5)
    sim.cancel(event)  # already executed
    assert sim.pending_count() == 1


def test_periodic_stop_keeps_count_exact():
    sim = Simulator()
    handle = sim.every(10.0, lambda: None)
    sim.run_until(35.0)
    assert sim.pending_count() == 1  # the armed next tick
    handle.stop()
    assert sim.pending_count() == 0


def test_heap_compaction_drops_cancelled_events():
    sim = Simulator()
    keep = [sim.schedule(1000.0 + i, lambda: None) for i in range(10)]
    doomed = [sim.schedule(500.0 + i, lambda: None) for i in range(200)]
    for event in doomed:
        sim.cancel(event)
    # Cancelled events outnumbered live ones, so the heap was rebuilt
    # (compaction stops once the heap drops under COMPACT_MIN_HEAP).
    assert len(keep) <= len(sim._heap) < Simulator.COMPACT_MIN_HEAP
    assert sim.pending_count() == 10
    sim.run()
    assert sim.events_executed == 10


def test_compaction_preserves_order():
    sim = Simulator()
    fired = []
    events = [
        sim.schedule(float(100 - i), lambda i=i: fired.append(100 - i))
        for i in range(100)
    ]
    for event in events[::2]:
        sim.cancel(event)
    sim.run()
    assert fired == sorted(fired)
