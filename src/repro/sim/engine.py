"""Discrete-event simulation engine.

Simulated time is measured in **milliseconds** (float).  The engine keeps
a binary heap of pending :class:`Event` objects ordered by ``(time,
seq)``; ``seq`` is a monotonically increasing integer that makes the
execution order of same-timestamp events deterministic (FIFO in
scheduling order).

Typical usage::

    sim = Simulator()
    sim.schedule(10.0, lambda: print("ten ms in"))
    sim.every(16.67, on_vsync)          # periodic callback
    sim.run_until(1_000.0)              # advance one simulated second

The heap stores ``(time, seq, event)`` tuples rather than bare
:class:`Event` objects: tuple comparison is C-level, so no Python
``__lt__`` frame runs on any heap sift.  ``event.time``/``event.seq``
always mirror the tuple (both are updated before every push).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional


class SimulationError(RuntimeError):
    """Raised for invalid interactions with the simulation engine."""


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and can be
    cancelled with :meth:`Simulator.cancel` (cancellation is lazy: the
    event stays in the heap but is skipped when popped).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "popped")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.popped = False

    def __lt__(self, other: "Event") -> bool:
        # Branch form instead of tuple comparison: this runs on every
        # heap sift and the two tuple allocations dominate its cost.
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__name__", repr(self.fn))
        return f"<Event t={self.time:.3f} {name} {state}>"


class PeriodicHandle:
    """Handle for a periodic callback registered with :meth:`Simulator.every`.

    Calling :meth:`stop` prevents any further firings.
    """

    __slots__ = ("stopped", "_current", "_sim")

    def __init__(self, sim: Optional["Simulator"] = None) -> None:
        self.stopped = False
        self._current: Optional[Event] = None
        self._sim = sim

    def stop(self) -> None:
        self.stopped = True
        if self._current is not None:
            # Route through the simulator so its live-event accounting
            # stays exact; fall back to the bare flag for handles built
            # outside an engine (tests).
            if self._sim is not None:
                self._sim.cancel(self._current)
            else:
                self._current.cancelled = True
            self._current = None


class Simulator:
    """Event-heap simulator with a millisecond clock starting at zero."""

    # Compaction threshold: once the heap is at least this large, it is
    # rebuilt whenever cancelled entries outnumber live ones.
    COMPACT_MIN_HEAP = 64

    def __init__(self) -> None:
        self.now: float = 0.0
        # (time, seq, Event) entries — see the module docstring.
        self._heap: List[tuple] = []
        self._seq: int = 0
        self._running = False
        self.events_executed: int = 0
        # Live (non-cancelled, still-queued) event count, maintained on
        # schedule/cancel/pop so pending_count() is O(1).
        self._live: int = 0
        self._cancelled_in_heap: int = 0
        # Optional tracing hook (repro.trace.Tracer); None costs one
        # truthiness check per executed event.
        self.tracer = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ms from now.

        ``delay`` must be non-negative; a zero delay runs the callback at
        the current timestamp but strictly after any event already
        scheduled for that timestamp.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        self._seq += 1
        event = Event(time, self._seq, fn, args)
        heapq.heappush(self._heap, (time, self._seq, event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.  Cancelling twice is harmless."""
        if event.cancelled:
            return
        event.cancelled = True
        if event.popped:
            return  # already executed or discarded; nothing queued to count
        self._live -= 1
        self._cancelled_in_heap += 1
        if (
            len(self._heap) >= self.COMPACT_MIN_HEAP
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (amortised O(n)).

        Rebuilds in place so aliases of ``_heap`` held by the hot loop in
        :meth:`run_until` stay valid across a mid-callback compaction.
        """
        self._heap[:] = [
            entry for entry in self._heap if not entry[2].cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0

    def reschedule(self, event: Event, delay: float) -> Event:
        """Re-arm an already-fired event ``delay`` ms from now.

        Fast path for periodic work: reuses the Event object instead of
        allocating a fresh one per firing.  The event must have been
        popped (executed or skipped) — re-arming a still-queued event
        would corrupt the heap.
        """
        if not event.popped:
            raise SimulationError("cannot reschedule an event that is still queued")
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        event.time = self.now + delay
        event.seq = self._seq
        event.popped = False
        event.cancelled = False
        heapq.heappush(self._heap, (event.time, self._seq, event))
        self._live += 1
        return event

    def every(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        first_delay: Optional[float] = None,
    ) -> PeriodicHandle:
        """Run ``fn(*args)`` every ``interval`` ms until stopped.

        The first firing happens after ``first_delay`` ms (defaults to
        ``interval``).  The callback may itself stop the handle.  Each
        firing re-arms the same :class:`Event` object (no per-tick
        allocation).
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        handle = PeriodicHandle(self)
        heappush = heapq.heappush
        heap = self._heap  # _compact rebuilds in place; alias stays valid

        def tick() -> None:
            if handle.stopped:
                return
            fn(*args)
            if not handle.stopped:
                # Inlined reschedule(): this runs for every firing of
                # every periodic — the call and its guards are pure
                # overhead for an event we know was just popped.
                event = handle._current
                seq = self._seq + 1
                self._seq = seq
                when = self.now + interval
                event.time = when
                event.seq = seq
                event.popped = False
                event.cancelled = False
                heappush(heap, (when, seq, event))
                self._live += 1

        # Engine-event traces name an event after its callback; without
        # this every periodic would read "tick".  Only the name is
        # copied: ``__module__`` still marks the closure as the engine's
        # re-arm wrapper.
        tick.__name__ = getattr(fn, "__name__", None) or type(fn).__name__
        handle._current = self.schedule(
            interval if first_delay is None else first_delay, tick
        )
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or ``None`` when idle."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)[2].popped = True
            self._cancelled_in_heap -= 1
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Execute the next pending event.  Returns ``False`` when idle."""
        while self._heap:
            when, _seq, event = heapq.heappop(self._heap)
            event.popped = True
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            self._live -= 1
            self.now = when
            self.events_executed += 1
            tracer = self.tracer
            if tracer is not None:
                tracer.engine_event(when, event.fn)
            event.fn(*event.args)
            return True
        return False

    def run_until(self, time: float) -> None:
        """Execute all events up to and including simulated ``time``.

        The clock is left at exactly ``time`` even if the last event
        fired earlier, so back-to-back ``run_until`` calls tile cleanly.

        This is the hot loop: peek and pop are fused (one heap touch per
        event instead of a ``peek_time``/``step`` pair), and the tracer
        check is hoisted out of the per-event path — attaching a tracer
        mid-run takes effect on the next ``run_until``/``step`` call.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot run backwards (now={self.now}, requested={time})"
            )
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        # Local aliases keep the per-event work free of repeated
        # attribute lookups; _compact() rebuilds the heap in place, so
        # the `heap` alias survives callbacks that cancel events.
        heap = self._heap
        pop = heapq.heappop
        tracer = self.tracer
        trace_hook = (
            tracer.engine_event
            if tracer is not None and tracer.engine_events
            else None
        )
        executed = 0
        try:
            while heap:
                entry = heap[0]
                event = entry[2]
                if event.cancelled:
                    pop(heap)
                    event.popped = True
                    self._cancelled_in_heap -= 1
                    continue
                when = entry[0]
                if when > time:
                    break
                pop(heap)
                event.popped = True
                self._live -= 1
                self.now = when
                executed += 1
                if trace_hook is not None:
                    trace_hook(when, event.fn)
                event.fn(*event.args)
            self.now = time
        finally:
            self.events_executed += executed
            self._running = False

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the event heap drains.

        ``max_events`` bounds the simulator's *lifetime* event count
        (``events_executed``), so events executed before ``run()`` was
        entered — by earlier ``run_until``/``step``/``run`` calls —
        count against the guard too.
        """
        while self.step():
            if self.events_executed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")

    def pending_count(self) -> int:
        """Number of non-cancelled events still queued (O(1))."""
        return self._live
