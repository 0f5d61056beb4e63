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

A periodic event carries its ``interval``: the loop that fires it
re-arms the same :class:`Event` after the callback returns, with the
next ``seq``, so a periodic firing is one callback frame and nothing
else.
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

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "popped", "interval")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.popped = False
        # Set by Simulator.every: re-arm this many ms after each firing.
        self.interval: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__name__", repr(self.fn))
        return f"<Event t={self.time:.3f} {name} {state}>"


class PeriodicHandle:
    """Handle for a periodic callback registered with :meth:`Simulator.every`.

    Calling :meth:`stop` prevents any further firings.
    """

    __slots__ = ("_event", "_sim")

    def __init__(self, sim: "Simulator", event: Event) -> None:
        self._event = event
        self._sim = sim

    def stop(self) -> None:
        # Cancelling the event also stops a firing in progress: the
        # engine re-arms only an event that is not cancelled.
        self._sim.cancel(self._event)


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

    def every(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        first_delay: Optional[float] = None,
    ) -> PeriodicHandle:
        """Run ``fn(*args)`` every ``interval`` ms until stopped.

        The first firing happens after ``first_delay`` ms (defaults to
        ``interval``).  The callback may itself stop the handle.  The
        event is queued here rather than through :meth:`schedule_at`,
        so a wrapper of either method sees each callback once; the
        loop that fires it re-arms the same :class:`Event`.
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        delay = interval if first_delay is None else first_delay
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        when = self.now + delay
        event = Event(when, self._seq, fn, args)
        event.interval = interval
        heapq.heappush(self._heap, (when, self._seq, event))
        self._live += 1
        return PeriodicHandle(self, event)

    def _rearm(self, event: Event) -> None:
        """Queue a periodic event that just fired, ``interval`` ms on."""
        self._seq += 1
        when = self.now + event.interval
        event.time = when
        event.seq = self._seq
        event.popped = False
        heapq.heappush(self._heap, (when, self._seq, event))
        self._live += 1

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
            event.fn(*event.args)
            if event.interval is not None and not event.cancelled:
                self._rearm(event)
            return True
        return False

    def run_until(self, time: float) -> None:
        """Execute all events up to and including simulated ``time``.

        The clock is left at exactly ``time`` even if the last event
        fired earlier, so back-to-back ``run_until`` calls tile cleanly.

        This is the hot loop: peek and pop are fused (one heap touch per
        event instead of a ``peek_time``/``step`` pair), and a periodic
        event is re-armed inline (:meth:`_rearm` without its frame).
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
        push = heapq.heappush
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
                event.fn(*event.args)
                interval = event.interval
                if interval is not None and not event.cancelled:
                    seq = self._seq + 1
                    self._seq = seq
                    when = self.now + interval
                    event.time = when
                    event.seq = seq
                    event.popped = False
                    push(heap, (when, seq, event))
                    self._live += 1
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
