"""Typed tracepoints over a bounded ring buffer.

The design mirrors ftrace/Perfetto's split between *emission* and
*export*: components hold an optional :class:`Tracer` reference and emit
typed events (counter, instant, duration span, complete slice, flow)
against (pid, tid) tracks; exporters (:mod:`repro.trace.export`) turn
the ring buffer into Chrome/Perfetto ``trace_event`` JSON after the run.

Zero overhead when disabled: a component's ``tracer`` attribute is
simply ``None``, so every tracepoint in a hot path costs one attribute
load plus one truthiness check::

    t = self.tracer
    if t is not None:
        t.instant("refault", pid=pid, args={"fg": foreground})

Timestamps come from the simulated clock (milliseconds) that
:meth:`Tracer.bind_clock` wires in; events carry millisecond floats and
are converted to the trace-event format's microseconds at export time.

Track-id conventions (chosen below the app pid space, which starts at
1000):

* pid 0 — "kernel": kswapd quanta, direct-reclaim slices, freezer
  transitions, and all sampler counter tracks;
* pid 1 — "cpus": one thread per simulated core with the task slices
  the scheduler dispatched there;
* pid 2 — "system_server": ActivityManager launch spans, lmkd kills,
  and the scenario runner's phase spans.

Simulated application processes use their real pid, with one trace
thread per :class:`~repro.sched.task.Task` plus tid 0 for kernel-side
events (faults) attributed to the process.
"""

from __future__ import annotations

import itertools
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.trace.histogram import Histogram

# Synthetic track pids (real process pids start at 1000).
KERNEL_PID = 0
CPU_PID = 1
SYSTEM_PID = 2

# Well-known kernel-track tids.
KSWAPD_TID = 1
DIRECT_RECLAIM_TID = 2
FREEZER_TID = 3

# Well-known system_server-track tids.
ACTIVITY_MANAGER_TID = 1
LMKD_TID = 2
SCENARIO_TID = 3

# Event phases (Chrome trace_event ``ph`` values).
PH_BEGIN = "B"
PH_END = "E"
PH_COMPLETE = "X"
PH_INSTANT = "i"
PH_COUNTER = "C"
PH_FLOW_START = "s"
PH_FLOW_END = "f"
PH_ASYNC_BEGIN = "b"
PH_ASYNC_END = "e"

DEFAULT_CAPACITY = 512 * 1024


class TraceEvent:
    """One emitted tracepoint (timestamps in simulated ms)."""

    __slots__ = (
        "ts", "ph", "name", "cat", "pid", "tid", "dur", "args", "flow_id",
    )

    def __init__(
        self,
        ts: float,
        ph: str,
        name: str,
        cat: str,
        pid: int,
        tid: int,
        dur: float = 0.0,
        args: Optional[Dict[str, Any]] = None,
        flow_id: Optional[int] = None,
    ):
        self.ts = ts
        self.ph = ph
        self.name = name
        self.cat = cat
        self.pid = pid
        self.tid = tid
        self.dur = dur
        self.args = args
        self.flow_id = flow_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceEvent {self.ph} {self.name!r} t={self.ts:.3f} {self.pid}/{self.tid}>"


class Tracer:
    """Bounded-ring event collector with typed tracepoints.

    The ring (``deque(maxlen=capacity)``) drops the *oldest* events once
    full — a long run keeps its most recent window, like a kernel trace
    buffer in overwrite mode.  ``events_emitted`` keeps counting, so
    ``dropped_events`` reports how much history was lost.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        capacity: int = DEFAULT_CAPACITY,
    ):
        if capacity <= 0:
            raise ValueError(f"trace buffer capacity must be positive, got {capacity}")
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self.capacity = capacity
        self.events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.events_emitted: int = 0
        self._processes: Dict[int, str] = {}
        self._threads: Dict[Tuple[int, int], str] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._flow_ids = itertools.count(1)
        self._register_static_tracks()

    def _register_static_tracks(self) -> None:
        self.register_process(KERNEL_PID, "kernel")
        self.register_thread(KERNEL_PID, KSWAPD_TID, "kswapd0")
        self.register_thread(KERNEL_PID, DIRECT_RECLAIM_TID, "direct_reclaim")
        self.register_thread(KERNEL_PID, FREEZER_TID, "freezer")
        self.register_process(CPU_PID, "cpus")
        self.register_process(SYSTEM_PID, "system_server")
        self.register_thread(SYSTEM_PID, ACTIVITY_MANAGER_TID, "ActivityManager")
        self.register_thread(SYSTEM_PID, LMKD_TID, "lmkd")
        self.register_thread(SYSTEM_PID, SCENARIO_TID, "scenario")

    # ------------------------------------------------------------------
    # Track metadata
    # ------------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer at the simulated clock (ms)."""
        self.clock = clock

    def register_process(self, pid: int, name: str) -> None:
        self._processes[pid] = name

    def register_thread(self, pid: int, tid: int, name: str) -> None:
        self._threads[(pid, tid)] = name

    @property
    def process_names(self) -> Dict[int, str]:
        return dict(self._processes)

    @property
    def thread_names(self) -> Dict[Tuple[int, int], str]:
        return dict(self._threads)

    @property
    def dropped_events(self) -> int:
        """Events lost to ring overwrite."""
        return self.events_emitted - len(self.events)

    # ------------------------------------------------------------------
    # Tracepoints
    # ------------------------------------------------------------------
    def _emit(
        self,
        ph: str,
        name: str,
        cat: str,
        pid: int,
        tid: int,
        ts: Optional[float] = None,
        dur: float = 0.0,
        args: Optional[Dict[str, Any]] = None,
        flow_id: Optional[int] = None,
    ) -> TraceEvent:
        event = TraceEvent(
            ts=self.clock() if ts is None else ts,
            ph=ph,
            name=name,
            cat=cat,
            pid=pid,
            tid=tid,
            dur=dur,
            args=args,
            flow_id=flow_id,
        )
        self.events.append(event)
        self.events_emitted += 1
        return event

    def counter(
        self,
        name: str,
        values,
        pid: int = KERNEL_PID,
        ts: Optional[float] = None,
        cat: str = "counter",
    ) -> TraceEvent:
        """Counter sample: ``values`` is a number or a {series: value} dict."""
        if not isinstance(values, dict):
            values = {name: values}
        return self._emit(PH_COUNTER, name, cat, pid, 0, ts=ts, args=values)

    def instant(
        self,
        name: str,
        pid: int = KERNEL_PID,
        tid: int = 0,
        args: Optional[Dict[str, Any]] = None,
        cat: str = "event",
        ts: Optional[float] = None,
    ) -> TraceEvent:
        return self._emit(PH_INSTANT, name, cat, pid, tid, ts=ts, args=args)

    def begin(
        self,
        name: str,
        pid: int,
        tid: int,
        args: Optional[Dict[str, Any]] = None,
        cat: str = "span",
    ) -> TraceEvent:
        """Open a duration span on the (pid, tid) track."""
        return self._emit(PH_BEGIN, name, cat, pid, tid, args=args)

    def end(self, name: str, pid: int, tid: int) -> TraceEvent:
        """Close the innermost open span (trace-event E phase)."""
        return self._emit(PH_END, name, "span", pid, tid)

    @contextmanager
    def span(
        self,
        name: str,
        pid: int,
        tid: int,
        args: Optional[Dict[str, Any]] = None,
        cat: str = "span",
    ):
        """Context manager emitting a balanced B/E pair around the body."""
        self.begin(name, pid, tid, args=args, cat=cat)
        try:
            yield
        finally:
            self.end(name, pid, tid)

    def complete(
        self,
        name: str,
        pid: int,
        tid: int,
        start_ms: float,
        dur_ms: float,
        args: Optional[Dict[str, Any]] = None,
        cat: str = "span",
    ) -> TraceEvent:
        """Retrospective slice (X phase): a span whose duration is known
        only once the work is done — reclaim batches, frames, launches."""
        return self._emit(
            PH_COMPLETE, name, cat, pid, tid, ts=start_ms, dur=dur_ms, args=args
        )

    # ------------------------------------------------------------------
    # Flows and async spans (cross-track arrows / overlapping operations)
    # ------------------------------------------------------------------
    def new_flow_id(self) -> int:
        return next(self._flow_ids)

    def flow_start(
        self, name: str, flow_id: int, pid: int, tid: int, cat: str = "flow"
    ) -> TraceEvent:
        return self._emit(PH_FLOW_START, name, cat, pid, tid, flow_id=flow_id)

    def flow_end(
        self, name: str, flow_id: int, pid: int, tid: int, cat: str = "flow"
    ) -> TraceEvent:
        return self._emit(PH_FLOW_END, name, cat, pid, tid, flow_id=flow_id)

    def async_begin(
        self,
        name: str,
        async_id: int,
        pid: int,
        tid: int,
        args: Optional[Dict[str, Any]] = None,
        cat: str = "async",
    ) -> TraceEvent:
        return self._emit(
            PH_ASYNC_BEGIN, name, cat, pid, tid, args=args, flow_id=async_id
        )

    def async_end(
        self,
        name: str,
        async_id: int,
        pid: int,
        tid: int,
        args: Optional[Dict[str, Any]] = None,
        cat: str = "async",
    ) -> TraceEvent:
        return self._emit(
            PH_ASYNC_END, name, cat, pid, tid, args=args, flow_id=async_id
        )

    # ------------------------------------------------------------------
    # Latency histograms
    # ------------------------------------------------------------------
    def histogram(self, name: str) -> Histogram:
        """Named log-bucketed latency histogram (created on first use)."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        return hist

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def __len__(self) -> int:
        return len(self.events)
