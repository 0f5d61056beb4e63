"""Admission control: a bounded priority queue of simulation jobs.

The queue is the server's only admission point, and it implements the
properties a serving stack needs at the front door:

* **Backpressure** — depth is bounded; :meth:`JobQueue.push` raises
  :class:`QueueFull` when the bound is hit and the HTTP layer turns
  that into a 429 so clients back off instead of piling on.
* **Priorities with FIFO fairness** — lower ``priority`` values run
  first; within a priority class jobs run in arrival order (a
  monotonically increasing sequence number breaks heap ties).
* **Deadlines** — a job may carry a queue deadline; if it is still
  waiting when the deadline passes it is *expired* at dequeue time and
  never wastes a worker.
* **Cancellation** — queued jobs can be cancelled; they are dropped
  lazily when the heap surfaces them.

Coordination is asyncio-native (the HTTP server and the worker
supervisor share one event loop), with no threads or locks of its own.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.catalog import APP_CATALOG
from repro.devices.specs import DEVICES
from repro.obs.metrics import MetricsRegistry, latency_summary
from repro.policies.registry import available_policies
from repro.serve.spec import TERMINAL_STATES, RunRequest, canonical_size_bytes

DEFAULT_PRIORITY = 10
DEFAULT_TENANT = "default"

# Submission priorities are bounded: an open-ended integer range would
# let one absurd submission (priority=2**63) sort ahead of or behind
# everything forever, and the per-class metric labels assume a sane
# numeric neighborhood around DEFAULT_PRIORITY.
MIN_PRIORITY = 0
MAX_PRIORITY = 99


def priority_class(priority: int) -> str:
    """Label space for per-class latency metrics.

    Three stable classes instead of one label value per raw integer:
    an open-ended integer range would mint unbounded metric series.
    """
    if priority < DEFAULT_PRIORITY:
        return "high"
    if priority == DEFAULT_PRIORITY:
        return "normal"
    return "low"


class QueueFull(Exception):
    """Raised by :meth:`JobQueue.push` when the depth bound is hit."""


class BadSubmission(Exception):
    """Malformed submission; the HTTP layers map it to a 400."""


def parse_submission(payload: object) -> Tuple[dict, RunRequest]:
    """Split a ``POST /v1/runs`` body into its options and its request.

    The options (``priority``, ``timeout_s``, ``progress_interval_ms``,
    ``tenant``) shape the job, not the simulation, so the request's
    cache key never sees them.  Coordinator and node both call this
    before admission, so a malformed submission gets the same 400 from
    either tier and spends no rate-limit token.  Raises
    :class:`BadSubmission`.
    """
    if not isinstance(payload, dict):
        raise BadSubmission("request body must be a JSON object")
    payload = dict(payload)
    options = {
        "priority": payload.pop("priority", None),
        "timeout_s": payload.pop("timeout_s", None),
        "progress_interval_ms": payload.pop("progress_interval_ms", None),
        "tenant": payload.pop("tenant", None),
    }
    if options["priority"] is None:
        options["priority"] = DEFAULT_PRIORITY
    if options["tenant"] is None:
        options["tenant"] = DEFAULT_TENANT
    if (
        not isinstance(options["tenant"], str)
        or not options["tenant"]
        or len(options["tenant"]) > 64
    ):
        raise BadSubmission("tenant must be a non-empty string (<= 64 chars)")
    try:
        options["priority"] = int(options["priority"])
        if not MIN_PRIORITY <= options["priority"] <= MAX_PRIORITY:
            raise ValueError(
                f"priority must be between {MIN_PRIORITY} and "
                f"{MAX_PRIORITY} (lower runs first; default 10)"
            )
        if options["timeout_s"] is not None:
            options["timeout_s"] = float(options["timeout_s"])
            if options["timeout_s"] <= 0:
                raise ValueError("timeout_s must be positive")
        if options["progress_interval_ms"] is not None:
            options["progress_interval_ms"] = float(
                options["progress_interval_ms"]
            )
            if options["progress_interval_ms"] <= 0:
                raise ValueError("progress_interval_ms must be positive")
        request = RunRequest.from_dict(payload)
    except (TypeError, ValueError) as exc:
        raise BadSubmission(str(exc)) from None
    if request.policy not in available_policies():
        raise BadSubmission(
            f"unknown policy {request.policy!r}; "
            f"valid: {', '.join(available_policies())}"
        )
    if request.scenario not in APP_CATALOG and not request.known_scenario():
        raise BadSubmission(
            f"unknown scenario {request.scenario!r}; "
            f"valid scenario ids S-A..S-D or a catalog package name"
        )
    if request.device not in DEVICES:
        raise BadSubmission(
            f"unknown device {request.device!r}; "
            f"valid: {', '.join(sorted(DEVICES))}"
        )
    return options, request


class JobState:
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    EXPIRED = "expired"

    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED, EXPIRED)


@dataclass
class Job:
    """One submission's full lifecycle record.

    The job table keeps these around after completion so pollers and
    SSE streams can read terminal states; ``events`` accumulates the
    stream every ``GET /v1/runs/<id>/events`` replays and follows.

    ``events`` is bounded when ``max_events`` is set: the oldest events
    are dropped first (the terminal event is always the newest, so it
    survives), ``events_base`` records the absolute index of
    ``events[0]`` so SSE followers can tell replay loss from a fresh
    stream, and ``events_dropped`` counts the loss.  An unbounded event
    list is the same slow leak as an unbounded job table — one
    long-running job with progress sampling can accumulate tens of
    thousands of rows.
    """

    id: str
    request: RunRequest
    priority: int = DEFAULT_PRIORITY
    tenant: str = DEFAULT_TENANT
    # Monotonic loop time of submission; deadline is absolute loop time
    # (None = wait forever in queue).
    submitted_at: float = 0.0
    deadline_at: Optional[float] = None
    progress_interval_ms: Optional[float] = None
    state: str = JobState.QUEUED
    cache_hit: bool = False
    attempts: int = 0
    result: Optional[dict] = None
    error: Optional[str] = None
    # Request-lifecycle span timestamps (monotonic loop/queue-clock
    # time): enqueue → dispatch (popped for a free worker) → execute
    # (started_at/finished_at) → cache-store.
    enqueued_at: Optional[float] = None
    dispatched_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    stored_at: Optional[float] = None
    events: List[dict] = field(default_factory=list)
    # Event-list retention (None = unbounded, for direct constructions).
    max_events: Optional[int] = None
    events_base: int = 0
    events_dropped: int = 0
    # Progress rows of the current attempt added to ``events``, which is
    # also the index of the next row the server accepts.
    progress_rows: int = field(default=0, repr=False, compare=False)
    # Optional hook the server wires to its metrics counter so every
    # dropped event is visible on /metrics without the Job knowing
    # about registries.
    on_event_dropped: Optional[Callable[[], None]] = field(
        default=None, repr=False, compare=False
    )
    # Set once the server has folded this job into its terminal
    # accumulators (tenant accounting, latency histograms, retention);
    # guards the several paths a job can take to a terminal state from
    # double-counting it.
    finalized: bool = field(default=False, repr=False, compare=False)
    # Set by every add_event; SSE followers park on it between events
    # (created on first use, so it belongs to the server's loop).
    _wakeup: Optional[asyncio.Event] = field(
        default=None, repr=False, compare=False
    )

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def cache_key(self) -> str:
        return self.request.cache_key()

    @property
    def priority_class(self) -> str:
        return priority_class(self.priority)

    def spans(self) -> dict:
        """Derived per-phase durations (None while a phase is open)."""

        def delta(start, end):
            if start is None or end is None:
                return None
            return round(end - start, 6)

        return {
            "queue_wait_s": delta(self.enqueued_at, self.dispatched_at),
            "exec_s": delta(self.started_at, self.finished_at),
            "store_s": delta(self.finished_at, self.stored_at),
            "e2e_s": delta(self.submitted_at, self.finished_at),
        }

    def add_event(self, kind: str, data: Optional[dict] = None) -> None:
        """Append to the stream SSE followers replay and poll.

        When ``max_events`` is set the oldest events fall off the front
        of the list; followers detect the gap via ``events_base``.
        Parked followers (:meth:`wakeup`) are woken.  Terminal
        transitions all record an event, so they wake followers too.
        """
        self.events.append({"event": kind, "data": data or {}})
        if self.max_events is not None:
            while len(self.events) > max(1, self.max_events):
                self.events.pop(0)
                self.events_base += 1
                self.events_dropped += 1
                if self.on_event_dropped is not None:
                    self.on_event_dropped()
        if self._wakeup is not None:
            self._wakeup.set()

    def wakeup(self) -> asyncio.Event:
        """A cleared event that the next :meth:`add_event` sets.

        Shared by every follower of this job; a follower clears it only
        after seeing no new events (with no await in between), so no
        event can slip past a parked follower.
        """
        if self._wakeup is None:
            self._wakeup = asyncio.Event()
        self._wakeup.clear()
        return self._wakeup

    def snapshot(self) -> dict:
        """The JSON document ``GET /v1/runs/<id>`` serves."""
        return {
            "id": self.id,
            "state": self.state,
            "priority": self.priority,
            "priority_class": self.priority_class,
            "tenant": self.tenant,
            "cache_hit": self.cache_hit,
            "cache_key": self.cache_key,
            "attempts": self.attempts,
            "request": self.request.to_dict(),
            "result": self.result,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "enqueued_at": self.enqueued_at,
            "dispatched_at": self.dispatched_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "stored_at": self.stored_at,
            "spans": self.spans(),
            "events_dropped": self.events_dropped,
        }

    def summary(self) -> dict:
        """The fields a ``/v1/stats`` recent-runs row shows."""
        return {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state,
            "priority": self.priority,
            "cache_hit": self.cache_hit,
            "scenario": self.request.scenario,
            "policy": self.request.policy,
        }

    def tombstone(self, now: float) -> dict:
        """The small fixed-shape summary a 410 response serves."""
        return dict(
            self.summary(), evicted=True, evicted_at=now,
            priority_class=self.priority_class, cache_key=self.cache_key,
            error=self.error, submitted_at=self.submitted_at,
            finished_at=self.finished_at,
        )

    def retention_cost(self) -> int:
        # Events are charged too: a progress-sampled run's event list
        # can dwarf its snapshot.
        return canonical_size_bytes(self.snapshot()) + canonical_size_bytes(
            self.events
        )


async def _notify(cond: asyncio.Condition) -> None:
    async with cond:
        cond.notify_all()


class JobQueue:
    """Bounded, priority-ordered, deadline-aware asyncio job queue."""

    def __init__(self, maxsize: int = 64, clock=None, registry=None):
        if maxsize <= 0:
            raise ValueError("queue maxsize must be positive")
        self.maxsize = maxsize
        # Injectable clock (defaults to the running loop's monotonic
        # time) so deadline tests don't sleep real seconds.
        self._clock = clock
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._not_empty = asyncio.Condition()
        self._queued: Dict[str, Job] = {}
        self._closed = False
        # Fired for every job the queue expires (dequeue-time or via
        # :meth:`expire`), so the server can fold the job into tenant
        # and retention accounting — jobs expired inside the heap never
        # surface from :meth:`pop` and would otherwise be invisible.
        self.on_expired: Optional[Callable[[Job], None]] = None
        # Metrics: a private registry when none is shared keeps the
        # accounting identical whether or not a scrape endpoint exists
        # (stats() reads the same counters and histograms).
        registry = registry or MetricsRegistry()
        self._wait_hist = registry.histogram(
            "repro_serve_queue_wait_seconds",
            "Time between enqueue and dispatch to a worker slot, "
            "per priority class",
            labelnames=("priority_class",),
            min_value=0.001,
        )
        self._enqueued_counter = registry.counter(
            "repro_serve_queue_enqueued_total",
            "Jobs admitted to the queue", labelnames=("priority_class",),
        )
        self._expired_counter = registry.counter(
            "repro_serve_queue_expired_total",
            "Jobs whose deadline passed while still queued",
        )
        self._cancelled_counter = registry.counter(
            "repro_serve_queue_cancelled_total",
            "Queued jobs cancelled before dispatch",
        )
        registry.gauge(
            "repro_serve_queue_depth",
            "Jobs admitted and still waiting", fn=lambda: self.depth,
        )
        registry.gauge(
            "repro_serve_queue_capacity",
            "Depth bound before 429 backpressure", fn=lambda: self.maxsize,
        )

    # ------------------------------------------------------------------
    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return asyncio.get_event_loop().time()

    @property
    def depth(self) -> int:
        """Jobs admitted and still waiting (excludes lazy tombstones)."""
        return len(self._queued)

    # ------------------------------------------------------------------
    def push(self, job: Job) -> None:
        """Admit a job or raise :class:`QueueFull` (HTTP 429)."""
        if self.depth >= self.maxsize:
            raise QueueFull(
                f"queue full ({self.depth}/{self.maxsize} jobs waiting)"
            )
        job.state = JobState.QUEUED
        job.enqueued_at = self._now()
        heapq.heappush(self._heap, (job.priority, next(self._seq), job))
        self._queued[job.id] = job
        self._enqueued_counter.labels(job.priority_class).inc()
        job.add_event("queued", {
            "priority": job.priority, "depth": self.depth,
        })
        asyncio.ensure_future(_notify(self._not_empty))

    def expire(self, job: Job, reason: Optional[str] = None) -> None:
        """Expire a job through the one shared accounting path.

        Every deadline expiry — at dequeue time or pre-dispatch in the
        server's run loop — funnels here, so each one moves the
        ``repro_serve_queue_expired_total`` counter and reaches
        :attr:`on_expired` exactly once.  Idempotent: a job that already
        expired (or otherwise reached a terminal state) is left
        untouched.
        """
        if job.terminal:
            return
        now = self._now()
        job.state = JobState.EXPIRED
        job.finished_at = now
        job.error = reason or (
            f"queue deadline exceeded after "
            f"{now - job.submitted_at:.3f}s waiting"
        )
        self._expired_counter.inc()
        job.add_event("expired", {"error": job.error})
        if self.on_expired is not None:
            self.on_expired(job)

    def cancel(self, job_id: str) -> bool:
        """Cancel a *queued* job; returns False if it is not waiting."""
        job = self._queued.pop(job_id, None)
        if job is None:
            return False
        # The heap entry stays behind as a tombstone; pop() skips it.
        job.state = JobState.CANCELLED
        job.finished_at = self._now()
        self._cancelled_counter.inc()
        job.add_event("cancelled", {})
        return True

    async def pop(self) -> Optional[Job]:
        """Next runnable job in (priority, FIFO) order.

        Expired and cancelled entries are discarded as they surface.
        Returns ``None`` once the queue is closed and drained.
        """
        while True:
            job = self._pop_runnable()
            if job is not None:
                return job
            if self._closed:
                return None
            async with self._not_empty:
                await self._not_empty.wait_for(
                    lambda: bool(self._heap) or self._closed
                )

    def _pop_runnable(self) -> Optional[Job]:
        now = self._now()
        while self._heap:
            _prio, _seq, job = heapq.heappop(self._heap)
            if job.id not in self._queued:
                continue  # cancelled tombstone: never observed as latency
            del self._queued[job.id]
            if job.deadline_at is not None and now > job.deadline_at:
                self.expire(job)
                continue
            # Only genuinely dispatched jobs contribute to the wait
            # histograms; tombstones and expiries would skew p99 with
            # durations no worker ever saw.
            job.dispatched_at = now
            if job.enqueued_at is not None:
                self._wait_hist.labels(job.priority_class).observe(
                    now - job.enqueued_at
                )
            return job
        return None

    def close(self) -> None:
        """Stop blocking poppers (drain path); queued jobs still pop."""
        self._closed = True
        asyncio.ensure_future(_notify(self._not_empty))

    def cancel_all(self) -> List[Job]:
        """Cancel every waiting job (forced shutdown).

        Returns the cancelled jobs so the caller can fold them into the
        same per-tenant/terminal accounting a DELETE cancel gets
        (``ServerState.cancel``); otherwise tenant docs and queue totals
        would disagree after a hard drain.
        """
        cancelled: List[Job] = []
        for job_id in list(self._queued):
            job = self._queued.get(job_id)
            if job is not None and self.cancel(job_id):
                cancelled.append(job)
        return cancelled

    def stats(self) -> dict:
        return {
            "depth": self.depth,
            "capacity": self.maxsize,
            "enqueued_total": int(self._enqueued_counter.total),
            "expired_total": int(self._expired_counter.value),
            "cancelled_total": int(self._cancelled_counter.value),
            "queue_wait_s": latency_summary(self._wait_hist),
        }
