"""The serve plane's state core, split from its HTTP surface.

:class:`ServerState` owns everything a serve node *is* — the bounded
priority queue, the supervised worker fleet, the two-tier result
cache, the byte-budgeted job table, per-tenant accounting and the
drain protocol — while
:class:`repro.serve.http.SimulationServer` owns only how that state is
*reached* (request parsing, routing, SSE streaming, response
encoding).

The split exists because the fleet control plane needs the two halves
independently: the coordinator reuses the HTTP plumbing with entirely
different state behind it, and tests/loadtests drive a
:class:`ServerState` through ``submit()`` without a socket in sight.
Every accounting invariant the serve plane promises (one finalize path
per job, stats totals read from the /metrics counters) lives here, in
one place, regardless of which transport delivered the request.
"""

from __future__ import annotations

import asyncio
import tracemalloc
import uuid
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.obs.metrics import (
    MetricsRegistry,
    latency_summary,
    memory_snapshot,
)
from repro.serve.cache import DEFAULT_MEMORY_BUDGET_BYTES, ResultCache
from repro.serve.httpbase import SERVER_NAME
from repro.serve.queue import (
    BadSubmission,
    Job,
    JobQueue,
    JobState,
    QueueFull,
    parse_submission,
)
from repro.serve.retention import (
    DEFAULT_JOB_BUDGET_BYTES,
    DEFAULT_MAX_EVENTS_PER_JOB,
    DEFAULT_MIN_RETENTION_S,
    DEFAULT_TOMBSTONE_LIMIT,
    JobTable,
)
from repro.serve.workers import WorkerFleet

# How many recently submitted runs /v1/stats lists (fleet console).
RECENT_JOBS = 20


@dataclass
class ServeConfig:
    """One server instance's knobs."""

    host: str = "127.0.0.1"
    port: int = 8080  # 0 = ephemeral (tests)
    workers: int = 2
    queue_depth: int = 64
    cache_dir: Optional[str] = None
    drain_grace_s: float = 60.0
    # Memory-tier byte budget for the result cache (None = unbounded).
    cache_budget_bytes: Optional[int] = DEFAULT_MEMORY_BUDGET_BYTES
    # How often the RSS/tracemalloc gauges are re-sampled.
    mem_sample_interval_s: float = 10.0
    # Start tracemalloc at server start (costs ~2x on allocations but
    # attributes the Python heap precisely).
    enable_tracemalloc: bool = False
    # Idle SSE followers get a `: ping` comment frame at this interval
    # so read-timeout clients can tell a quiet stream from a dead one.
    sse_keepalive_s: float = 15.0
    # Terminal-job retention: canonical-JSON byte budget for finished
    # jobs (None = retain forever, the pre-retention behavior) and the
    # window inside which a finished job is never evicted.
    job_budget_bytes: Optional[int] = DEFAULT_JOB_BUDGET_BYTES
    job_min_retention_s: float = DEFAULT_MIN_RETENTION_S
    # Per-job event-list cap; SSE followers see a `dropped_events`
    # marker where history was lost (None = unbounded).
    max_events_per_job: Optional[int] = DEFAULT_MAX_EVENTS_PER_JOB
    # Fleet membership: set when this server runs as a registered node
    # behind a coordinator.  The coordinator stamps proxied submissions
    # with the node it routed to; a mismatch bumps
    # repro_fleet_misrouted_total (the request is still served — the
    # shared store makes any node able to answer).
    node_id: Optional[str] = None


class ServerState:
    """Queue + fleet + cache + accounting, transport-agnostic."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        # Per-instance registry: two servers in one process (tests)
        # must not collide on family names or blend their counters.
        self.registry = MetricsRegistry()
        self.cache = ResultCache(
            self.config.cache_dir,
            memory_budget_bytes=self.config.cache_budget_bytes,
            registry=self.registry,
        )
        self.queue = JobQueue(
            maxsize=self.config.queue_depth, registry=self.registry
        )
        self.fleet = WorkerFleet(
            size=self.config.workers,
            on_progress=self._on_progress,
            registry=self.registry,
        )
        self.table = JobTable(
            budget_bytes=self.config.job_budget_bytes,
            min_retention_s=self.config.job_min_retention_s,
            registry=self.registry,
        )
        # Dequeue-time expiries never surface from queue.pop(); the
        # callback folds them into tenant/retention accounting anyway.
        self.queue.on_expired = self._finalize_job
        self.draining = False
        self._supervisor_task: Optional[asyncio.Task] = None
        self._job_tasks: set = set()
        self._slots: Optional[asyncio.Semaphore] = None
        self._started_at: Optional[float] = None
        self._mem_task: Optional[asyncio.Task] = None
        self._memory_sample = memory_snapshot()
        # Per-tenant accumulators for the fleet console's rogue scores.
        self.tenants: Dict[str, dict] = {}
        self._recent: deque = deque(maxlen=RECENT_JOBS)
        # A fleet node's finished runs, id -> terminal state, until its
        # coordinator acknowledges them on a heartbeat; bounded like the
        # tombstones, oldest dropped first.
        self.finished: "OrderedDict[str, str]" = OrderedDict()
        self._submitted_counter = self.registry.counter(
            "repro_serve_jobs_submitted_total",
            "Submissions admitted (including cache hits)",
        )
        self._cache_hit_jobs_counter = self.registry.counter(
            "repro_serve_cache_hit_jobs_total",
            "Submissions answered from the result cache without queueing",
        )
        self._events_dropped_counter = self.registry.counter(
            "repro_serve_job_events_dropped_total",
            "Per-job lifecycle events dropped by the max_events_per_job cap",
        )
        self._e2e_hist = self.registry.histogram(
            "repro_serve_e2e_seconds",
            "Submit-to-done latency per priority class "
            "(includes cache hits)",
            labelnames=("priority_class",),
            min_value=0.001,
        )
        self._rss_gauge = self.registry.gauge(
            "repro_process_rss_bytes",
            "Resident set size sampled every mem_sample_interval_s",
        )
        self._tm_current_gauge = self.registry.gauge(
            "repro_process_tracemalloc_bytes",
            "tracemalloc-traced Python heap (0 when not tracing)",
        )
        self._tm_peak_gauge = self.registry.gauge(
            "repro_process_tracemalloc_peak_bytes",
            "tracemalloc peak traced heap (0 when not tracing)",
        )
        self.registry.gauge(
            "repro_serve_uptime_seconds", "Seconds since server start",
            fn=lambda: self.healthz()["uptime_s"],
        )
        # Fleet-facing observability, registered only in fleet mode so
        # a plain single-node scrape stays free of dead families.
        self._misrouted_counter = None
        if self.config.node_id is not None:
            self._misrouted_counter = self.registry.counter(
                "repro_fleet_misrouted_total",
                "Submissions the coordinator routed to a different node "
                "than the one that served them",
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spin up the fleet and background tasks on the running loop."""
        loop = asyncio.get_event_loop()
        self._started_at = loop.time()
        if self.config.enable_tracemalloc and not tracemalloc.is_tracing():
            tracemalloc.start()
        self.fleet.start(loop)
        self._slots = asyncio.Semaphore(self.config.workers)
        self._supervisor_task = asyncio.ensure_future(self._supervise())
        self.sample_memory()
        self._mem_task = asyncio.ensure_future(self._memory_sampler())

    async def drain(self, grace_s: Optional[float] = None) -> None:
        """Graceful drain: settle in-flight work, then stop the fleet."""
        self.draining = True
        self.queue.close()

        async def settle() -> None:
            if self._supervisor_task is not None:
                await self._supervisor_task
            if self._job_tasks:
                await asyncio.gather(
                    *list(self._job_tasks), return_exceptions=True
                )

        grace = grace_s if grace_s is not None else self.config.drain_grace_s
        try:
            await asyncio.wait_for(settle(), timeout=grace)
        except asyncio.TimeoutError:
            # Grace expired: drop what's left.  The swept jobs go
            # through the same terminal accounting as a DELETE cancel,
            # so tenant docs and queue totals agree after a hard drain.
            for job in self.queue.cancel_all():
                self._finalize_job(job)
            for task in list(self._job_tasks):
                task.cancel()
            await asyncio.gather(*list(self._job_tasks), return_exceptions=True)
        if self._mem_task is not None:
            self._mem_task.cancel()
        self.fleet.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    def sample_memory(self) -> dict:
        sample = memory_snapshot()
        self._memory_sample = sample
        self._rss_gauge.set(sample["rss_bytes"])
        self._tm_current_gauge.set(sample["tracemalloc"]["current_bytes"])
        self._tm_peak_gauge.set(sample["tracemalloc"]["peak_bytes"])
        return sample

    async def _memory_sampler(self) -> None:
        """Refresh the RSS/tracemalloc gauges on a fixed interval.

        The same tick re-runs the job-table GC: a burst of results can
        leave the table over budget but inside the min-retention
        window, and with no further submissions nothing else would
        re-enforce the budget once the window passes.
        """
        interval = max(0.05, self.config.mem_sample_interval_s)
        while True:
            await asyncio.sleep(interval)
            self.sample_memory()
            self.table.gc()

    # ------------------------------------------------------------------
    # Supervision: queue -> fleet
    # ------------------------------------------------------------------
    async def _supervise(self) -> None:
        """Feed the fleet one job per free worker slot, forever.

        Acquiring a slot *before* popping keeps waiting jobs inside the
        priority queue (where deadlines and cancellation still apply)
        instead of parking them in the pool's opaque internal queue.
        """
        while True:
            await self._slots.acquire()
            job = await self.queue.pop()
            if job is None:  # closed and drained
                self._slots.release()
                return
            task = asyncio.ensure_future(self._run_job(job))
            self._job_tasks.add(task)
            task.add_done_callback(self._job_tasks.discard)

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_event_loop()
        try:
            remaining: Optional[float] = None
            if job.deadline_at is not None:
                remaining = job.deadline_at - loop.time()
                if remaining <= 0:
                    # One accounting path with dequeue-time expiry:
                    # queue.expire counts it and finalizes the job.
                    self.queue.expire(
                        job,
                        reason="deadline exceeded before a worker was free",
                    )
                    return
            job.state = JobState.RUNNING
            job.started_at = loop.time()
            job.add_event("started", {
                "queued_s": round(job.started_at - job.submitted_at, 4),
                "attempt": job.attempts + 1,
            })
            try:
                run = self.fleet.run(job)
                if remaining is not None:
                    outcome = await asyncio.wait_for(run, timeout=remaining)
                else:
                    outcome = await run
            except asyncio.TimeoutError:
                job.state = JobState.FAILED
                job.error = (
                    f"deadline exceeded after "
                    f"{loop.time() - job.submitted_at:.3f}s"
                )
                job.add_event("failed", {"error": job.error})
                return  # slot release deferred if the attempt lives on
            except asyncio.CancelledError:
                job.state = JobState.CANCELLED
                job.error = "server shut down before the job finished"
                job.add_event("cancelled", {"error": job.error})
                raise
            except Exception as exc:  # WorkerCrashed, sim errors, pickling
                job.state = JobState.FAILED
                job.error = f"{type(exc).__name__}: {exc}"
                job.add_event("failed", {"error": job.error})
                return
            # The result can overtake the attempt's last progress rows,
            # which travel through the fleet's drain thread, and a row
            # that finds its job terminal is dropped: the worker returns
            # every row, so the missing ones go out here, before ``done``.
            for data in outcome["progress"][job.progress_rows:]:
                job.add_event("sample", data)
            job.result = outcome["result"]
            job.state = JobState.DONE
            job.finished_at = loop.time()
            self.cache.put(
                job.cache_key, job.result, request=job.request.to_dict()
            )
            job.stored_at = loop.time()
            job.add_event("done", {
                "cache_hit": False,
                "worker_pid": outcome.get("worker_pid"),
                "fps": job.result.get("fps"),
                "refault": job.result.get("refault"),
            })
        finally:
            if job.finished_at is None:
                job.finished_at = loop.time()
            self._finalize_job(job)
            # A deadline timeout cancels the awaiting coroutine but a
            # pool process cannot be interrupted mid-call: the worker
            # keeps executing, so releasing the slot now would let the
            # supervisor dispatch more jobs than there are free
            # workers.  Hold the slot until the abandoned attempt
            # actually returns.
            drain = self.fleet.abandoned_drain(job.id)
            if drain is None:
                self._slots.release()
            else:
                task = asyncio.ensure_future(self._release_slot_after(drain))
                self._job_tasks.add(task)
                task.add_done_callback(self._job_tasks.discard)

    async def _release_slot_after(self, drain) -> None:
        try:
            await drain
        finally:
            self._slots.release()

    def _tenant_acc(self, tenant: str) -> dict:
        acc = self.tenants.get(tenant)
        if acc is None:
            acc = self.tenants[tenant] = {
                "submitted": 0, "cache_hits": 0, "done": 0, "failed": 0,
                "expired": 0, "cancelled": 0,
                "exec_s": 0.0, "queue_wait_s": 0.0,
            }
        return acc

    def _finalize_job(self, job: Job) -> None:
        """Fold a newly terminal job into every accumulator — once.

        Jobs reach terminal states down several paths (worker return,
        cache hit, DELETE cancel, queue expiry, forced drain); this is
        the single place tenant accounting, latency histograms,
        job-table retention and a fleet node's finished-run report
        happen, and the ``finalized`` flag makes a second arrival a
        no-op.
        """
        if job.finalized or not job.terminal:
            return
        job.finalized = True
        acc = self._tenant_acc(job.tenant)
        spans = job.spans()
        if spans["queue_wait_s"] is not None:
            acc["queue_wait_s"] += spans["queue_wait_s"]
        if job.state == JobState.DONE:
            acc["done"] += 1
            if spans["exec_s"] is not None:
                acc["exec_s"] += spans["exec_s"]
            if spans["e2e_s"] is not None:
                self._e2e_hist.labels(job.priority_class).observe(
                    spans["e2e_s"]
                )
        elif job.state == JobState.FAILED:
            acc["failed"] += 1
            if spans["exec_s"] is not None:
                acc["exec_s"] += spans["exec_s"]
        elif job.state == JobState.EXPIRED:
            acc["expired"] += 1
        elif job.state == JobState.CANCELLED:
            acc["cancelled"] += 1
        self.table.note_terminal(job)
        if self.config.node_id is not None:
            self.finished[job.id] = job.state
            if len(self.finished) > DEFAULT_TOMBSTONE_LIMIT:
                self.finished.popitem(last=False)

    def _on_progress(self, message: dict) -> None:
        job = self.table.get(message.get("job_id", ""))
        # An attempt's rows arrive in order.  A row with another index is
        # a late row of an attempt whose worker died; the retry, being
        # deterministic, sends the same row again.
        if (
            job is not None
            and not job.terminal
            and message["row"] == job.progress_rows
        ):
            job.progress_rows += 1
            job.add_event(message["event"], message["data"])

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, payload: dict) -> Tuple[int, Job]:
        """Admit one request; returns ``(http_status, job)``.

        Raises :class:`BadSubmission` for malformed payloads and
        :class:`QueueFull` for backpressure.
        """
        if self.draining:
            raise BadSubmission("server is draining")  # callers map to 503
        options, request = parse_submission(payload)
        loop = asyncio.get_event_loop()
        job = Job(
            id=f"run-{uuid.uuid4().hex[:12]}",
            request=request,
            priority=options["priority"],
            tenant=options["tenant"],
            submitted_at=loop.time(),
            progress_interval_ms=options["progress_interval_ms"],
            max_events=self.config.max_events_per_job,
            on_event_dropped=self._events_dropped_counter.inc,
        )
        timeout_s = options["timeout_s"]
        if timeout_s is not None:
            job.deadline_at = job.submitted_at + timeout_s

        self._submitted_counter.inc()
        acc = self._tenant_acc(job.tenant)
        acc["submitted"] += 1
        cached = self.cache.get(job.cache_key)
        if cached is not None:
            # Served straight from the content address: no queueing, no
            # worker, terminal immediately.
            job.cache_hit = True
            job.result = cached
            job.state = JobState.DONE
            job.finished_at = loop.time()
            self._cache_hit_jobs_counter.inc()
            acc["cache_hits"] += 1
            self.table.add(job)
            self._recent.append(job.id)
            job.add_event("done", {
                "cache_hit": True,
                "fps": cached.get("fps"),
                "refault": cached.get("refault"),
            })
            self._finalize_job(job)  # done count, e2e latency, retention
            return 200, job
        self.queue.push(job)  # may raise QueueFull -> 429
        self.table.add(job)
        self._recent.append(job.id)
        return 202, job

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job and finalize it; False if it is not waiting."""
        if not self.queue.cancel(job_id):
            return False
        self._finalize_job(self.table.get(job_id))
        return True

    def note_misrouted(self, routed_to: Optional[str]) -> None:
        """Count a submission the coordinator aimed at another node (it
        is served anyway: to the shared store that is only a cold cache)."""
        if self._misrouted_counter is not None and routed_to not in (
            None, self.config.node_id,
        ):
            self._misrouted_counter.inc()

    # ------------------------------------------------------------------
    # Introspection documents
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        loop = asyncio.get_event_loop()
        uptime = (
            loop.time() - self._started_at if self._started_at is not None
            else 0.0
        )
        doc = {
            "status": "draining" if self.draining else "ok",
            "server": SERVER_NAME,
            "uptime_s": round(uptime, 3),
        }
        if self.config.node_id is not None:
            doc["node_id"] = self.config.node_id
        return doc

    def stats(self) -> dict:
        states = {state: 0 for state in JobState.ALL}
        for job in self.table.jobs.values():
            states[job.state] += 1
        queue_stats = self.queue.stats()
        fleet_stats = self.fleet.stats()
        cache_stats = self.cache.stats()
        doc = self.healthz()
        doc.update({
            "jobs": {
                "submitted_total": int(self._submitted_counter.value),
                "cache_hits": int(self._cache_hit_jobs_counter.value),
                "events_dropped_total": int(
                    self._events_dropped_counter.value
                ),
                **states,
            },
            "queue": queue_stats,
            "retention": self.table.stats(),
            "cache": cache_stats,
            "workers": fleet_stats,
            "latency": {
                "queue_wait_s": queue_stats["queue_wait_s"],
                "exec_s": fleet_stats["exec_s"],
                "e2e_s": latency_summary(self._e2e_hist),
            },
            "memory": {
                **self._memory_sample,
                "cache_memory_bytes": self.cache.memory_bytes,
                "cache_budget_bytes": self.cache.memory_budget_bytes,
            },
            "tenants": self._tenant_docs(),
            "recent": [
                self._recent_doc(job_id) for job_id in reversed(self._recent)
            ],
        })
        if self.config.node_id is not None:
            doc["fleet"] = {
                "node_id": self.config.node_id,
                "misrouted_total": int(self._misrouted_counter.value),
            }
        return doc

    def _recent_doc(self, job_id: str) -> dict:
        # A tight retention budget can evict a run while it is still in
        # the recent ring; the console row survives via its tombstone,
        # which starts with the same summary.
        job, tombstone = self.table.lookup(job_id)
        if job is not None:
            return job.summary()
        return tombstone or {"id": job_id, "state": "evicted", "evicted": True}

    def _tenant_docs(self) -> Dict[str, dict]:
        """Per-tenant shares and a blended rogue score.

        The score maps the SNIPPETS "rogue hunter" dimensions onto
        queue behavior: blocking (40%) = share of jobs currently
        parked in the queue, contention (30%) = share of all worker
        execution seconds consumed, pressure (20%) = share of total
        submissions, inefficiency (10%) = own failure rate.  1.0 means
        one tenant owns the whole fleet's pain.
        """
        queued_by_tenant: Dict[str, int] = {}
        for job in self.table.jobs.values():
            if job.state == JobState.QUEUED:
                queued_by_tenant[job.tenant] = (
                    queued_by_tenant.get(job.tenant, 0) + 1
                )
        total_queued = sum(queued_by_tenant.values())
        total_exec = sum(acc["exec_s"] for acc in self.tenants.values())
        total_submitted = sum(
            acc["submitted"] for acc in self.tenants.values()
        )
        docs: Dict[str, dict] = {}
        for tenant, acc in sorted(self.tenants.items()):
            queued = queued_by_tenant.get(tenant, 0)
            queue_share = queued / total_queued if total_queued else 0.0
            exec_share = (
                acc["exec_s"] / total_exec if total_exec else 0.0
            )
            submit_share = (
                acc["submitted"] / total_submitted if total_submitted else 0.0
            )
            attempts = acc["done"] + acc["failed"]
            failure_rate = acc["failed"] / attempts if attempts else 0.0
            rogue = (
                0.4 * queue_share
                + 0.3 * exec_share
                + 0.2 * submit_share
                + 0.1 * failure_rate
            )
            docs[tenant] = {
                **{k: round(v, 4) if isinstance(v, float) else v
                   for k, v in acc.items()},
                "queued_now": queued,
                "queue_share": round(queue_share, 4),
                "exec_share": round(exec_share, 4),
                "submit_share": round(submit_share, 4),
                "failure_rate": round(failure_rate, 4),
                "rogue_score": round(rogue, 4),
            }
        return docs
