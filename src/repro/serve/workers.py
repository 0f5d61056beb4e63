"""The worker fleet: simulations fan out to a process pool.

Simulations are CPU-bound pure-Python work, so the fleet runs them in a
``ProcessPoolExecutor`` — the same fan-out mechanism as ``repro bench
--jobs`` — and relies on the same property: every ``run_scenario``
builds its own system, which owns its page slab and its page/task/pid
id sequences, so a run executed 5th in a pool worker is bit-identical
to the same request run directly from the CLI.  That property is what
makes the content-addressed cache sound.

Supervision details:

* **Crash detection** — a worker that dies (OOM-kill, segfault,
  ``os._exit``) surfaces as ``BrokenProcessPool``; the fleet rebuilds
  the pool and retries the job up to ``MAX_RETRIES`` times before
  failing it.  Simulation errors (unknown scenario/policy, bad
  config) are *not* retried: they are deterministic and would fail
  identically every time.
* **Progress streaming** — workers cannot touch the server's event
  loop, so each pool process inherits one shared ``multiprocessing``
  queue (via the pool initializer); when a job asks for progress the
  worker attaches a :class:`~repro.trace.sampler.Sampler` to its run
  and pushes a compact row per sample.  A drain thread forwards rows
  onto the loop, where they become SSE events.  Progress sampling adds
  sampler ticks to ``events_executed`` (paper metrics are unaffected),
  so it is off unless the submission requests it.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor, wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional

from repro.serve.spec import RunRequest

# The subset of sampler columns worth streaming per progress tick —
# enough to draw a live FPS/pressure dashboard without shipping every
# series over SSE.
PROGRESS_SAMPLE_KEYS = (
    "fps",
    "free_pages",
    "available_pages",
    "refault_total",
    "pgsteal",
    "cpu_utilization",
    "psi_mem_some_avg10",
    "frozen_processes",
)

# Retries of a job whose worker process died.
MAX_RETRIES = 1


class WorkerCrashed(Exception):
    """A job's worker process died more times than ``MAX_RETRIES``."""


# Set in each pool process by the initializer; the parent's drain
# thread reads the other end.
_PROGRESS_QUEUE = None


def _init_worker(progress_queue) -> None:
    global _PROGRESS_QUEUE
    _PROGRESS_QUEUE = progress_queue


def _warmup() -> int:
    """Pre-import the simulator so the first real job starts hot."""
    import repro.experiments.scenarios  # noqa: F401  (import for side effect)

    return os.getpid()


def execute_request(payload) -> dict:
    """Pool entry point: run one request, return its scalar result.

    ``payload`` is ``(job_id, request_dict, progress_interval_ms)``;
    the request travels as a plain dict because the frozen dataclass is
    rebuilt worker-side anyway (cheap) and dicts survive any pickle
    protocol drift.
    """
    job_id, request_dict, progress_interval_ms = payload
    # Imported here so that importing this module loads no simulator;
    # a forked worker inherited it from the node (see ``_build_pool``).
    from repro.experiments.scenarios import run_request

    request = RunRequest.from_dict(request_dict)
    # The previous job's system, its page slab included, is cyclic
    # garbage by now.  Collecting the young generations (about a
    # millisecond) frees it before this run allocates, instead of letting
    # the dead systems of many jobs wait for the collector's rare full
    # passes.
    gc.collect(1)
    on_sample = None
    progress: list = []
    if progress_interval_ms and _PROGRESS_QUEUE is not None:
        queue = _PROGRESS_QUEUE

        def on_sample(now_ms: float, row: dict) -> None:
            data = {"now_ms": now_ms}
            for key in PROGRESS_SAMPLE_KEYS:
                data[key] = round(float(row[key]), 3)
            queue.put({
                "job_id": job_id, "event": "sample",
                "row": len(progress), "data": data,
            })
            progress.append(data)

    result = run_request(
        request,
        sample_interval_ms=progress_interval_ms or None,
        on_sample=on_sample,
    )
    # The rows come back with the result too: the server sends any that
    # the result overtook before ``done``.
    return {
        "result": result.to_dict(),
        "worker_pid": os.getpid(),
        "progress": progress,
    }


class WorkerFleet:
    """Supervised ``ProcessPoolExecutor`` with crash retry and stats."""

    def __init__(
        self,
        size: int = 2,
        on_progress: Optional[Callable[[dict], None]] = None,
        registry=None,
    ):
        if size <= 0:
            raise ValueError("fleet size must be positive")
        self.size = size
        self.on_progress = on_progress
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._progress_queue = None
        self._drain_thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.busy = 0
        # Attempts whose job gave up (deadline fired, caller cancelled)
        # while the pool process was still executing.  A pool worker
        # cannot be interrupted mid-call, so the attempt stays counted
        # busy until the process actually returns — releasing the slot
        # at cancel time would over-admit the fleet.
        self.abandoned = 0
        self._abandoned_drains: dict = {}
        # Metrics (a private registry when none is shared, so stats()
        # reads the same counters and exec latencies without a scrape
        # endpoint).
        from repro.obs.metrics import MetricsRegistry

        registry = registry or MetricsRegistry()
        self._exec_hist = registry.histogram(
            "repro_serve_exec_seconds",
            "Worker wall-clock per successful attempt, per priority class",
            labelnames=("priority_class",),
            min_value=0.001,
        )
        self._counters = {
            name: registry.counter(f"repro_serve_worker_{name}_total", help_text)
            for name, help_text in (
                ("started", "Job attempts handed to the pool"),
                ("completed", "Attempts that returned a result"),
                ("failed", "Jobs failed after exhausting retries"),
                ("retries", "Attempts retried after a worker crash"),
                ("crashes", "BrokenProcessPool events observed"),
                ("abandoned", "Attempts abandoned by a deadline while "
                              "still executing on a pool process"),
            )
        }
        registry.gauge(
            "repro_serve_workers_busy",
            "Attempts currently executing on the pool "
            "(includes abandoned attempts still running)",
            fn=lambda: self.busy,
        )
        registry.gauge(
            "repro_serve_workers_abandoned",
            "Abandoned attempts still executing on a pool process",
            fn=lambda: self.abandoned,
        )
        registry.gauge(
            "repro_serve_workers_size",
            "Configured pool size", fn=lambda: self.size,
        )
        registry.gauge(
            "repro_serve_worker_utilization",
            "busy / pool size", fn=lambda: self.utilization,
        )

    # ------------------------------------------------------------------
    def start(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        if self._pool is not None:
            return
        self._loop = loop or asyncio.get_event_loop()
        self._progress_queue = multiprocessing.Queue()
        self._build_pool()
        self._drain_thread = threading.Thread(
            target=self._drain_progress, name="serve-progress-drain",
            daemon=True,
        )
        self._drain_thread.start()

    def _build_pool(self) -> None:
        # Nothing else in the serve plane imports the simulator.  Import
        # it here, once, with every built-in policy, so the workers
        # forked below inherit it: a worker importing it itself would
        # hold the event loop thread, which waits for the warm-up on
        # every pool rebuild.
        import repro.experiments.scenarios  # noqa: F401
        from repro.policies.registry import import_builtin_policies

        import_builtin_policies()
        self._pool = ProcessPoolExecutor(
            max_workers=self.size,
            initializer=_init_worker,
            initargs=(self._progress_queue,),
        )
        # Spawn the whole fleet now; the executor otherwise forks lazily
        # at first submit.  A fork duplicates every open fd, and the
        # child releases the server's sockets among them (the at-fork
        # hook in ``repro.serve.httpbase``), so a pool rebuilt while
        # clients are connected holds none of their connections.  Under
        # a start method that does not fork, the warm-up is also where
        # each worker imports the simulator.
        _futures_wait([self._pool.submit(_warmup) for _ in range(self.size)])

    def _rebuild_pool(self, broken: ProcessPoolExecutor) -> None:
        """Replace a broken pool exactly once, however many jobs saw
        the same ``BrokenProcessPool``."""
        with self._pool_lock:
            if self._pool is broken:
                broken.shutdown(wait=False)
                self._build_pool()

    def _drain_progress(self) -> None:
        # Read until the sentinel even once rows can no longer be
        # forwarded: a pool process exits only after its queue feeder
        # has written every row, so an unread pipe would hang shutdown.
        forward = self.on_progress is not None and self._loop is not None
        while True:
            message = self._progress_queue.get()
            if message is None:
                return
            if forward:
                try:
                    self._loop.call_soon_threadsafe(self.on_progress, message)
                except RuntimeError:
                    forward = False  # loop closed during shutdown

    # ------------------------------------------------------------------
    async def run(self, job) -> dict:
        """Run one job to completion on the fleet.

        Retries only pool breakage; raises the simulation's own
        exception unchanged otherwise.  ``asyncio.TimeoutError``
        propagates to the caller if the job's deadline fires mid-run
        (the caller applies the deadline via ``wait_for``).
        """
        if self._pool is None:
            raise RuntimeError("fleet not started")
        loop = asyncio.get_event_loop()
        last_error: Optional[BaseException] = None
        for attempt in range(MAX_RETRIES + 1):
            pool = self._pool
            job.attempts += 1
            job.progress_rows = 0  # a retried attempt streams afresh
            self._counters["started"].inc()
            self.busy += 1
            attempt_started = loop.time()
            future = None
            abandoned = False
            try:
                future = pool.submit(
                    execute_request,
                    (job.id, job.request.to_dict(), job.progress_interval_ms),
                )
                outcome = await asyncio.wrap_future(future)
            except BrokenProcessPool as exc:
                self._counters["crashes"].inc()
                last_error = exc
                self._rebuild_pool(pool)
                if attempt < MAX_RETRIES:
                    self._counters["retries"].inc()
                    job.add_event("retry", {
                        "attempt": job.attempts,
                        "reason": "worker process died",
                    })
                    continue
            except asyncio.CancelledError:
                # wrap_future already tried to cancel the pool future.
                # If it was still pending the cancel stuck and the slot
                # really is free; if the worker is mid-call it cannot
                # be stopped, so the attempt stays accounted busy until
                # the process returns (`abandoned_drain` resolves then).
                if future is not None and not future.cancelled():
                    abandoned = True
                    self._abandon(job.id, future)
                raise
            except Exception:
                self._counters["failed"].inc()
                raise
            else:
                self._counters["completed"].inc()
                self._exec_hist.labels(job.priority_class).observe(
                    loop.time() - attempt_started
                )
                return outcome
            finally:
                if not abandoned:
                    self.busy -= 1
        self._counters["failed"].inc()
        raise WorkerCrashed(
            f"worker died {job.attempts} time(s) running {job.id}"
        ) from last_error

    # ------------------------------------------------------------------
    # Abandoned attempts: deadline fired, worker still executing
    # ------------------------------------------------------------------
    def _abandon(self, job_id: str, future) -> None:
        self.abandoned += 1
        self._counters["abandoned"].inc()
        drain = self._loop.create_future()
        self._abandoned_drains[job_id] = drain
        # The pool future completes on an executor thread; hop back to
        # the loop before touching fleet state or resolving the drain.
        def _done(_f, job_id=job_id) -> None:
            try:
                self._loop.call_soon_threadsafe(self._abandoned_done, job_id)
            except RuntimeError:
                pass  # loop already closed during shutdown
        future.add_done_callback(_done)

    def _abandoned_done(self, job_id: str) -> None:
        self.busy -= 1
        self.abandoned -= 1
        drain = self._abandoned_drains.pop(job_id, None)
        if drain is not None and not drain.done():
            drain.set_result(None)

    def abandoned_drain(self, job_id: str):
        """Awaitable resolved when the job's abandoned attempt returns.

        ``None`` when the job has no attempt still executing — the
        common case, where the caller may free the worker slot at once.
        """
        return self._abandoned_drains.get(job_id)

    # ------------------------------------------------------------------
    @property
    def utilization(self) -> float:
        return self.busy / self.size if self.size else 0.0

    def stats(self) -> dict:
        from repro.obs.metrics import latency_summary

        def total(name: str) -> int:
            return int(self._counters[name].value)

        return {
            "pool_size": self.size,
            "busy": self.busy,
            "utilization": round(self.utilization, 4),
            "started_total": total("started"),
            "completed_total": total("completed"),
            "failed_total": total("failed"),
            "retries_total": total("retries"),
            "crashes_total": total("crashes"),
            "abandoned": self.abandoned,
            "abandoned_total": total("abandoned"),
            "exec_s": latency_summary(self._exec_hist),
        }

    def shutdown(self, wait: bool = True) -> None:
        # The pool goes first, while the drain thread still reads its
        # rows (see ``_drain_progress``); the sentinel then lands after
        # the last row a finished worker wrote.
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None
        if self._progress_queue is not None:
            try:
                self._progress_queue.put(None)  # stop the drain thread
            except (OSError, ValueError):
                pass
        if self._drain_thread is not None:
            self._drain_thread.join(timeout=2.0)
            self._drain_thread = None
        if self._progress_queue is not None:
            self._progress_queue.close()
            self._progress_queue = None
