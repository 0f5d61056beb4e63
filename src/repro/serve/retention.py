"""Terminal-entry retention: a byte-budgeted table with tombstones.

Both tiers of the serve plane keep one entry per admitted run so that
pollers and SSE followers can read its final state: a node keeps its
:class:`~repro.serve.queue.Job`, the fleet coordinator its
``CoordJob``.  Kept forever, either is a slow leak: ten thousand
submissions quietly cost tens of MB of RSS that never come back.

:class:`JobTable` applies the same canonical-size budgeting the
:class:`~repro.serve.cache.ResultCache` memory tier uses:

* **Byte-costed GC** — when an entry reaches a terminal state it is
  charged its ``retention_cost()`` (computed once; terminal entries
  never grow), and the table evicts the oldest terminal entries while
  the total exceeds ``budget_bytes``.
* **Min-retention window** — an entry is never evicted within
  ``min_retention_s`` of finishing, so a client that just submitted
  can always poll its result; the budget is therefore enforced once
  the window has passed (and re-checked by the periodic GC tick).
* **Tombstones, not 404s** — eviction keeps the entry's
  ``tombstone(now)``, a small summary document, so
  ``GET /v1/runs/<id>`` answers 410 Gone with the run's final state
  instead of pretending the run never existed.  Tombstones are
  themselves bounded (``tombstone_limit``, oldest dropped first).

The table knows an entry only through ``id``, ``terminal``,
``retention_cost()`` and ``tombstone(now)``.  Entries that are not
terminal are never evicted, so the GC can never orphan in-flight work.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

# Terminal entries retained under ~16 MB by default: enough for thousands
# of small-result runs, bounded for a server that lives for days.
DEFAULT_JOB_BUDGET_BYTES = 16 * 1024 * 1024
DEFAULT_MIN_RETENTION_S = 30.0
DEFAULT_TOMBSTONE_LIMIT = 4096
# Per-job event-list bound applied by the server at submission.
DEFAULT_MAX_EVENTS_PER_JOB = 512


class JobTable:
    """Run registry with byte-budgeted terminal-entry garbage collection."""

    def __init__(
        self,
        budget_bytes: Optional[int] = DEFAULT_JOB_BUDGET_BYTES,
        min_retention_s: float = DEFAULT_MIN_RETENTION_S,
        tombstone_limit: int = DEFAULT_TOMBSTONE_LIMIT,
        clock=None,
        registry=None,
    ):
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError("job budget_bytes must be positive or None")
        if min_retention_s < 0:
            raise ValueError("min_retention_s must be >= 0")
        if tombstone_limit < 0:
            raise ValueError("tombstone_limit must be >= 0")
        self.budget_bytes = budget_bytes
        self.min_retention_s = min_retention_s
        self.tombstone_limit = tombstone_limit
        self._clock = clock
        # All live + retained-terminal entries, by id.
        self.jobs: Dict[str, Any] = {}
        # Terminal entries in completion order (the GC's eviction order)
        # mapped to the loop time they were folded in and their cost.
        self._terminal: "OrderedDict[str, Tuple[float, int]]" = OrderedDict()
        self.terminal_bytes = 0
        self._tombstones: "OrderedDict[str, dict]" = OrderedDict()
        # No family counts dropped tombstones, so this stays a plain count.
        self.tombstones_dropped_total = 0
        registry = registry or MetricsRegistry()
        self._evicted_counter = registry.counter(
            "repro_serve_jobs_evicted_total",
            "Terminal jobs evicted from the job table to honor the "
            "byte budget (each leaves a tombstone)",
        )
        registry.gauge(
            "repro_serve_jobs_retained",
            "Jobs (live + terminal) currently held by the job table",
            fn=lambda: len(self.jobs),
        )
        registry.gauge(
            "repro_serve_job_table_bytes",
            "Canonical-JSON bytes charged to retained terminal jobs",
            fn=lambda: self.terminal_bytes,
        )
        registry.gauge(
            "repro_serve_job_table_budget_bytes",
            "Terminal-job retention budget (0 = unbounded)",
            fn=lambda: self.budget_bytes or 0,
        )
        registry.gauge(
            "repro_serve_job_tombstones",
            "Eviction tombstones currently answering 410 Gone",
            fn=lambda: len(self._tombstones),
        )

    # ------------------------------------------------------------------
    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        return asyncio.get_event_loop().time()

    def __len__(self) -> int:
        return len(self.jobs)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self.jobs

    def get(self, job_id: str) -> Optional[Any]:
        return self.jobs.get(job_id)

    def add(self, job) -> None:
        """Register a freshly admitted entry (live, uncharged)."""
        self.jobs[job.id] = job

    def lookup(self, job_id: str) -> Tuple[Optional[Any], Optional[dict]]:
        """``(entry, None)``, ``(None, tombstone)``, or ``(None, None)``."""
        job = self.jobs.get(job_id)
        if job is not None:
            return job, None
        return None, self._tombstones.get(job_id)

    # ------------------------------------------------------------------
    # Terminal accounting + GC
    # ------------------------------------------------------------------
    def note_terminal(self, job) -> None:
        """Charge a newly terminal entry its retention cost (idempotent)."""
        if job.id in self._terminal or job.id not in self.jobs:
            return
        if not job.terminal:
            return
        # Terminal entries never mutate, so the cost is computed once.
        cost = job.retention_cost()
        self._terminal[job.id] = (self._now(), cost)
        self.terminal_bytes += cost
        self.gc()

    def gc(self, now: Optional[float] = None) -> int:
        """Evict oldest terminal jobs until the budget holds.

        Jobs younger than ``min_retention_s`` are never evicted, so the
        budget can be transiently exceeded by a burst of fresh results;
        the periodic GC tick re-enforces it once the window passes.
        Returns the number of jobs evicted.
        """
        if self.budget_bytes is None:
            return 0
        now = self._now() if now is None else now
        evicted = 0
        while self.terminal_bytes > self.budget_bytes and self._terminal:
            job_id, (finished, _) = next(iter(self._terminal.items()))
            if now - finished < self.min_retention_s:
                break  # everything older was already evicted
            self._evict(job_id, now)
            evicted += 1
        return evicted

    def _evict(self, job_id: str, now: float) -> None:
        self.terminal_bytes -= self._terminal.pop(job_id)[1]
        job = self.jobs.pop(job_id)
        self._evicted_counter.inc()
        if self.tombstone_limit <= 0:
            return
        self._tombstones[job_id] = job.tombstone(now)
        while len(self._tombstones) > self.tombstone_limit:
            self._tombstones.popitem(last=False)
            self.tombstones_dropped_total += 1

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "retained": len(self.jobs),
            "terminal_retained": len(self._terminal),
            "terminal_bytes": self.terminal_bytes,
            "budget_bytes": self.budget_bytes,
            "min_retention_s": self.min_retention_s,
            "evicted_total": int(self._evicted_counter.value),
            "tombstones": len(self._tombstones),
            "tombstone_limit": self.tombstone_limit,
            "tombstones_dropped_total": self.tombstones_dropped_total,
        }
