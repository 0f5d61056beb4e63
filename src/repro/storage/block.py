"""Block layer: a FIFO device queue for bio requests.

The kernel transfers reclaimed pages as ``bio`` instances (in-flight
block-I/O requests, §2.1).  We model each device as a single-server FIFO
queue characterised by a per-page service latency: a request issued at
time ``t`` completes at ``max(t, busy_until) + pages * latency``.  This
captures the congestion effect central to the paper — background refault
storms lengthen the queue and delay foreground I/O — without simulating
the full request lifecycle.

A request is its completion time: :meth:`BlockQueue.submit` returns that
float and keeps no request object, because every caller (a refault read,
a cold-launch read, a write-back batch) needs only when it completes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class IoDirection(enum.Enum):
    READ = "read"
    WRITE = "write"


@dataclass(slots=True)
class IoStats:
    """Cumulative I/O accounting for one device."""

    read_requests: int = 0
    write_requests: int = 0
    read_pages: int = 0
    write_pages: int = 0
    busy_ms: float = 0.0
    total_wait_ms: float = 0.0

    @property
    def total_requests(self) -> int:
        return self.read_requests + self.write_requests

    @property
    def total_pages(self) -> int:
        return self.read_pages + self.write_pages


class BlockQueue:
    """Two-lane device queue: synchronous reads vs async write-back.

    Mobile I/O schedulers prioritise synchronous reads (page faults,
    launches) over write-back: a read queues FIFO behind other reads and
    suffers at most :data:`WRITE_INTERFERENCE_CAP_MS` of delay from the
    write lane (an in-flight flash program blocks reads briefly, but a
    deep write-back backlog does not starve them).  Writes queue FIFO
    among themselves and are asynchronous from the caller's view.
    """

    # Maximum delay the write lane can impose on one read.
    WRITE_INTERFERENCE_CAP_MS = 12.0

    def __init__(self, name: str, read_ms_per_page: float, write_ms_per_page: float):
        if read_ms_per_page <= 0 or write_ms_per_page <= 0:
            raise ValueError("per-page latencies must be positive")
        self.name = name
        self.read_ms_per_page = read_ms_per_page
        self.write_ms_per_page = write_ms_per_page
        self.read_busy_until: float = 0.0
        self.write_busy_until: float = 0.0
        self.stats = IoStats()

    def service_time(self, direction: IoDirection, pages: int) -> float:
        per_page = (
            self.read_ms_per_page
            if direction is IoDirection.READ
            else self.write_ms_per_page
        )
        return per_page * pages

    def submit(self, now: float, direction: IoDirection, pages: int) -> float:
        """Enqueue a request of ``pages`` at simulated time ``now``;
        returns its completion time.

        The service time and the stats update are inlined: every
        refault read and write-back batch passes through here.
        Arithmetic order matches :meth:`service_time`.
        """
        if pages <= 0:
            raise ValueError(f"bio must carry at least one page, got {pages}")
        stats = self.stats
        if direction is IoDirection.READ:
            service = self.read_ms_per_page * pages
            write_interference = self.write_busy_until - now
            if write_interference > 0.0:
                if write_interference > self.WRITE_INTERFERENCE_CAP_MS:
                    write_interference = self.WRITE_INTERFERENCE_CAP_MS
                start = now + write_interference
            else:
                start = now
            read_busy = self.read_busy_until
            if read_busy > start:
                start = read_busy
            complete = start + service
            self.read_busy_until = complete
            stats.read_requests += 1
            stats.read_pages += pages
        else:
            service = self.write_ms_per_page * pages
            write_busy = self.write_busy_until
            start = write_busy if write_busy > now else now
            complete = start + service
            self.write_busy_until = complete
            stats.write_requests += 1
            stats.write_pages += pages
        stats.busy_ms += service
        stats.total_wait_ms += start - now
        return complete

    def queue_delay(self, now: float) -> float:
        """How long a read issued now would wait before service."""
        write_interference = min(
            max(0.0, self.write_busy_until - now),
            self.WRITE_INTERFERENCE_CAP_MS,
        )
        return max(write_interference, self.read_busy_until - now, 0.0)

    def reset_stats(self) -> None:
        self.stats = IoStats()
