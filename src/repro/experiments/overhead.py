"""§6.4: overhead analysis of Ice.

* **§6.4.1 memory consumption** — the mapping table's byte-accurate
  accounting: 20 apps x 3 processes -> 13.8 KB maximum (64 B UID +
  3x(64 B PID + 1 B state + 64 B score) per app), bounded at 32 KB.
* **§6.4.2 performance overhead** — table indexing completes at the
  microsecond level (measured in *host* wall-clock here, since it is a
  real data-structure operation, not simulated), and thaw latency is
  tens of milliseconds per application.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.mapping_table import (
    MappingTable,
    PID_ENTRY_BYTES,
    SCORE_ENTRY_BYTES,
    STATE_ENTRY_BYTES,
    UID_ENTRY_BYTES,
)
from repro.kernel.freezer import THAW_LATENCY_MS_PER_PROCESS


@dataclass
class MemoryOverheadResult:
    apps: int
    processes_per_app: int
    measured_bytes: int
    paper_bytes: int
    bound_bytes: int


def mapping_table_overhead(
    apps: int = 20, processes_per_app: int = 3
) -> MemoryOverheadResult:
    """Reproduce §6.4.1's mapping-table size accounting."""
    table = MappingTable()
    pid_base = 5000
    for index in range(apps):
        pids = [pid_base + index * processes_per_app + j
                for j in range(processes_per_app)]
        table.register_app(uid=10000 + index, package=f"app{index}", pids=pids)
    paper_bytes = apps * UID_ENTRY_BYTES + apps * processes_per_app * (
        PID_ENTRY_BYTES + STATE_ENTRY_BYTES + SCORE_ENTRY_BYTES
    )
    return MemoryOverheadResult(
        apps=apps,
        processes_per_app=processes_per_app,
        measured_bytes=table.memory_bytes,
        paper_bytes=paper_bytes,
        bound_bytes=table.capacity_bytes,
    )


@dataclass
class IndexingOverheadResult:
    lookups: int
    total_seconds: float

    @property
    def us_per_lookup(self) -> float:
        return self.total_seconds / self.lookups * 1e6 if self.lookups else 0.0


def indexing_overhead(lookups: int = 100_000) -> IndexingOverheadResult:
    """§6.4.2: one table indexing completes at the microsecond level."""
    table = MappingTable()
    for index in range(20):
        table.register_app(
            uid=10000 + index,
            package=f"app{index}",
            pids=[6000 + index * 3 + j for j in range(3)],
        )
    pids = [6000 + i for i in range(60)]
    start = time.perf_counter()
    for i in range(lookups):
        uid = table.uid_of_pid(pids[i % len(pids)])
        if uid is not None:
            table.pids_of_uid(uid)
    elapsed = time.perf_counter() - start
    return IndexingOverheadResult(lookups=lookups, total_seconds=elapsed)


def thaw_latency_ms(processes: int = 3) -> float:
    """§6.4.2: thawing an application costs tens of milliseconds."""
    return THAW_LATENCY_MS_PER_PROCESS * processes
