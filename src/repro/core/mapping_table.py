"""Kernel-space UID↔PID mapping table (§4.2.2, §6.4.1).

RPF freezes at *application* granularity, so on every refault it must
map the faulting PID to its application UID and then enumerate all of
that application's PIDs — in kernel space, with no user-space round
trip.  The table is updated only when an application is installed,
deleted, or launched (cross-space communication through the
``/proc/{pid}/ice-mp`` node in the paper; a direct method call here).

Size accounting follows §6.4.1: 64 B per UID, 64 B per PID, 1 B per
freezing state, 64 B per priority score, with a 32 KB safety bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

UID_ENTRY_BYTES = 64
PID_ENTRY_BYTES = 64
STATE_ENTRY_BYTES = 1
SCORE_ENTRY_BYTES = 64


class MappingTableFullError(RuntimeError):
    """The 32 KB safety bound would be exceeded."""


@dataclass
class ProcessEntry:
    pid: int
    frozen: bool = False
    adj_score: int = 999


@dataclass
class AppEntry:
    uid: int
    package: str
    processes: Dict[int, ProcessEntry] = field(default_factory=dict)


class MappingTable:
    """O(1) pid→uid and uid→pids lookups, with byte-accurate sizing."""

    def __init__(self, capacity_bytes: int = 32 * 1024):
        self.capacity_bytes = capacity_bytes
        self._apps: Dict[int, AppEntry] = {}
        self._pid_to_uid: Dict[int, int] = {}
        self.lookups: int = 0
        self.updates: int = 0

    # ------------------------------------------------------------------
    # Size accounting (§6.4.1)
    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        total = len(self._apps) * UID_ENTRY_BYTES
        process_count = len(self._pid_to_uid)
        total += process_count * (
            PID_ENTRY_BYTES + STATE_ENTRY_BYTES + SCORE_ENTRY_BYTES
        )
        return total

    def _check_capacity(self, extra_processes: int, extra_apps: int) -> None:
        projected = (
            self.memory_bytes
            + extra_apps * UID_ENTRY_BYTES
            + extra_processes
            * (PID_ENTRY_BYTES + STATE_ENTRY_BYTES + SCORE_ENTRY_BYTES)
        )
        if projected > self.capacity_bytes:
            raise MappingTableFullError(
                f"mapping table would reach {projected} B "
                f"(bound {self.capacity_bytes} B)"
            )

    # ------------------------------------------------------------------
    # Updates (app install / launch / kill — the rare cross-space path)
    # ------------------------------------------------------------------
    def register_app(self, uid: int, package: str, pids: List[int],
                     adj_score: int = 999) -> None:
        """Register or refresh an application and its live processes."""
        existing = self._apps.get(uid)
        new_apps = 0 if existing else 1
        known = set(existing.processes) if existing else set()
        new_pids = [pid for pid in pids if pid not in known]
        self._check_capacity(extra_processes=len(new_pids), extra_apps=new_apps)
        entry = existing or AppEntry(uid=uid, package=package)
        for pid in new_pids:
            entry.processes[pid] = ProcessEntry(pid=pid, adj_score=adj_score)
            self._pid_to_uid[pid] = uid
        self._apps[uid] = entry
        self.updates += 1

    def remove_app(self, uid: int) -> None:
        entry = self._apps.pop(uid, None)
        if entry is None:
            return
        for pid in entry.processes:
            self._pid_to_uid.pop(pid, None)
        self.updates += 1

    def set_adj_score(self, uid: int, adj_score: int) -> None:
        entry = self._apps.get(uid)
        if entry is None:
            return
        for proc in entry.processes.values():
            proc.adj_score = adj_score
        self.updates += 1

    def set_frozen(self, pid: int, frozen: bool) -> None:
        uid = self._pid_to_uid.get(pid)
        if uid is None:
            return
        proc = self._apps[uid].processes.get(pid)
        if proc is not None:
            proc.frozen = frozen

    # ------------------------------------------------------------------
    # Lookups (the hot kernel path — µs-level, §6.4.2)
    # ------------------------------------------------------------------
    def uid_of_pid(self, pid: int) -> Optional[int]:
        self.lookups += 1
        return self._pid_to_uid.get(pid)

    def pids_of_uid(self, uid: int) -> List[int]:
        self.lookups += 1
        entry = self._apps.get(uid)
        return list(entry.processes) if entry else []

    def adj_of_uid(self, uid: int) -> Optional[int]:
        entry = self._apps.get(uid)
        if entry is None or not entry.processes:
            return None
        return next(iter(entry.processes.values())).adj_score

    def contains_uid(self, uid: int) -> bool:
        return uid in self._apps

    @property
    def process_count(self) -> int:
        return len(self._pid_to_uid)
