"""Applications and their processes.

An :class:`Application` is identified by a UID fixed at install time
(§4.2.2; the system hands out UIDs from 10000 and PIDs from 1000) and
runs several processes when alive — a main process plus
auxiliary ones (push, render, sandbox...).  Each :class:`Process` owns a
page table and one or more scheduler tasks.  Application state follows
the Android lifecycle the paper relies on: FOREGROUND (interacting),
PERCEPTIBLE (music/download in the BG — whitelisted), CACHED (kept for
hot launch), and STOPPED (no processes; next launch is cold).
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.android.oom_adj import (
    ADJ_FOREGROUND,
    ADJ_PERCEPTIBLE,
    CACHED_APP_MIN_ADJ,
    cached_adj,
)
from repro.apps.profiles import AppProfile
from repro.kernel.page import HeapKind, PageKind
from repro.kernel.page_table import PageTable
from repro.kernel.slab import PageSlab
from repro.sched.task import Task


class AppState(enum.Enum):
    STOPPED = "stopped"
    FOREGROUND = "foreground"
    PERCEPTIBLE = "perceptible"
    CACHED = "cached"


class Process:
    """One OS process of an application."""

    def __init__(
        self, name: str, app: "Application", pid: int, slab: PageSlab,
        main: bool = False,
    ):
        self.pid = pid
        self.name = name
        self.app = app
        self.main = main
        self.page_table = PageTable(owner=self, slab=slab)
        self.tasks: List[Task] = []
        self.alive = True

    @property
    def uid(self) -> int:
        return self.app.uid

    @property
    def foreground(self) -> bool:
        return self.app.state is AppState.FOREGROUND

    def build_footprint(
        self, java_pages: int, native_pages: int, file_pages: int,
        hot_frac: float, file_dirty_frac: float,
    ) -> None:
        """Create this process's virtual pages (not yet resident).

        Pages are laid out exactly as the old per-page loop did — hot
        prefix first within each segment, dirty prefix for file pages —
        but each run of identical pages becomes one slab block
        allocation (a handful of C-level column extends per process
        instead of thousands of ``Page.__init__`` calls).
        """
        table = self.page_table
        hot_java = int(java_pages * hot_frac)
        table.build_block(hot_java, PageKind.ANON, HeapKind.JAVA, hot=True)
        table.build_block(java_pages - hot_java, PageKind.ANON, HeapKind.JAVA)
        hot_native = int(native_pages * hot_frac)
        table.build_block(hot_native, PageKind.ANON, HeapKind.NATIVE, hot=True)
        table.build_block(native_pages - hot_native, PageKind.ANON, HeapKind.NATIVE)
        hot_file = int(file_pages * hot_frac)
        dirty_file = int(file_pages * file_dirty_frac)
        lo, hi = min(hot_file, dirty_file), max(hot_file, dirty_file)
        table.build_block(lo, PageKind.FILE, HeapKind.NONE, dirty=True, hot=True)
        table.build_block(
            hi - lo, PageKind.FILE, HeapKind.NONE,
            dirty=dirty_file > hot_file, hot=hot_file > dirty_file,
        )
        table.build_block(file_pages - hi, PageKind.FILE, HeapKind.NONE)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.pid} {self.name!r}>"


class Application:
    """An installed application (UID fixed at install time)."""

    def __init__(self, profile: AppProfile, uid: int):
        self.uid = uid
        self.profile = profile
        self.state = AppState.STOPPED
        self.processes: List[Process] = []
        # Perceptible apps (music/download) keep adj 200 while in BG.
        self.perceptible = profile.perceptible_in_bg
        # Recency rank among cached apps (0 = most recent); maintained
        # by the ActivityManager.
        self.recency_rank: int = 0
        self.launch_count: int = 0
        self.last_foreground_ms: float = 0.0

    @property
    def package(self) -> str:
        return self.profile.package

    @property
    def alive(self) -> bool:
        return bool(self.processes)

    @property
    def pids(self) -> List[int]:
        return [process.pid for process in self.processes]

    @property
    def main_process(self) -> Optional[Process]:
        for process in self.processes:
            if process.main:
                return process
        return None

    @property
    def adj(self) -> int:
        """oom_score_adj of the app's main process (§4.4)."""
        if self.state is AppState.FOREGROUND:
            return ADJ_FOREGROUND
        if self.state is AppState.PERCEPTIBLE or (
            self.perceptible and self.state is AppState.CACHED
        ):
            return ADJ_PERCEPTIBLE
        if self.state is AppState.CACHED:
            return cached_adj(self.recency_rank)
        return CACHED_APP_MIN_ADJ  # stopped; irrelevant

    def resident_pages(self) -> int:
        return sum(p.page_table.resident_pages for p in self.processes)

    def total_pages(self) -> int:
        return sum(p.page_table.total_pages for p in self.processes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<App {self.package} uid={self.uid} {self.state.value}>"
