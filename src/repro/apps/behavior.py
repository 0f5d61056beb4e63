"""Background behaviour generators (§3.2 root causes).

Each cached application keeps generating memory activity through three
channels the paper identifies:

* **Main-thread bursts** — ~58% of BG apps were observed running on
  CPUs; bursts touch a hot-biased sample of the app's pages, and the
  cold tail of those touches is what hits evicted pages and refaults.
* **Runtime GC** — ART's idle GC walks a large fraction of the Java
  heap, pulling reclaimed heap pages back (the paper's best-known
  refault source, but responsible for only part of the total).
* **Service wakeups** — location listeners, sync adapters, push
  handlers touching native + file pages on short periods.

The §3.2 "buggy stay-awake" pathology (Facebook's battery-drain
release) adds a continuous low-grade activity loop.

All activity is gated on the app being in the background and unfrozen;
a frozen process schedules nothing (its tasks would not run anyway, and
a hibernated process cannot arm timers).
"""

from __future__ import annotations

from typing import List, Optional

from repro.android.app import AppState, Process
from repro.kernel.page import Page
from repro.kernel.slab import HOT, PAGE_SLAB
from repro.sched.task import Task, WorkItem

# App states in which background activity runs, bound once (enum member
# lookups are descriptor calls on CPython 3.11; see repro.sched.task).
_BACKGROUND_STATES = (AppState.CACHED, AppState.PERCEPTIBLE)

# Share of burst touches aimed at the hot working-set nucleus; the cold
# remainder is what generates refaults under memory pressure.
HOT_TOUCH_BIAS = 0.70
# Per-page CPU cost of a GC walk (mark/sweep work), ms.
GC_CPU_PER_PAGE_MS = 0.0015
GC_BASE_CPU_MS = 4.0
# Large page-touch batches are split into chunks of this many pages, one
# work item each: a task faulting in a big working set takes *simulated
# time* to do so, which keeps the memory deficit visible to concurrently
# running tasks (the substance of refault-induced thrashing).
TOUCH_CHUNK_PAGES = 96


def submit_touch(system, task, process, pages, cpu_ms: float,
                 label: str, on_complete=None) -> None:
    """Submit a page-touch burst as chunked work items on ``task``.

    ``pages`` may be slab ids (the hot path) or ``Page`` views (older
    callers and tests); views are converted once up front so the chunk
    closures run through :meth:`MobileSystem.touch_ids`.
    """
    if not pages:
        if cpu_ms > 0 or on_complete is not None:
            task.submit(WorkItem(cpu_ms=cpu_ms, on_complete=on_complete, label=label))
        return
    if not isinstance(pages[0], int):
        pages = [page.page_id for page in pages]
    chunks = [
        pages[i : i + TOUCH_CHUNK_PAGES]
        for i in range(0, len(pages), TOUCH_CHUNK_PAGES)
    ]
    cpu_share = cpu_ms / len(chunks)
    for index, chunk in enumerate(chunks):
        last = index == len(chunks) - 1
        task.submit(
            WorkItem(
                cpu_ms=cpu_share,
                touch=lambda c=chunk: system.touch_ids(process, c),
                on_complete=on_complete if last else None,
                label=label,
            )
        )


class PageSampler:
    """Hot-biased page sampling over a process's page table."""

    # Segment mix of ordinary BG bursts: apps re-touch their code and
    # resource files heavily (which is why ~half of the paper's
    # refaulted pages are file-backed, Figure 4), the native heap next,
    # and the java heap least — idle GC covers the java heap separately.
    BURST_MIX = (("file", 0.55), ("native", 0.33), ("java", 0.12))

    # Launch-only garbage: this index slice of every segment is touched
    # during start-up (it is part of the cold-launch resident set) but
    # never again — initialization data, one-shot caches.  When evicted
    # it never refaults, which is what keeps the system-wide refault
    # ratio at the paper's ~39% instead of ~100%.
    GARBAGE_SLICE = (0.38, 0.55)

    @classmethod
    def _live(cls, items: list) -> list:
        lo = int(len(items) * cls.GARBAGE_SLICE[0])
        hi = int(len(items) * cls.GARBAGE_SLICE[1])
        return items[:lo] + items[hi:]

    def __init__(self, process: Process, rng):
        self.rng = rng
        # Primary state is slab ids; the object-returning accessors
        # below materialise views for callers (and tests) that want
        # ``Page`` semantics.
        table = process.page_table
        flags = PAGE_SLAB.flags
        self.java_ids: List[int] = self._live(table.ids_of("java_heap"))
        self.native_ids: List[int] = self._live(table.ids_of("native_heap"))
        self.file_ids: List[int] = self._live(table.ids_of("file_map"))
        self.all_ids: List[int] = self.java_ids + self.native_ids + self.file_ids
        self.hot_ids: List[int] = [i for i in self.all_ids if flags[i] & HOT]
        self._segments = {
            "java": self.java_ids,
            "native": self.native_ids,
            "file": self.file_ids,
        }
        self._hot_segments = {
            name: [i for i in ids if flags[i] & HOT]
            for name, ids in self._segments.items()
        }

    # --- object API (views; not used on hot paths) ---------------------
    @staticmethod
    def _views(ids: List[int]) -> List[Page]:
        view = PAGE_SLAB.view
        return [view(i) for i in ids]

    @property
    def java(self) -> List[Page]:
        return self._views(self.java_ids)

    @property
    def native(self) -> List[Page]:
        return self._views(self.native_ids)

    @property
    def file(self) -> List[Page]:
        return self._views(self.file_ids)

    @property
    def all_pages(self) -> List[Page]:
        return self._views(self.all_ids)

    @property
    def hot_pages(self) -> List[Page]:
        return self._views(self.hot_ids)

    def sample(self, count: int, hot_bias: float = HOT_TOUCH_BIAS) -> List[Page]:
        return self._views(self.sample_ids(count, hot_bias))

    def sample_burst(self, count: int, hot_bias: float = HOT_TOUCH_BIAS) -> List[Page]:
        return self._views(self.sample_burst_ids(count, hot_bias))

    def sample_gc(self, frac: float) -> List[Page]:
        return self._views(self.sample_gc_ids(frac))

    # --- id API (the hot path) -----------------------------------------
    def sample_ids(self, count: int, hot_bias: float = HOT_TOUCH_BIAS) -> List[int]:
        """Sample ``count`` page ids, ``hot_bias`` of them hot."""
        return self.rng.biased_picks(count, self.hot_ids, self.all_ids, hot_bias)

    def sample_burst_ids(self, count: int, hot_bias: float = HOT_TOUCH_BIAS) -> List[int]:
        """Sample a BG burst with the file/native/java segment mix."""
        picks: List[int] = []
        draw = self.rng.biased_picks
        for name, weight in self.BURST_MIX:
            picks += draw(
                int(count * weight), self._hot_segments[name],
                self._segments[name], hot_bias,
            )
        return picks

    def sample_segment(self, items: list, count: int) -> list:
        """A contiguous slice; generic over id lists and view lists."""
        if not items:
            return []
        if count >= len(items):
            return list(items)
        start = self.rng.randint(0, len(items) - count)
        return items[start : start + count]

    def sample_gc_ids(self, frac: float) -> List[int]:
        """A GC cycle walks a contiguous fraction of the Java heap."""
        count = int(len(self.java_ids) * frac)
        return self.sample_segment(self.java_ids, count)


class BackgroundBehavior:
    """Drives one process's background activity loops."""

    def __init__(self, system, process: Process, task: Task,
                 gc_task: Optional[Task] = None):
        self.system = system
        self.process = process
        self.task = task
        self.gc_task = gc_task
        self.profile = process.app.profile
        # Namespaced by process *name* (stable across runs), never by
        # PID (a global counter that varies run to run).
        self.rng = system.rng.stream(f"behavior:{process.name}")
        self.sampler = PageSampler(process, self.rng)
        self.started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the activity loops (idempotent)."""
        if self.started:
            return
        self.started = True
        profile = self.profile
        if profile.bg_active or profile.buggy_stay_awake:
            self._schedule_burst(first=True)
        if (
            self.gc_task is not None
            and self.sampler.java_ids
            and profile.gc_touch_frac > 0
            and profile.bg_active
        ):
            # Idle GC only fires for apps whose runtime stays active in
            # the BG; fully-idle (cached, quiescent) apps defer it, which
            # is why the paper observes only ~4 apps frozen on average.
            self._schedule_gc(first=True)
        if profile.service_period_s is not None and self.process.main:
            self._schedule_service(first=True)
        if profile.buggy_stay_awake and self.process.main:
            self._schedule_buggy(first=True)

    # ------------------------------------------------------------------
    # Gating
    # ------------------------------------------------------------------
    def _can_act(self) -> bool:
        """BG activity requires: process alive, app cached in BG, not frozen."""
        if not self.process.alive:
            return False
        app_state = self.process.app.state
        if app_state not in _BACKGROUND_STATES:
            return False
        return not self.system.freezer.is_frozen(self.process.pid)

    @property
    def _dead(self) -> bool:
        return not self.process.alive

    # ------------------------------------------------------------------
    # Main-thread bursts
    # ------------------------------------------------------------------
    def _schedule_burst(self, first: bool = False) -> None:
        delay_ms = self.rng.expovariate(1.0 / self.profile.bg_burst_period_s) * 1000.0
        if first:
            delay_ms *= self.rng.random()  # desynchronise app start-up
        self.system.sim.schedule(max(1.0, delay_ms), self._burst)

    def _burst(self) -> None:
        if self._dead:
            return
        if self._can_act() and not self.task.queue:
            profile = self.profile
            pages = self.sampler.sample_burst_ids(profile.bg_touch_pages)
            cpu = max(
                0.5,
                self.rng.lognormvariate(0.0, 0.5) * profile.bg_burst_cpu_ms,
            ) / self.system.spec.cpu_speed
            submit_touch(self.system, self.task, self.process, pages, cpu, "bg-burst")
        self._schedule_burst()

    # ------------------------------------------------------------------
    # Runtime GC (HeapTaskDaemon)
    # ------------------------------------------------------------------
    def _schedule_gc(self, first: bool = False) -> None:
        period = self.profile.gc_idle_period_s
        if period >= 1e8:
            return  # GC disabled (no managed runtime)
        delay_ms = self.rng.uniform(0.6, 1.4) * period * 1000.0
        if first:
            delay_ms *= self.rng.random()
        self.system.sim.schedule(max(1.0, delay_ms), self._gc_cycle)

    def _gc_cycle(self) -> None:
        if self._dead:
            return
        if (
            self._can_act()
            and not self.system.idle_gc_disabled
            and not self.gc_task.queue
        ):
            pages = self.sampler.sample_gc_ids(self.profile.gc_touch_frac)
            cpu = (GC_BASE_CPU_MS + len(pages) * GC_CPU_PER_PAGE_MS)
            cpu /= self.system.spec.cpu_speed
            submit_touch(self.system, self.gc_task, self.process, pages, cpu, "idle-gc")
        self._schedule_gc()

    # ------------------------------------------------------------------
    # Background services (location / sync / push)
    # ------------------------------------------------------------------
    def _schedule_service(self, first: bool = False) -> None:
        period = self.profile.service_period_s
        delay_ms = self.rng.expovariate(1.0 / period) * 1000.0
        if first:
            delay_ms *= self.rng.random()
        self.system.sim.schedule(max(1.0, delay_ms), self._service_wakeup)

    def _service_wakeup(self) -> None:
        if self._dead:
            return
        # A starved main thread does not take on new service work: jobs
        # skip when the previous batch is still pending (event-loop
        # back-pressure).  This is how priority demotion (UCSG) actually
        # reduces BG memory traffic.
        if self._can_act() and not self.task.queue:
            profile = self.profile
            # Services touch native + file pages (no java heap walk).
            count = profile.service_touch_pages
            native = self.sampler.sample_segment(self.sampler.native_ids, count // 2)
            files = self.sampler.sample_segment(self.sampler.file_ids, count - count // 2)
            pages = native + files
            cpu = profile.service_cpu_ms / self.system.spec.cpu_speed
            submit_touch(self.system, self.task, self.process, pages, cpu, "service")
        self._schedule_service()

    # ------------------------------------------------------------------
    # The stay-awake pathology
    # ------------------------------------------------------------------
    def _schedule_buggy(self, first: bool = False) -> None:
        delay_ms = self.rng.uniform(700.0, 1300.0)
        self.system.sim.schedule(delay_ms, self._buggy_spin)

    def _buggy_spin(self) -> None:
        if self._dead:
            return
        if self._can_act():
            pages = self.sampler.sample_ids(30, hot_bias=0.5)
            submit_touch(
                self.system, self.task, self.process, pages,
                2.0 / self.system.spec.cpu_speed, "stay-awake",
            )
        self._schedule_buggy()
