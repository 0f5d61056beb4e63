"""Frame pipeline: vsync, FPS, and interaction alerts (§2.2.2, §6.1).

A Choreographer-style loop issues a frame on each 16.67 ms vsync (gated
by the content rate — a 45 fps video call produces at most 45 frames a
second no matter how fast the device is).  Each frame costs CPU, touches
a sample of the foreground app's working set (possible refaults), and
allocates a few transient pages (allocation churn — under the min
watermark this direct-reclaims, which is the priority-inversion path
that lets background refault storms block rendering).

Metrics match the paper's: **FPS** per second of wall time, and **RIA**
(ratio of interaction alerts) — the fraction of frames that failed to
render within 16.6 ms, Systrace's interaction-alert threshold.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from repro.android.app import Application, AppState
from repro.kernel.slab import HEAP_NATIVE, HOT, KIND_ANON, REFERENCED
from repro.sched.task import Task, WorkItem

VSYNC_MS = 1000.0 / 60.0
ALERT_THRESHOLD_MS = 16.6

# Checked every vsync; a module alias skips the enum descriptor call
# (see repro.sched.task).
_FOREGROUND = AppState.FOREGROUND


@dataclass
class FrameStats:
    """Frame-rate accounting for one foreground session."""

    completed: int = 0
    dropped: int = 0
    alerts: int = 0
    latencies: List[float] = field(default_factory=list)
    fps_timeline: List[int] = field(default_factory=list)  # frames per second
    _bucket_count: int = 0
    _bucket_start: float = 0.0

    def record_frame(self, now: float, latency_ms: float) -> None:
        self.completed += 1
        self.latencies.append(latency_ms)
        if latency_ms > ALERT_THRESHOLD_MS:
            self.alerts += 1
        self._advance(now)
        self._bucket_count += 1

    def record_drop(self, now: float) -> None:
        self.dropped += 1
        self.alerts += 1
        self._advance(now)

    def _advance(self, now: float) -> None:
        while now - self._bucket_start >= 1000.0:
            self.fps_timeline.append(self._bucket_count)
            self._bucket_count = 0
            self._bucket_start += 1000.0

    # ------------------------------------------------------------------
    @property
    def average_fps(self) -> float:
        if not self.fps_timeline:
            return 0.0
        return sum(self.fps_timeline) / len(self.fps_timeline)

    @property
    def ria(self) -> float:
        """Ratio of interaction alerts (frames missing 16.6 ms)."""
        total = self.completed + self.dropped
        if total == 0:
            return 0.0
        return self.alerts / total

    @property
    def average_latency_ms(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)


class FrameEngine:
    """Drives the foreground application's rendering loop."""

    # The render thread gets a modest static boost even in the baseline:
    # Android places the top app in a privileged cpuset, which is why the
    # paper finds CPU contention is *not* the main FPS killer.
    RENDER_NICE = -4

    def __init__(self, system):
        self.system = system
        self.app: Optional[Application] = None
        self.task: Optional[Task] = None
        self.stats: Optional[FrameStats] = None
        self._vsync_handle = None
        self._burst_handle = None
        self._sampler = None
        self._content_credit: float = 0.0
        # Slab ids of transient frame-churn pages (oldest first).
        self._transient: Deque[int] = deque()
        self._transient_cap: int = 0
        self._rng = None
        self._working_set: list = []

    # ------------------------------------------------------------------
    # Share of the app's virtual pages that the foreground session ever
    # touches: the FG working set is bounded — an app does not walk its
    # whole address space however long it runs.
    WORKING_SET_FRAC = 0.62

    def start(self, app: Application, sampler) -> FrameStats:
        """Begin rendering for a newly-foregrounded app."""
        self.stop()
        self.app = app
        self._sampler = sampler
        self._rng = self.system.rng.stream(f"render:{app.package}:{app.launch_count}")
        self._working_set = self._build_working_set(sampler)
        profile = app.profile
        main = app.main_process
        if main is None:
            raise ValueError(f"{app.package} has no main process to render from")
        self.task = Task("RenderThread", process=main, nice=self.RENDER_NICE)
        self.system.add_task(self.task)
        tracer = self.system.tracer
        if tracer is not None:
            tracer.register_thread(main.pid, self.task.tid, "RenderThread")
            tracer.instant(
                "render_session_start", pid=main.pid, tid=self.task.tid,
                cat="frame", args={"app": app.package},
            )
        self.stats = FrameStats(_bucket_start=self.system.sim.now)
        self._content_credit = 0.0
        self._transient_cap = max(
            profile.frame_alloc_pages * 90, profile.fg_alloc_burst_pages + 240
        )
        self._vsync_handle = self.system.sim.every(VSYNC_MS, self._on_vsync)
        if profile.fg_alloc_burst_pages > 0:
            self._burst_handle = self.system.sim.every(
                profile.fg_alloc_burst_period_s * 1000.0, self._alloc_burst
            )
        return self.stats

    def stop(self) -> None:
        """Tear down the current session (app leaves the foreground)."""
        if self._vsync_handle is not None:
            self._vsync_handle.stop()
            self._vsync_handle = None
        if self._burst_handle is not None:
            self._burst_handle.stop()
            self._burst_handle = None
        if self.task is not None:
            self.system.sched.remove_task(self.task)
            self.task = None
        if self._transient:
            self._retire(list(self._transient))
            self._transient.clear()
        self.app = None
        self._sampler = None
        self._working_set = []

    # ------------------------------------------------------------------
    def _on_vsync(self) -> None:
        app = self.app
        if app is None or app.state is not _FOREGROUND:
            return
        profile = app.profile
        self._content_credit += min(profile.content_fps, 60.0) / 60.0
        if self._content_credit < 1.0:
            return  # no content this vsync (source-limited)
        self._content_credit -= 1.0
        stats = self.stats
        now = self.system.sim.now
        tracer = self.system.tracer
        if self.task.queue:
            # Previous frame still in flight: this frame is dropped.
            stats.record_drop(now)
            if tracer is not None:
                tracer.instant(
                    "frame_drop", pid=self.task.pid, tid=self.task.tid,
                    cat="frame",
                )
            return
        cpu = self._rng.gauss(profile.frame_cpu_ms, profile.frame_cpu_jitter)
        cpu = max(1.0, cpu) / self.system.spec.cpu_speed
        vsync_time = now
        task = self.task

        def frame_done() -> None:
            end = self.system.sim.now
            latency = end - vsync_time
            stats.record_frame(end, latency)
            if tracer is not None:
                tracer.complete(
                    "frame", task.pid, task.tid,
                    start_ms=vsync_time, dur_ms=latency,
                    args={"missed_vsync": latency > ALERT_THRESHOLD_MS},
                    cat="frame",
                )
                tracer.histogram("frame_ms").add(latency)

        self.task.submit(
            WorkItem(cpu_ms=cpu, touch=self._frame_touch,
                     on_complete=frame_done, label="frame")
        )

    def _build_working_set(self, sampler) -> list:
        """Hot nucleus plus a bounded random cold subset (slab ids)."""
        flags = self.system.mm.slab.flags
        cold = [i for i in sampler.all_ids if not flags[i] & HOT]
        target = int(len(sampler.all_ids) * self.WORKING_SET_FRAC)
        extra = max(0, target - len(sampler.hot_ids))
        if extra < len(cold):
            self._rng.shuffle(cold)
            cold = cold[:extra]
        return list(sampler.hot_ids) + cold

    def _frame_touch(self) -> float:
        """Touch working-set pages and churn transient allocations.

        Returns the blocking time (fault service + direct-reclaim
        stalls) charged to the render thread.
        """
        app = self.app
        profile = app.profile
        main = app.main_process
        ids = self._rng.biased_picks(
            profile.frame_touch_pages, self._sampler.hot_ids,
            self._working_set, 0.75,
        )
        blocked = self.system.touch_ids(main, ids)
        blocked += self._churn_transient(profile.frame_alloc_pages)
        return blocked

    def _churn_transient(self, count: int) -> float:
        """Allocate ``count`` fresh pages, freeing the oldest beyond cap."""
        if count <= 0:
            return 0.0
        main = self.app.main_process
        # Old buffers are freed before their replacements are allocated
        # (codecs and render caches recycle), so a warmed-up pool is
        # memory-neutral; only pool *growth* creates net demand.  The
        # replacements reuse the retired ids, so over a long session the
        # churn cycles a bounded id pool instead of growing every column
        # without limit.
        transient = self._transient
        excess = len(transient) - (self._transient_cap - count)
        if excess > 0:
            popleft = transient.popleft
            old = [popleft() for _ in range(excess)]
            if excess == count:
                # The pool is at its cap: the kernel turns the retired
                # ids into the fresh ones in place, unless reclaim could
                # be involved (then it returns None).
                stall = self.system.mm.recycle_ids(old, main)
                if stall is not None:
                    if stall > 0:
                        self.system._record_alloc_stall(main, stall)
                    old.reverse()
                    transient.extend(old)
                    return stall
            self._retire(old)
        # Pool growth, or a recycle the kernel refused (an evicted buffer,
        # free memory below the min watermark): the retired ids go to the
        # slab free list and the fresh ones come off it through the full
        # allocation path, which may direct-reclaim.
        slab = self.system.mm.slab
        alloc = slab.alloc
        fresh = [alloc(KIND_ANON, HEAP_NATIVE, 0, main) for _ in range(count)]
        stall = self.system.allocate_ids(main, fresh)
        # Buffers are written the moment they are allocated — they are
        # live render state, not cold data, so the LRU must see them as
        # referenced (otherwise reclaim wastes compression cycles
        # evicting pages the app frees moments later).
        flags = slab.flags
        for i in fresh:
            flags[i] |= REFERENCED
        transient.extend(fresh)
        return stall

    def _retire(self, ids: List[int]) -> None:
        """Free retired buffers in two bulk calls: the kernel drops their
        memory (resident page, zram slot or shadow entry), then the slab
        recycles the ids."""
        mm = self.system.mm
        mm.discard_ids(ids)
        mm.slab.free_ids(ids)

    def _alloc_burst(self) -> None:
        """Periodic large allocation (PUBG round start, video switch)."""
        app = self.app
        if app is None or app.state is not _FOREGROUND:
            return
        profile = app.profile
        pages = profile.fg_alloc_burst_pages
        if pages <= 0 or self.task is None:
            return
        self.task.submit(
            WorkItem(
                cpu_ms=max(2.0, pages * 0.003) / self.system.spec.cpu_speed,
                touch=lambda: self._churn_transient(pages),
                label="alloc-burst",
            )
        )
