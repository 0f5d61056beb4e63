"""Periodic time-series sampler.

Snapshots the quantities every figure in the paper is drawn from —
free memory, LRU list sizes, vmstat deltas, swap traffic, FPS, CPU
utilization, frozen-process count — into *aligned* series: one shared
timestamp vector plus one equal-length value vector per metric, so a
row across all series is one instant in simulated time.

Sample timestamps snap to multiples of the configured interval (the
first tick fires at the next multiple of ``interval_ms`` after
``start``), which makes runs with the same interval directly
superimposable regardless of when sampling was switched on.

When a :class:`~repro.trace.tracer.Tracer` is attached, every sample
also lands as Perfetto counter tracks, so the exported trace carries
the FPS and free-memory timelines next to the event tracks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.trace.tracer import KERNEL_PID, Tracer

DEFAULT_INTERVAL_MS = 100.0

# Gauge series are read directly; delta series are per-interval
# increments of cumulative vmstat counters.
GAUGE_SERIES = (
    "free_pages",
    "resident_pages",
    "available_pages",
    "zram_stored_pages",
    "active_anon",
    "inactive_anon",
    "active_file",
    "inactive_file",
    "frozen_processes",
)
DELTA_SERIES = (
    "pgscan",
    "pgsteal_kswapd",
    "pgsteal_direct",
    "refault_total",
    "refault_fg",
    "refault_bg",
    "pswpin",
    "pswpout",
    "direct_reclaim_stall_ms",
    "alloc_stall_ms",
)
COMPUTED_SERIES = ("pgsteal", "fps", "cpu_utilization")
# PSI avg10 values (percent), read from the always-on PsiMonitor.
PSI_SERIES = (
    "psi_mem_some_avg10",
    "psi_mem_full_avg10",
    "psi_io_some_avg10",
    "psi_io_full_avg10",
    "psi_cpu_some_avg10",
)

ALL_SERIES = GAUGE_SERIES + DELTA_SERIES + COMPUTED_SERIES + PSI_SERIES


class Sampler:
    """Aligned time-series snapshots of one :class:`MobileSystem`."""

    def __init__(
        self,
        system,
        interval_ms: float = DEFAULT_INTERVAL_MS,
        tracer: Optional[Tracer] = None,
    ):
        if interval_ms <= 0:
            raise ValueError(f"sample interval must be positive, got {interval_ms}")
        self.system = system
        self.interval_ms = interval_ms
        self.tracer = tracer if tracer is not None else system.tracer
        self.times: List[float] = []
        self.series: Dict[str, List[float]] = {name: [] for name in ALL_SERIES}
        self._handle = None
        self._last_vm = None  # typed VmStat copy
        self._last_frames = 0
        self._last_busy_ms = 0.0
        self._last_sample_at = 0.0
        # Optional observer called with (now_ms, row_dict) after every
        # sample lands — `repro scenario --watch` prints from here.
        self.on_sample = None

    # ------------------------------------------------------------------
    def start(self) -> "Sampler":
        """Arm the periodic tick (idempotent)."""
        if self._handle is not None:
            return self
        sim = self.system.sim
        offset = sim.now % self.interval_ms
        first_delay = self.interval_ms - offset if offset else self.interval_ms
        self._last_vm = self.system.vmstat.copy()
        self._last_frames = self._frames_completed()
        self._last_busy_ms = self.system.sched.stats.busy_ms_total
        self._last_sample_at = sim.now
        self._handle = sim.every(self.interval_ms, self._tick, first_delay=first_delay)
        self.system.sampler = self
        return self

    def stop(self) -> None:
        """Disarm the tick, flushing the final partial interval.

        Without the flush, activity between the last aligned tick and
        the end of the run (up to a full interval) would silently vanish
        from every series.
        """
        if self._handle is not None:
            self._handle.stop()
            self._handle = None
            if self.system.sampler is self:
                self.system.sampler = None
            now = self.system.sim.now
            if now > self._last_sample_at:
                self._sample(now)

    def rebase(self) -> None:
        """Called just before the system zeroes vmstat and the busy total.

        Each baseline becomes ``last - now``, so the next row's delta
        adds the interval's increments from before and after the reset.
        """
        self._last_vm = self._last_vm.delta(self.system.vmstat)
        self._last_busy_ms -= self.system.sched.stats.busy_ms_total

    def _frames_completed(self) -> int:
        stats = self.system.frame_engine.stats
        return stats.completed if stats is not None else 0

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._sample(self.system.sim.now)

    def _sample(self, now: float) -> None:
        system = self.system
        elapsed = now - self._last_sample_at
        if elapsed <= 0:
            return
        self._last_sample_at = now
        vm = system.vmstat
        delta = vm.delta(self._last_vm)
        self._last_vm = vm.copy()

        frames = self._frames_completed()
        frame_delta = max(0, frames - self._last_frames)
        self._last_frames = frames
        fps = frame_delta * 1000.0 / elapsed

        busy = system.sched.stats.busy_ms_total
        busy_delta = max(0.0, busy - self._last_busy_ms)
        self._last_busy_ms = busy
        utilization = busy_delta / (system.sched.cores * elapsed)

        psi = system.psi.system
        lru = system.mm.lru
        row = {
            "free_pages": system.mm.free_pages,
            "resident_pages": system.mm.resident_pages,
            "available_pages": system.mm.available_pages,
            "zram_stored_pages": system.zram.stored_pages,
            "active_anon": lru.active_anon,
            "inactive_anon": lru.inactive_anon,
            "active_file": lru.active_file,
            "inactive_file": lru.inactive_file,
            "frozen_processes": len(system.freezer.frozen_pids),
            "pgsteal": delta.pgsteal,
            "fps": fps,
            "cpu_utilization": utilization,
            "psi_mem_some_avg10": psi.avg10("memory") * 100.0,
            "psi_mem_full_avg10": psi.avg10("memory", "full") * 100.0,
            "psi_io_some_avg10": psi.avg10("io") * 100.0,
            "psi_io_full_avg10": psi.avg10("io", "full") * 100.0,
            "psi_cpu_some_avg10": psi.avg10("cpu") * 100.0,
        }
        for name in DELTA_SERIES:
            row[name] = getattr(delta, name)

        self.times.append(now)
        for name, value in row.items():
            self.series[name].append(value)

        tracer = self.tracer
        if tracer is not None:
            tracer.counter("free_mem", {"free_pages": row["free_pages"],
                                        "available_pages": row["available_pages"]},
                           pid=KERNEL_PID, ts=now)
            tracer.counter("fps", row["fps"], pid=KERNEL_PID, ts=now)
            tracer.counter("cpu_utilization", row["cpu_utilization"],
                           pid=KERNEL_PID, ts=now)
            tracer.counter("reclaim_rate", {"pgsteal": row["pgsteal"],
                                            "refaults": row["refault_total"]},
                           pid=KERNEL_PID, ts=now)
            tracer.counter("lru", {"active_anon": row["active_anon"],
                                   "inactive_anon": row["inactive_anon"],
                                   "active_file": row["active_file"],
                                   "inactive_file": row["inactive_file"]},
                           pid=KERNEL_PID, ts=now)
            tracer.counter("frozen_processes", row["frozen_processes"],
                           pid=KERNEL_PID, ts=now)
            tracer.counter("psi_memory", {"some": row["psi_mem_some_avg10"],
                                          "full": row["psi_mem_full_avg10"]},
                           pid=KERNEL_PID, ts=now)
            tracer.counter("psi_io", {"some": row["psi_io_some_avg10"],
                                      "full": row["psi_io_full_avg10"]},
                           pid=KERNEL_PID, ts=now)
            tracer.counter("psi_cpu", row["psi_cpu_some_avg10"],
                           pid=KERNEL_PID, ts=now)

        if self.on_sample is not None:
            self.on_sample(now, row)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def sample_count(self) -> int:
        return len(self.times)

    def as_dict(self) -> Dict[str, List[float]]:
        """``{"time_ms": [...], series...}`` — all vectors equal length."""
        out: Dict[str, List[float]] = {"time_ms": list(self.times)}
        for name in ALL_SERIES:
            out[name] = list(self.series[name])
        return out

    def rows(self) -> List[List[float]]:
        """Row-major view matching :meth:`header` (for CSV export)."""
        return [
            [self.times[i]] + [self.series[name][i] for name in ALL_SERIES]
            for i in range(len(self.times))
        ]

    @staticmethod
    def header() -> List[str]:
        return ["time_ms"] + list(ALL_SERIES)
