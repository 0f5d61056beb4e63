"""MobileSystem: the complete simulated device.

Composes every substrate — the event engine, the memory manager with
kswapd and the freezer, the storage devices, the CFS scheduler, the
Android framework (ActivityManager, LMK, frame pipeline, framework
load) — under one management policy.  This is the object experiments
drive::

    system = MobileSystem(spec=huawei_p20(), policy=IcePolicy(), seed=7)
    system.install_apps(catalog_apps())
    record = system.launch("TikTok")
    system.run_until_complete(record)
    system.run(seconds=60)
    print(system.frame_engine.stats.average_fps)
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional

from repro.android.activity_manager import ActivityManager, LaunchRecord
from repro.android.app import Application, AppState, Process
from repro.android.lmk import LowMemoryKiller
from repro.android.render import FrameEngine
from repro.android.services import FrameworkLoad
from repro.apps.profiles import AppProfile
from repro.devices.specs import DeviceSpec, huawei_p20
from repro.kernel.freezer import Freezer
from repro.kernel.mm import MemoryManager, OutOfMemoryError
from repro.kernel.page import Page
from repro.kernel.slab import DIRTY, KIND_FILE, PRESENT, REFERENCED
from repro.kernel.page_fault import PageFaultHandler
from repro.kernel.proc_reclaim import PerProcessReclaim
from repro.kernel.reclaim import Kswapd
from repro.obs.procfs import ProcFs
from repro.obs.psi import PsiMonitor
from repro.policies.base import ManagementPolicy
from repro.sched.cfs import CfsScheduler
from repro.sched.task import BLOCKED, RUNNABLE, SLEEPING, Task, TaskBody
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.storage.flash import FlashDevice
from repro.storage.zram import ZramDevice


# Module-level aliases: ``AppState.FOREGROUND`` is a descriptor call on
# CPython 3.11 (see repro.sched.task), and every page touch, kswapd
# wake and allocation stall checks a state.
_FOREGROUND = AppState.FOREGROUND
_KSWAPD_WAKEABLE = (SLEEPING, BLOCKED)


class _KswapdBody(TaskBody):
    """Task body that lets kswapd reclaim within its CPU quanta."""

    def __init__(self, kswapd: Kswapd):
        self.kswapd = kswapd

    # kswapd is one thread sharing a busy little cluster with other
    # kernel housekeeping; its effective reclaim duty cycle is a
    # fraction of each quantum.  This bounds background reclaim to
    # mobile-realistic throughput so refault storms genuinely outpace
    # it — the regime every measurement in the paper lives in.
    DUTY_MS_PER_QUANTUM = 2.0

    def run(self, task: Task, now: float, budget_ms: float) -> float:
        result = self.kswapd.run_quantum(min(budget_ms, self.DUTY_MS_PER_QUANTUM))
        return min(budget_ms, result.cpu_ms)

    def has_work(self, task: Task) -> bool:
        return self.kswapd.should_run


class MobileSystem:
    """A fully-wired simulated smartphone.

    Everything a run simulates belongs to one system: the page slab
    (inside ``mm``), the pid and uid sequences here, and the tid
    sequence inside ``sched``.  Two systems in one process never share
    state, so a run's result depends only on how its system was built
    and driven.
    """

    def __init__(
        self,
        spec: Optional[DeviceSpec] = None,
        policy=None,
        seed: int = 42,
        framework_base_utilization: float = 0.42,
        tracer=None,
    ):
        self.spec = spec or huawei_p20()
        # Android app UIDs start at 10000; app PIDs here start at 1000.
        self._uids = itertools.count(10000)
        self._pids = itertools.count(1000)
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.seed = seed
        # Tracing is opt-in: when no Tracer is supplied every component's
        # hook stays None and tracepoints cost one truthiness check.
        self.tracer = tracer
        if tracer is not None:
            tracer.bind_clock(lambda: self.sim.now)

        # Pressure Stall Information is always on (recording a stall is
        # a few float compares); its EWMA windows advance on a periodic
        # tick of the simulated clock.
        self.psi = PsiMonitor(clock=lambda: self.sim.now)
        self.sim.every(self.psi.update_ms, self.psi.tick)

        # --- storage + memory management -------------------------------
        self.zram = ZramDevice(
            capacity_pages=self.spec.zram_pages,
            compression_ratio=self.spec.zram_compression_ratio,
            compress_ms=self.spec.zram_compress_ms,
            decompress_ms=self.spec.zram_decompress_ms,
        )
        self.flash = FlashDevice(self.spec.storage)
        self.mm = MemoryManager(
            self.spec, self.zram, self.flash, clock=lambda: self.sim.now
        )
        self.mm.sim = self.sim
        self.fault_handler = PageFaultHandler(self.mm)
        self.proc_reclaim = PerProcessReclaim(self.mm)
        self.kswapd = Kswapd(self.mm)
        self.mm.kswapd_waker = self.kswapd.wake
        self.fault_handler.psi = self.psi
        self.kswapd.psi = self.psi
        if tracer is not None:
            self.mm.tracer = tracer
            self.kswapd.tracer = tracer
            self.fault_handler.tracer = tracer

        # --- scheduling --------------------------------------------------
        self.sched = CfsScheduler(cores=self.spec.cores, sim=self.sim)
        self.sched.psi = self.psi
        self.freezer = Freezer()
        self.freezer.subscribe(self._on_freeze_change)
        if tracer is not None:
            self.sched.tracer = tracer
            self.freezer.tracer = tracer
            from repro.trace.tracer import CPU_PID

            for core in range(self.spec.cores):
                tracer.register_thread(CPU_PID, core, f"cpu{core}")
        self._kswapd_task = Task(
            "kswapd0", process=None, nice=0, is_kernel=True,
            body=_KswapdBody(self.kswapd),
        )
        self.add_task(self._kswapd_task)
        self.kswapd.on_wake = self._wake_kswapd_task
        self.sim.every(self.sched.quantum_ms, self.sched.tick)

        # --- framework -----------------------------------------------------
        self.apps: Dict[str, Application] = {}
        self.activity_manager = ActivityManager(self)
        self.lmk = LowMemoryKiller(self)
        self.lmk.start_monitor()
        self.frame_engine = FrameEngine(self)
        self.framework = FrameworkLoad(
            self, base_utilization=framework_base_utilization
        )
        self.framework.start()
        # Virtual /proc over the live kernel objects (meminfo, vmstat,
        # pressure/*, per-app memcg files) — `repro scenario --proc`.
        self.procfs = ProcFs(self)
        # A started trace Sampler rebases here before counters reset.
        self.sampler = None
        # §3.2 switch: the "idle runtime GC" feature can be disabled to
        # show GC is not the only refault source.
        self.idle_gc_disabled = False
        # Device charging state (the power-manager freezer cares).
        self.charging = False

        # --- policy ----------------------------------------------------------
        if policy is None:
            from repro.policies.lru_cfs import LruCfsPolicy

            policy = LruCfsPolicy()
        self.policy = policy
        # Same trick as the pick-key below: when the policy keeps the
        # base-class reclaim_protect (which always answers False) the
        # reclaim scan skips the per-page Python call entirely.
        if type(policy).reclaim_protect is ManagementPolicy.reclaim_protect:
            self.mm.reclaim_protect = None
        else:
            self.mm.reclaim_protect = self._reclaim_protect
        # Bound method wired directly: the pick key runs once per task
        # per scheduler quantum, so every wrapper frame counts.  When the
        # policy keeps the base-class key (plain CFS min-vruntime) the
        # scheduler's own single-sort path runs instead — same ordering,
        # no Python frame per runnable task.
        if type(policy).sched_pick_key is not ManagementPolicy.sched_pick_key:
            self.sched.pick_key = policy.sched_pick_key
        policy.attach(self)

    # ------------------------------------------------------------------
    # Wiring callbacks
    # ------------------------------------------------------------------
    def _wake_kswapd_task(self) -> None:
        task = self._kswapd_task
        if task.state in _KSWAPD_WAKEABLE:
            task.state = RUNNABLE

    def _on_freeze_change(self, pid: int, frozen: bool) -> None:
        if frozen:
            self.sched.freeze_pid(pid)
        else:
            self.sched.thaw_pid(pid)

    def _reclaim_protect(self, page: Page) -> bool:
        return self.policy.reclaim_protect(page)

    # ------------------------------------------------------------------
    # Cpusets: background-app tasks live in the little-cluster cpuset
    # ------------------------------------------------------------------
    def add_task(self, task: Task) -> Task:
        """Register ``task`` with the scheduler, in its app's cpuset
        (kernel and framework tasks have no process and are never
        confined)."""
        process = task.process
        task.background = (
            process is not None and process.app.state is not _FOREGROUND
        )
        return self.sched.add_task(task)

    def set_app_state(self, app: Application, state: AppState) -> None:
        """Move ``app`` to ``state``, and its tasks with it between the
        top-app and background cpusets, as Android's framework moves an
        app's tasks between cpuset cgroups."""
        app.state = state
        background = state is not _FOREGROUND
        uid = app.uid
        for task in self.sched.tasks.values():
            if task.app_uid == uid:
                task.background = background

    # ------------------------------------------------------------------
    # App management
    # ------------------------------------------------------------------
    def install_app(self, profile: AppProfile) -> Application:
        if profile.package in self.apps:
            raise ValueError(f"{profile.package} already installed")
        app = Application(profile, uid=next(self._uids))
        self.apps[profile.package] = app
        return app

    def spawn_process(self, app: Application, name: str, main: bool) -> Process:
        """A new process of ``app`` with this system's next pid, its
        pages to be allocated in this system's slab."""
        return Process(name, app, next(self._pids), self.mm.slab, main=main)

    def install_apps(self, profiles: Iterable[AppProfile]) -> List[Application]:
        return [self.install_app(profile) for profile in profiles]

    def get_app(self, package: str) -> Application:
        try:
            return self.apps[package]
        except KeyError:
            raise KeyError(f"app {package!r} not installed") from None

    def launch(self, package: str, **kwargs) -> LaunchRecord:
        return self.activity_manager.launch(self.get_app(package), **kwargs)

    @property
    def foreground_app(self) -> Optional[Application]:
        return self.activity_manager.foreground

    def kill_app(self, app: Application) -> int:
        """Tear an application down completely; returns pages freed."""
        freed = 0
        for process in app.processes:
            process.alive = False
            for task in list(process.tasks):
                self.sched.remove_task(task)
            process.tasks.clear()
            self.freezer.forget(process.pid)
            freed += self.mm.discard_ids(process.page_table.all_page_ids())
        app.processes = []
        self.set_app_state(app, AppState.STOPPED)
        self.activity_manager.on_app_killed(app)
        self.policy.on_app_killed(app)
        return freed

    # ------------------------------------------------------------------
    # Memory access paths (used by behaviours and the frame engine)
    # ------------------------------------------------------------------
    def touch_ids(self, process: Process, ids: List[int], write: bool = False) -> float:
        """CPU touches to slab page ``ids``; returns blocking fault ms.

        Faults within one batch are sequential CPU-side (decompression,
        reclaim stalls add up) but their flash reads pipeline through
        the block queue: the batch blocks until the *last* bio
        completes, not for the sum of all queue waits.

        This is the hottest loop in the simulator: the resident fast
        path is two array reads and one write, and the fault path calls
        the fused :meth:`~repro.kernel.page_fault.PageFaultHandler.handle_id`
        (no ``FaultOutcome`` object) with the LMK retry inlined.
        """
        if not process.alive:
            return 0.0
        cpu_ms = 0.0
        now = self.sim.now
        io_until = now
        app = process.app
        foreground = app.state is _FOREGROUND
        slab = self.mm.slab
        flags = slab.flags
        kind = slab.kind
        handle_id = self.fault_handler.handle_id
        kill_one = self.lmk.kill_one
        pid = process.pid
        uid = app.uid
        # The resident fast path cannot change ``process.alive`` (it is
        # two flag-column ops), so the liveness re-check only needs to
        # run after a fault — which may have OOMed and LMK-killed this
        # very app.
        for i in ids:
            f = flags[i]
            if f & PRESENT:
                # The access: young bit, and dirty for a file write.
                if write and kind[i] == KIND_FILE:
                    flags[i] = f | REFERENCED | DIRTY
                else:
                    flags[i] = f | REFERENCED
                continue
            result = None
            for _attempt in range(3):
                try:
                    result = handle_id(i, pid, uid, foreground, write)
                    break
                except OutOfMemoryError:
                    victim = kill_one("page-fault")
                    if victim is None or victim is app:
                        break
            if result is not None:
                cpu_ms += result[0]
                complete_at = result[1]
                if complete_at is not None and complete_at > io_until:
                    io_until = complete_at
            if not process.alive:
                break
        return cpu_ms + max(0.0, io_until - self.sim.now)

    def allocate_ids(self, process: Process, ids: List[int]) -> float:
        """Make slab page ``ids`` resident (fresh allocation); stall ms."""
        stall = 0.0
        try:
            for _attempt in range(4):
                try:
                    outcome = self.mm.make_resident_bulk_ids(ids)
                    stall += outcome.stall_ms
                    return stall
                except OutOfMemoryError:
                    victim = self.lmk.kill_one("allocation")
                    if victim is None or victim is process.app:
                        return stall
            return stall
        finally:
            if stall > 0:
                self._record_alloc_stall(process, stall)

    def _record_alloc_stall(self, process: Process, stall: float) -> None:
        """Charge an allocation stall of ``stall`` ms to PSI memory; it is
        a full stall while the process's app is in the foreground."""
        self.psi.record(
            "memory", stall, uid=process.uid,
            full=process.app.state is _FOREGROUND,
        )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, seconds: float) -> None:
        """Advance the simulation by ``seconds`` of device time."""
        self.sim.run_until(self.sim.now + seconds * 1000.0)

    def run_ms(self, ms: float) -> None:
        self.sim.run_until(self.sim.now + ms)

    def run_until_complete(self, record: LaunchRecord, timeout_s: float = 60.0) -> bool:
        """Run until a launch completes (or the timeout elapses)."""
        deadline = self.sim.now + timeout_s * 1000.0
        while not record.completed and self.sim.now < deadline:
            self.sim.run_until(min(self.sim.now + 50.0, deadline))
        return record.completed

    # ------------------------------------------------------------------
    # Measurement helpers
    # ------------------------------------------------------------------
    @property
    def vmstat(self):
        return self.mm.vmstat

    def reset_measurements(self) -> None:
        """Zero all counters (start of a measurement window)."""
        if self.sampler is not None:
            self.sampler.rebase()
        self.mm.vmstat.reset()
        self.flash.reset_stats()
        self.zram.reset_stats()
        stats = self.sched.stats
        stats.busy_ms_total = 0.0
        stats.samples.clear()
