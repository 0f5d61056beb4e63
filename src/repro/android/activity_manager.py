"""ActivityManager: application lifecycle, launching, and switching.

Implements the launch semantics the paper's Figure 11 study measures:

* **Cold launch** — no live process: spawn processes, stream code and
  resources from flash, allocate the initial resident set (possibly
  direct-reclaiming under pressure), and run the app's start-up CPU
  work.  Launch time spans tap-to-interactive.
* **Hot launch** — the app was cached: resume costs a little CPU plus
  faulting back whatever part of the working set was reclaimed while
  cached.  Ice adds thaw-on-launch here: a frozen app is thawed before
  being displayed (§4.4), which is the policy's ``before_launch`` hook.

Foreground switches update ``oom_adj`` recency ranks and the memory
manager's foreground UID (the basis of FG/BG refault classification).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.android.app import Application, AppState
from repro.apps.behavior import BackgroundBehavior, PageSampler
from repro.kernel.slab import PRESENT
from repro.sched.task import Task, WorkItem
from repro.trace.tracer import ACTIVITY_MANAGER_TID, SYSTEM_PID


@dataclass
class LaunchRecord:
    """Measurement of one launch (the `adb am start` analogue)."""

    package: str
    style: str  # "cold" | "hot"
    start_ms: float
    end_ms: float = 0.0
    thaw_ms: float = 0.0
    completed: bool = False

    @property
    def latency_ms(self) -> float:
        return self.end_ms - self.start_ms


class ActivityManager:
    """Launch, switch, and lifecycle bookkeeping."""

    # Fraction of an app's pages made resident by a cold launch; the
    # rest is demand-paged as the app is actually used (working-set
    # growth during early use is what keeps reclaim busy after launch).
    COLD_RESIDENT_FRAC = 0.55
    # Split of footprint held by the main process (rest spread over aux).
    MAIN_PROCESS_SHARE = 0.60

    def __init__(self, system):
        self.system = system
        self.foreground: Optional[Application] = None
        self.launch_records: List[LaunchRecord] = []
        self.behaviors: Dict[int, BackgroundBehavior] = {}
        self._cache_order: List[Application] = []  # most recent first

    # ------------------------------------------------------------------
    # Launching
    # ------------------------------------------------------------------
    def launch(
        self,
        app: Application,
        drive_frames: bool = True,
        on_ready: Optional[Callable[[LaunchRecord], None]] = None,
    ) -> LaunchRecord:
        """Start (or resume) ``app`` and bring it to the foreground.

        Returns a :class:`LaunchRecord` that is filled in when the
        launch completes (simulated time advances in between).
        """
        system = self.system
        style = "hot" if app.alive else "cold"
        record = LaunchRecord(
            package=app.package, style=style, start_ms=system.sim.now
        )
        self.launch_records.append(record)
        app.launch_count += 1

        # Thaw-on-launch and other policy preparation (Ice thaws frozen
        # processes before the app is displayed, §4.4).
        record.thaw_ms = system.policy.before_launch(app)

        self._set_foreground(app)

        tracer = system.tracer
        launch_id = 0
        if tracer is not None:
            # Async span: launches can overlap frames and each other, so
            # they get their own id-matched b/e pair on the AM track.
            launch_id = tracer.new_flow_id()
            tracer.async_begin(
                f"launch:{app.package}", launch_id,
                SYSTEM_PID, ACTIVITY_MANAGER_TID,
                args={"style": style, "thaw_ms": record.thaw_ms},
                cat="launch",
            )
            if record.thaw_ms > 0:
                tracer.complete(
                    "thaw_on_launch", SYSTEM_PID, ACTIVITY_MANAGER_TID,
                    start_ms=record.start_ms, dur_ms=record.thaw_ms,
                    args={"package": app.package}, cat="launch",
                )

        def finish() -> None:
            record.end_ms = system.sim.now
            record.completed = True
            if tracer is not None:
                tracer.async_end(
                    f"launch:{app.package}", launch_id,
                    SYSTEM_PID, ACTIVITY_MANAGER_TID,
                    args={"latency_ms": record.latency_ms},
                    cat="launch",
                )
                tracer.histogram(f"launch_{style}_ms").add(record.latency_ms)
            if drive_frames and self.foreground is app:
                sampler = self._main_sampler(app)
                system.frame_engine.start(app, sampler)
            if on_ready is not None:
                on_ready(record)

        def begin() -> None:
            if style == "cold":
                self._spawn_processes(app)
                self._submit_cold_work(app, finish)
            else:
                self._submit_hot_work(app, finish)

        if record.thaw_ms > 0:
            system.sim.schedule(record.thaw_ms, begin)
        else:
            begin()
        return record

    # ------------------------------------------------------------------
    def _set_foreground(self, app: Application) -> None:
        system = self.system
        previous = self.foreground
        if previous is app:
            return
        if previous is not None and previous.alive:
            system.frame_engine.stop()
            system.set_app_state(previous, AppState.CACHED)
            previous.last_foreground_ms = system.sim.now
            self._cache_order.insert(0, previous)
        if app in self._cache_order:
            self._cache_order.remove(app)
        self._update_recency()
        system.set_app_state(app, AppState.FOREGROUND)
        self.foreground = app
        system.mm.foreground_uid = app.uid
        system.policy.on_foreground_change(app, previous)

    def _update_recency(self) -> None:
        for rank, app in enumerate(self._cache_order):
            app.recency_rank = rank

    # ------------------------------------------------------------------
    # Process spawning
    # ------------------------------------------------------------------
    def _spawn_processes(self, app: Application) -> None:
        system = self.system
        spec = system.spec
        profile = app.profile
        segments = profile.segment_pages(spec)
        count = max(1, profile.process_count)
        aux_count = count - 1

        for index in range(count):
            main = index == 0
            if main:
                java = segments["java_heap"]
                native = int(segments["native_heap"] * self.MAIN_PROCESS_SHARE)
                files = int(segments["file_map"] * self.MAIN_PROCESS_SHARE)
                if aux_count == 0:
                    native = segments["native_heap"]
                    files = segments["file_map"]
                name = profile.package
            else:
                java = 0
                native = (
                    segments["native_heap"]
                    - int(segments["native_heap"] * self.MAIN_PROCESS_SHARE)
                ) // aux_count
                files = (
                    segments["file_map"]
                    - int(segments["file_map"] * self.MAIN_PROCESS_SHARE)
                ) // aux_count
                name = f"{profile.package}:sub{index}"
            process = system.spawn_process(app, name, main=main)
            process.build_footprint(
                java_pages=java,
                native_pages=native,
                file_pages=files,
                hot_frac=profile.hot_frac,
                file_dirty_frac=profile.file_dirty_frac,
            )
            app.processes.append(process)

            main_task = Task(f"{name}.main", process=process, nice=0)
            system.add_task(main_task)
            process.tasks.append(main_task)
            gc_task = None
            if java > 0:
                gc_task = Task(f"{name}.HeapTaskDaemon", process=process, nice=4)
                system.add_task(gc_task)
                process.tasks.append(gc_task)

            behavior = BackgroundBehavior(system, process, main_task, gc_task)
            behavior.start()
            self.behaviors[process.pid] = behavior

            tracer = system.tracer
            if tracer is not None:
                tracer.register_process(process.pid, name)
                # tid 0 carries kernel-side events (refaults) attributed
                # to this process.
                tracer.register_thread(process.pid, 0, "mm-events")
                for task_obj in process.tasks:
                    tracer.register_thread(
                        process.pid, task_obj.tid, task_obj.name
                    )
                system.fault_handler.pid_names[process.pid] = profile.package
        system.policy.on_app_started(app)

    def _main_sampler(self, app: Application) -> PageSampler:
        main = app.main_process
        if main is None:
            raise ValueError(f"{app.package} has no main process")
        return self.behaviors[main.pid].sampler

    # ------------------------------------------------------------------
    # Launch work
    # ------------------------------------------------------------------
    def _submit_cold_work(self, app: Application, finish: Callable[[], None]) -> None:
        system = self.system
        profile = app.profile
        main = app.main_process
        task = main.tasks[0]
        cpu_total = profile.cold_launch_cpu_ms / system.spec.cpu_speed

        # Code/resource pages streamed from flash during start-up.
        code_pages = int(
            len(main.page_table.ids_of("file_map")) * profile.cold_launch_read_frac
        )

        def read_code() -> float:
            if code_pages <= 0:
                return 0.0
            complete = system.flash.read(system.sim.now, code_pages)
            system.mm.vmstat.filein += code_pages
            return complete - system.sim.now

        chunks = self._resident_chunks(app)

        def alloc(chunk_index: int) -> float:
            stall = 0.0
            for process, ids in chunks[chunk_index]:
                stall += system.allocate_ids(process, ids)
            return stall

        tracer = system.tracer

        def phase_done(phase: str):
            if tracer is None:
                return None
            return lambda: tracer.instant(
                f"launch_phase:{phase}", pid=SYSTEM_PID,
                tid=ACTIVITY_MANAGER_TID, cat="launch",
                args={"package": app.package},
            )

        task.submit(WorkItem(cpu_ms=cpu_total * 0.3, touch=read_code,
                             on_complete=phase_done("cold-io"), label="cold-io"))
        task.submit(
            WorkItem(cpu_ms=cpu_total * 0.4, touch=lambda: alloc(0),
                     on_complete=phase_done("cold-alloc1"), label="cold-alloc1")
        )
        task.submit(
            WorkItem(
                cpu_ms=cpu_total * 0.3,
                touch=lambda: alloc(1),
                on_complete=finish,
                label="cold-alloc2",
            )
        )

    def _resident_chunks(self, app: Application):
        """Split each process's initial resident set into two id chunks."""
        flags = self.system.mm.slab.flags
        chunk_a, chunk_b = [], []
        for process in app.processes:
            ids = [
                i
                for i in process.page_table.all_page_ids()
                if not flags[i] & PRESENT
            ]
            frac = app.profile.cold_resident_frac
            if frac is None:
                frac = self.COLD_RESIDENT_FRAC
            resident = ids[: int(len(ids) * frac)]
            half = len(resident) // 2
            chunk_a.append((process, resident[:half]))
            chunk_b.append((process, resident[half:]))
        return [chunk_a, chunk_b]

    def _submit_hot_work(self, app: Application, finish: Callable[[], None]) -> None:
        system = self.system
        profile = app.profile
        main = app.main_process
        task = main.tasks[0]
        sampler = self._main_sampler(app)
        # A resume redraws the UI from the *hot nucleus*; the rest of
        # the working set is demand-paged lazily during subsequent use
        # (the frame engine's touches), not on the launch critical path.
        touch_count = min(
            int(main.page_table.total_pages * profile.hot_launch_touch_frac),
            max(64, int(len(sampler.hot_ids) * 0.8)),
        )
        pages = sampler.sample_ids(touch_count, hot_bias=0.95)

        from repro.apps.behavior import submit_touch

        submit_touch(
            system,
            task,
            main,
            pages,
            profile.hot_launch_cpu_ms / system.spec.cpu_speed,
            "hot-resume",
            on_complete=finish,
        )

    # ------------------------------------------------------------------
    # Teardown hooks (called by MobileSystem.kill_app)
    # ------------------------------------------------------------------
    def on_app_killed(self, app: Application) -> None:
        if app in self._cache_order:
            self._cache_order.remove(app)
            self._update_recency()
        for process in app.processes:
            self.behaviors.pop(process.pid, None)
        if self.foreground is app:
            self.foreground = None
            self.system.mm.foreground_uid = None
