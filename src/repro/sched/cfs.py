"""Multicore CFS scheduling in fixed quanta.

Every quantum (default 4 ms) the scheduler:

1. unblocks tasks whose I/O wait has elapsed,
2. picks the ``cores`` runnable tasks with the smallest virtual runtime
   (or by a policy-supplied key — UCSG reorders here),
3. runs each picked task for up to one quantum — draining its work-item
   queue, or calling its custom body (kswapd) — and
4. advances the task's vruntime by ``used * 1024 / effective_weight``.

Frozen tasks are invisible to step 2 — that is the entire enforcement
mechanism of process freezing.  CPU utilization is aggregated into
per-second buckets for Table 1 and §6.2.2.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Dict, List, Optional

from repro.sched.task import BLOCKED, DEAD, RUNNABLE, SLEEPING, Task, TaskState
from repro.sim.engine import Simulator
from repro.trace.tracer import CPU_PID

QUANTUM_MS = 4.0

# Sorting runnable tasks by their table position first, then stably by
# the pick key, reproduces the original walk-the-table-then-stable-sort
# ordering exactly (ties in the pick key resolve by insertion order).
_ORDER_KEY = operator.attrgetter("order_index")
_CFS_KEY = operator.attrgetter("vruntime", "order_index")


class CpuStats:
    """Per-second CPU utilization accounting.

    :meth:`CfsScheduler.tick` charges each quantum's busy core-ms here,
    inline, into the bucket of the second the quantum starts in.
    """

    def __init__(self, cores: int):
        self.cores = cores
        self.busy_ms_total: float = 0.0
        self.samples: List[float] = []  # one utilization value per second
        self._bucket_busy: float = 0.0
        self._bucket_start: float = 0.0

    @property
    def average_utilization(self) -> float:
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    @property
    def peak_utilization(self) -> float:
        return max(self.samples) if self.samples else 0.0

    def utilization_over(self, elapsed_ms: float) -> float:
        if elapsed_ms <= 0:
            return 0.0
        return self.busy_ms_total / (self.cores * elapsed_ms)


class CfsScheduler:
    """The run-queue plus the per-quantum dispatch loop."""

    def __init__(
        self, cores: int, sim: Simulator, quantum_ms: float = QUANTUM_MS,
    ):
        if cores <= 0:
            raise ValueError("need at least one core")
        self.cores = cores
        # The clock :meth:`tick` reads: the system runs tick as its
        # periodic event, so a quantum starts at ``sim.now``.
        self.sim = sim
        # Android cpusets: background tasks are restricted to the little
        # cluster (half the cores), while the top-app and system tasks
        # may use every core — this is why the paper finds CPU
        # contention is *not* what hurts the foreground app (§2.2.3,
        # footnote 2), and it is the lever UCSG-style demotion acts on.
        self.little_cores = max(1, cores // 2)
        self.quantum_ms = quantum_ms
        self.tasks: Dict[int, Task] = {}
        self._tids = itertools.count(1)
        # State-partitioned views of ``tasks``, maintained incrementally
        # by Task.state's setter (via :meth:`_note_state`): the 4 ms tick
        # touches only the blocked set (wakeups) and the runnable set
        # (dispatch) instead of walking the whole table every quantum.
        self._runnable: Dict[int, Task] = {}
        self._blocked: Dict[int, Task] = {}
        # tid -> vruntime of the non-runnable, non-dead tasks
        # (sleeping/blocked/frozen) — the complement the min-vruntime
        # pass needs.  Stored as floats: vruntime only accrues while a
        # task runs, so the value is frozen while the task idles.
        self._idle_vr: Dict[int, float] = {}
        # min(_idle_vr.values()), or None when it must be recomputed.
        # An insert lowers it; only the removal (or refresh) of an entry
        # equal to it resets it, so it stays exact without a ``min``
        # over the idle tasks every quantum.
        self._idle_min: Optional[float] = None
        self._order_counter = 0
        self.stats = CpuStats(cores)
        # Policy hook: maps a task to its pick-order key (smaller runs
        # first).  ``None`` is plain CFS min-vruntime.
        self.pick_key: Optional[Callable[[Task], object]] = None
        # Policies may cap how many background tasks run concurrently
        # (UCSG packs demoted tasks onto fewer cores).
        self.bg_slot_limit: Optional[int] = None
        self._min_vruntime: float = 0.0
        # Set whenever the task table changes (add/remove); tells the
        # tick that its fused min-vruntime bookkeeping is stale and a
        # full walk is needed for this quantum.
        self._membership_dirty: bool = True
        # Monotone serial tagged onto picked tasks each quantum (see
        # Task.pick_mark): membership tests in the cpu-pressure pass
        # become one int compare instead of set construction + lookups.
        self._pick_serial: int = 0
        # Optional tracing hook (repro.trace.Tracer); None when disabled.
        self.tracer = None
        # Optional PSI hook: runnable-but-not-running time is cpu
        # pressure ("some"); frozen tasks are not runnable, so freezing
        # genuinely relieves the cpu pressure signal.
        self.psi = None

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------
    def add_task(self, task: Task) -> Task:
        """Register ``task`` and give it this scheduler's next tid."""
        if task.sched is not None:
            raise ValueError(f"task {task.tid} already registered")
        task.tid = next(self._tids)
        # New tasks start at the current min vruntime so they neither
        # starve nor monopolise the CPU.
        task.vruntime = self._min_vruntime
        task.sched = self
        task.order_index = self._order_counter
        self._order_counter += 1
        self.tasks[task.tid] = task
        state = task.state
        if state is RUNNABLE:
            self._runnable[task.tid] = task
        elif state is not DEAD:
            # Join the idle views the way a task leaving the run queue does.
            self._note_state(task, RUNNABLE, state)
        self._membership_dirty = True
        return task

    def remove_task(self, task: Task) -> None:
        task.kill()  # state -> DEAD drops it from the partitioned views
        self.tasks.pop(task.tid, None)
        if task.sched is self:
            task.sched = None
        self._membership_dirty = True

    def _note_state(self, task: Task, old: TaskState, new: TaskState) -> None:
        """Task.state setter hook: keep the partitioned views current."""
        tid = task.tid
        if old is RUNNABLE:
            self._runnable.pop(tid, None)
        else:
            if self._idle_vr.pop(tid, None) == self._idle_min:
                self._idle_min = None  # it held the minimum
            if old is BLOCKED:
                self._blocked.pop(tid, None)
        if new is RUNNABLE:
            self._runnable[tid] = task
        elif new is not DEAD:
            vruntime = task.vruntime
            self._idle_vr[tid] = vruntime
            idle_min = self._idle_min
            if idle_min is not None and vruntime < idle_min:
                self._idle_min = vruntime
            if new is BLOCKED:
                self._blocked[tid] = task

    def tasks_of_pid(self, pid: int) -> List[Task]:
        return [task for task in self.tasks.values() if task.pid == pid]

    def freeze_pid(self, pid: int) -> None:
        for task in self.tasks_of_pid(pid):
            if task.freezable:
                task.freeze()

    def thaw_pid(self, pid: int) -> None:
        for task in self.tasks_of_pid(pid):
            task.thaw()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def tick(self) -> float:
        """Run the quantum starting at ``sim.now``; returns busy core-ms
        consumed.

        The scheduler drains each picked task's work-item queue itself
        (touch, then the CPU slice, then ``on_complete``); only a task
        without a queue (``task.body`` set, e.g. kswapd) is called out
        to.  Callbacks can have drastic side effects — a fault can OOM,
        invoke the LMK, and kill *this very task's application*
        (clearing its queue) — so the drain re-validates the task and
        queue after every callback.
        """
        now = self.sim.now
        # Wake pass over the blocked set only (a handful of tasks) —
        # the partitioned views make the full-table walk unnecessary.
        # This runs every 4 ms of simulated time and used to dominate
        # the event loop.
        if self._blocked:
            for task in list(self._blocked.values()):
                if task.blocked_until <= now:
                    task.blocked_until = 0.0
                    task.unblock()
        busy = 0.0
        runnable_map = self._runnable
        if runnable_map:
            pick_key = self.pick_key
            if pick_key is None:
                # Plain CFS: one sort on (vruntime, table position), the
                # order the two sorts below give with a vruntime key.
                runnable = sorted(runnable_map.values(), key=_CFS_KEY)
            else:
                # Table order first, then a stable sort by the pick key —
                # the exact ordering of the original walk-and-sort.
                runnable = sorted(runnable_map.values(), key=_ORDER_KEY)
                runnable.sort(key=pick_key)
            # ``idle_min``: min vruntime over the non-runnable, non-dead
            # tasks, snapshotted before dispatch; combined with the
            # runnable list after dispatch it reproduces the full
            # min-vruntime pass.  Kept incrementally (see __init__).
            idle_vr = self._idle_vr
            idle_min = self._idle_min
            if idle_min is None and idle_vr:
                idle_min = self._idle_min = min(idle_vr.values())
            big_free = self.cores - self.little_cores
            little_free = self.little_cores
            if self.bg_slot_limit is not None:
                little_free = min(little_free, self.bg_slot_limit)
            if len(runnable) <= little_free:
                # Everything fits even if every task is background-confined:
                # the pick degenerates to "run them all" with no cpuset
                # classification and no cpu pressure.
                picked = runnable
            else:
                serial = self._pick_serial + 1
                self._pick_serial = serial
                picked = []
                for task in runnable:
                    if big_free + little_free == 0:
                        break
                    if task.background:
                        if little_free > 0:
                            little_free -= 1
                            picked.append(task)
                            task.pick_mark = serial
                    elif big_free > 0:
                        big_free -= 1
                        picked.append(task)
                        task.pick_mark = serial
                    elif little_free > 0:
                        little_free -= 1
                        picked.append(task)
                        task.pick_mark = serial
                psi = self.psi
                if psi is not None and len(picked) < len(runnable):
                    # At least one task waits out this whole quantum: cpu
                    # "some" pressure for the system, and for each waiting
                    # app's group.
                    psi.record("cpu", self.quantum_ms, start=now)
                    waiting_uids = set()
                    for task in runnable:
                        if task.pick_mark == serial or task.process is None:
                            continue
                        uid = task.app_uid
                        if uid not in waiting_uids:
                            waiting_uids.add(uid)
                            psi.record("cpu", self.quantum_ms, start=now, uid=uid)
            budget = self.quantum_ms
            tracer = self.tracer
            # Callbacks may add or remove tasks (launches, LMK kills); the
            # dirty flag tells us when the fused min below is stale.
            self._membership_dirty = False
            for core, task in enumerate(picked):
                body = task.body
                if body is not None:
                    used = body.run(task, now, budget)
                else:
                    # Drain the work-item queue.  ``task.queue`` is mutated
                    # in place (popleft/clear) but never rebound, so the
                    # alias stays valid across callbacks.
                    used = 0.0
                    queue = task.queue
                    while used < budget and queue:
                        item = queue[0]
                        if item.touch is not None and not item.touched:
                            item.touched = True
                            fault_ms = item.touch()
                            if task._state is DEAD:
                                break
                            if not queue or queue[0] is not item:
                                continue  # the callback restructured the queue
                            if fault_ms > 0:
                                task.block_until(now + fault_ms)
                                break
                        slice_ms = item.cpu_ms
                        if slice_ms > budget - used:
                            slice_ms = budget - used
                        item.cpu_ms -= slice_ms
                        used += slice_ms
                        if item.cpu_ms <= 1e-9:
                            if queue and queue[0] is item:
                                queue.popleft()
                            if item.on_complete is not None:
                                item.on_complete()
                            if task._state is DEAD:
                                break
                if used > 0:
                    task.cpu_ms_total += used
                    # Inlined effective_weight() — one call per picked task
                    # per quantum adds up.
                    task.vruntime += used * 1024.0 / (task.weight * task.boost)
                    busy += used
                    tid = task.tid
                    if tid in idle_vr:
                        # The task went idle (blocked/slept) inside its own
                        # quantum, *before* this accrual: refresh its entry
                        # so the idle minimum sees the final value.
                        if idle_vr[tid] == self._idle_min:
                            self._idle_min = None
                        idle_vr[tid] = task.vruntime
                    if tracer is not None:
                        tracer.complete(
                            task.name, CPU_PID, core, start_ms=now, dur_ms=used,
                            cat="sched",
                        )
                if tracer is not None and task._state is BLOCKED:
                    # I/O block span on the task's own thread track, from the
                    # moment it yielded until its wakeup time.
                    tracer.complete(
                        "blocked", task.pid if task.pid is not None else CPU_PID,
                        task.tid, start_ms=now + used,
                        dur_ms=max(0.0, task.blocked_until - now - used),
                        cat="sched",
                    )
                if task._state is RUNNABLE and not (
                    task.queue if body is None else body.has_work(task)
                ):
                    # Inlined ``task.state = SLEEPING`` (the setter and
                    # _note_state): a runnable task of this scheduler
                    # leaves the run queue for the idle set.
                    task._state = SLEEPING
                    tid = task.tid
                    runnable_map.pop(tid, None)
                    vruntime = task.vruntime
                    idle_vr[tid] = vruntime
                    lowest = self._idle_min
                    if lowest is not None and vruntime < lowest:
                        self._idle_min = vruntime
            if picked:
                if self._membership_dirty:
                    # The task table changed mid-quantum: fall back to the
                    # exact full walk (rare — launch or kill quanta only).
                    lowest = None
                    for task in self.tasks.values():
                        if task._state is not DEAD:
                            vruntime = task.vruntime
                            if lowest is None or vruntime < lowest:
                                lowest = vruntime
                else:
                    # Only tasks in ``runnable`` ran (their vruntime grew);
                    # everything else was folded into ``idle_min`` above.
                    lowest = idle_min
                    for task in runnable:
                        vruntime = task.vruntime
                        if lowest is None or vruntime < lowest:
                            lowest = vruntime
                if lowest is not None and lowest > self._min_vruntime:
                    self._min_vruntime = lowest
        # Inlined CpuStats accounting: the quantum's busy time goes into
        # the per-second bucket of its start time.
        stats = self.stats
        stats.busy_ms_total += busy
        while now - stats._bucket_start >= 1000.0:
            stats.samples.append(stats._bucket_busy / (stats.cores * 1000.0))
            stats._bucket_busy = 0.0
            stats._bucket_start += 1000.0
        stats._bucket_busy += busy
        return busy
