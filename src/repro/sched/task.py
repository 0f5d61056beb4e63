"""Tasks: the schedulable unit.

A :class:`Task` belongs to a process (or to the kernel) and carries a
queue of :class:`WorkItem` objects.  The scheduler consumes work items
in FIFO order (:meth:`repro.sched.cfs.CfsScheduler.tick`); each item
brings CPU demand plus a page-touch callback, and a major fault inside
an item blocks the task until the fault's service time has elapsed (the
remaining CPU demand resumes afterwards).

Tasks without a queue (kswapd) implement :class:`TaskBody` instead.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, Optional

from repro.sched.priorities import NICE_DEFAULT, nice_to_weight

class TaskState(enum.Enum):
    SLEEPING = "sleeping"  # no pending work
    RUNNABLE = "runnable"
    BLOCKED = "blocked"  # waiting on I/O (fault service)
    FROZEN = "frozen"
    DEAD = "dead"


# Member lookups such as ``TaskState.DEAD`` run a Python-level
# descriptor on CPython 3.11 (~0.2 us each, ten times a global load),
# and the state machine does several per scheduling quantum; hot paths
# compare against these module-level aliases of the same members.
SLEEPING = TaskState.SLEEPING
RUNNABLE = TaskState.RUNNABLE
BLOCKED = TaskState.BLOCKED
FROZEN = TaskState.FROZEN
DEAD = TaskState.DEAD


class WorkItem:
    """One burst of work: CPU demand plus an optional page-touch hook.

    ``touch`` is invoked once, when the item starts executing; it
    returns the *blocking* fault-service time in ms (0 when all pages
    were resident).  ``on_complete`` fires when the CPU demand has been
    fully consumed.
    """

    __slots__ = ("cpu_ms", "touch", "on_complete", "touched", "label")

    def __init__(
        self,
        cpu_ms: float,
        touch: Optional[Callable[[], float]] = None,
        on_complete: Optional[Callable[[], None]] = None,
        label: str = "",
    ):
        if cpu_ms < 0:
            raise ValueError("work item cpu_ms must be >= 0")
        self.cpu_ms = cpu_ms
        self.touch = touch
        self.on_complete = on_complete
        self.touched = False
        self.label = label


class TaskBody:
    """Strategy interface for a task without a work-item queue.

    A task whose ``body`` is ``None`` (the default) has its queue
    drained by :meth:`CfsScheduler.tick`; a custom body (kswapd) decides
    itself what to do with each quantum.
    """

    def run(self, task: "Task", now: float, budget_ms: float) -> float:
        """Execute up to ``budget_ms`` of work; return CPU actually used.

        May change ``task.state`` (e.g. block on I/O via
        :meth:`Task.block_until`) and must return promptly with the CPU
        consumed so far.
        """
        raise NotImplementedError

    def has_work(self, task: "Task") -> bool:
        raise NotImplementedError


class Task:
    """A schedulable thread."""

    __slots__ = (
        "tid",
        "name",
        "process",
        "nice",
        "weight",
        "is_kernel",
        "freezable",
        "_state",
        "sched",
        "order_index",
        "app_uid",
        "background",
        "pick_mark",
        "vruntime",
        "queue",
        "body",
        "blocked_until",
        "cpu_ms_total",
        "boost",
    )

    def __init__(
        self,
        name: str,
        process: Optional[object] = None,
        nice: int = NICE_DEFAULT,
        is_kernel: bool = False,
        body: Optional[TaskBody] = None,
    ):
        # Assigned by CfsScheduler.add_task (0 until then): each system's
        # scheduler numbers its own tasks from 1.
        self.tid = 0
        self.name = name
        self.process = process  # owning Process, or None for kernel threads
        self.nice = nice
        self.weight = nice_to_weight(nice)
        self.is_kernel = is_kernel
        # Kernel threads and (later, via the whitelist) service processes
        # are never freezable (§4.2.1 "Process selection").
        self.freezable = not is_kernel
        self._state = SLEEPING
        # Owning scheduler; state changes notify it so the run queue is
        # maintained incrementally instead of re-derived by walking the
        # whole task table every quantum.
        self.sched = None
        # Position in the scheduler's task table (assigned by add_task);
        # the tie-breaker that reproduces the table-order stable sort.
        self.order_index = 0
        # The owning app's uid, cached once (process/app bindings never
        # change after construction) so the scheduler's cpu-pressure
        # accounting avoids a three-hop attribute chain per waiting task.
        self.app_uid = getattr(getattr(process, "app", None), "uid", None)
        # Android cpuset: True while the owning app is out of the
        # foreground, which confines the task to the little cluster.
        # The system sets it when the task is added and whenever its app
        # enters or leaves the foreground, so the pick reads a flag.
        self.background = False
        # Scratch mark used by the dispatch loop to tag this quantum's
        # picked tasks without building a per-tick set.
        self.pick_mark = 0
        self.vruntime: float = 0.0
        self.queue: Deque[WorkItem] = deque()
        # None: the scheduler drains ``queue``; otherwise a custom body.
        self.body: Optional[TaskBody] = body
        self.blocked_until: float = 0.0
        self.cpu_ms_total: float = 0.0
        # Scheduling boost applied by policies (UCSG): multiplies the
        # effective weight during pick and vruntime accrual.
        self.boost: float = 1.0

    # ------------------------------------------------------------------
    @property
    def state(self) -> TaskState:
        return self._state

    @state.setter
    def state(self, value: TaskState) -> None:
        old = self._state
        if value is old:
            return
        self._state = value
        sched = self.sched
        if sched is not None:
            sched._note_state(self, old, value)

    @property
    def pid(self) -> Optional[int]:
        return getattr(self.process, "pid", None)

    @property
    def uid(self) -> Optional[int]:
        return getattr(self.process, "uid", None)

    def effective_weight(self) -> float:
        return self.weight * self.boost

    def has_work(self) -> bool:
        body = self.body
        return bool(self.queue) if body is None else body.has_work(self)

    # ------------------------------------------------------------------
    # Work submission
    # ------------------------------------------------------------------
    def submit(self, item: WorkItem) -> None:
        """Queue a burst of work; wakes the task if it was sleeping."""
        if self._state is DEAD:
            return
        self.queue.append(item)
        if self._state is SLEEPING:
            self.state = RUNNABLE

    def block_until(self, time: float) -> None:
        """Block on I/O until the given simulated time."""
        if self._state is DEAD:
            return
        self.blocked_until = time
        self.state = BLOCKED

    def unblock(self) -> None:
        if self._state is BLOCKED:
            self.state = (
                RUNNABLE if self.has_work() else SLEEPING
            )

    def freeze(self) -> None:
        if self._state is not DEAD:
            self.state = FROZEN

    def thaw(self) -> None:
        if self._state is not FROZEN:
            return
        if self.has_work():
            self.state = RUNNABLE
        elif self.blocked_until > 0:
            self.state = BLOCKED
        else:
            self.state = SLEEPING

    def kill(self) -> None:
        self.state = DEAD
        self.queue.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.tid} {self.name!r} {self.state.value}>"
