"""Property-based lockstep: the fused CFS tick vs the unfused reference.

``CfsScheduler.tick`` drains a default task's work-item queue inline
instead of calling a per-task body object.  Its contract is that every
simulated quantum is *bit-identical* to the pre-fusion dispatch loop, in
which each picked task went through ``QueueBody.run`` and
``QueueBody.has_work``.  This module keeps that loop as an executable
reference (:class:`RefScheduler` plus :class:`RefQueueBody`, the old
code verbatim) and drives both with the same Hypothesis-generated task
mixes:

* work items whose ``touch`` returns 0, returns a fault time, kills its
  own or another task, freezes a task, or restructures its own queue;
* ``on_complete`` callbacks that submit more work (at either end of a
  queue), kill a task or spawn a new one (the LMK and launch paths
  change the task table mid-quantum);
* a custom-body task (kswapd-like), freeze/thaw and boost changes
  between quanta, and UCSG's class pick key with ``bg_slot_limit``.

After every quantum both worlds must agree on the busy time, on every
task's state, vruntime, CPU time and queue, on the min vruntime, on the
``CpuStats`` accounting, and on the ordered logs of callbacks, custom
body calls, PSI records and tracer spans (which record the picks).
"""

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.cfs import CfsScheduler
from repro.sched.task import Task, TaskBody, TaskState, WorkItem
from repro.trace.tracer import CPU_PID

_ORDER_KEY = operator.attrgetter("order_index")
_VRUNTIME = operator.attrgetter("vruntime")


# ----------------------------------------------------------------------
# Reference implementation (the pre-fusion dispatch loop)
# ----------------------------------------------------------------------
class RefQueueBody(TaskBody):
    """The old default body: drain the task's work-item queue."""

    def run(self, task, now, budget_ms):
        used = 0.0
        queue = task.queue
        dead = TaskState.DEAD
        while used < budget_ms and queue:
            item = queue[0]
            if item.touch is not None and not item.touched:
                item.touched = True
                fault_ms = item.touch()
                if task._state is dead:
                    return used
                if not queue or queue[0] is not item:
                    continue  # the callback restructured the queue
                if fault_ms > 0:
                    task.block_until(now + fault_ms)
                    return used
            slice_ms = item.cpu_ms
            if slice_ms > budget_ms - used:
                slice_ms = budget_ms - used
            item.cpu_ms -= slice_ms
            used += slice_ms
            if item.cpu_ms <= 1e-9:
                if queue and queue[0] is item:
                    queue.popleft()
                if item.on_complete is not None:
                    item.on_complete()
                if task._state is dead:
                    return used
        return used

    def has_work(self, task):
        return bool(task.queue)


class RefScheduler(CfsScheduler):
    """The old tick: table-order sort plus stable key sort, and every
    picked task dispatched through ``task.body``."""

    def tick(self, now):
        if self._blocked:
            for task in list(self._blocked.values()):
                if task.blocked_until <= now:
                    task.blocked_until = 0.0
                    task.unblock()
        if not self._runnable:
            self.stats.record(now, 0.0)
            return 0.0
        runnable = sorted(self._runnable.values(), key=_ORDER_KEY)
        idle_vr = self._idle_vr
        idle_min = min(idle_vr.values()) if idle_vr else None
        dead = TaskState.DEAD
        runnable.sort(key=self.pick_key or _VRUNTIME)
        big_free = self.cores - self.little_cores
        little_free = self.little_cores
        if self.bg_slot_limit is not None:
            little_free = min(little_free, self.bg_slot_limit)
        if len(runnable) <= little_free:
            picked = runnable
        else:
            serial = self._pick_serial + 1
            self._pick_serial = serial
            is_bg = self.is_background
            picked = []
            for task in runnable:
                if big_free + little_free == 0:
                    break
                if is_bg(task):
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
                psi.record("cpu", self.quantum_ms, start=now)
                waiting_uids = set()
                for task in runnable:
                    if task.pick_mark == serial or task.process is None:
                        continue
                    uid = task.app_uid
                    if uid not in waiting_uids:
                        waiting_uids.add(uid)
                        psi.record("cpu", self.quantum_ms, start=now, uid=uid)
        busy = 0.0
        tracer = self.tracer
        self._membership_dirty = False
        for core, task in enumerate(picked):
            used = task.body.run(task, now, self.quantum_ms)
            if used > 0:
                task.cpu_ms_total += used
                task.vruntime += used * 1024.0 / (task.weight * task.boost)
                busy += used
                if task.tid in idle_vr:
                    idle_vr[task.tid] = task.vruntime
                if tracer is not None:
                    tracer.complete(
                        task.name, CPU_PID, core, start_ms=now, dur_ms=used,
                        cat="sched",
                    )
            if tracer is not None and task._state is TaskState.BLOCKED:
                tracer.complete(
                    "blocked", task.pid if task.pid is not None else CPU_PID,
                    task.tid, start_ms=now + used,
                    dur_ms=max(0.0, task.blocked_until - now - used),
                    cat="sched",
                )
            if task._state is TaskState.RUNNABLE and not task.body.has_work(task):
                task.state = TaskState.SLEEPING
        if picked:
            if self._membership_dirty:
                lowest = None
                for task in self.tasks.values():
                    if task._state is not dead:
                        vruntime = task.vruntime
                        if lowest is None or vruntime < lowest:
                            lowest = vruntime
            else:
                lowest = idle_min
                for task in runnable:
                    vruntime = task.vruntime
                    if lowest is None or vruntime < lowest:
                        lowest = vruntime
            if lowest is not None and lowest > self._min_vruntime:
                self._min_vruntime = lowest
        self.stats.record(now, busy)
        return busy


# ----------------------------------------------------------------------
# One world: a scheduler, its tasks, and the logs its callbacks write
# ----------------------------------------------------------------------
class _App:
    def __init__(self, uid):
        self.uid = uid


class _Process:
    def __init__(self, pid, uid):
        self.pid = pid
        self.uid = uid
        self.app = _App(uid)


class _Recorder:
    """Stands in for both the PSI monitor and the tracer."""

    def __init__(self, world):
        self.world = world

    def record(self, resource, ms, start=None, uid=None):
        self.world.log.append(("psi", resource, ms, start, uid))

    def complete(self, name, pid, tid, start_ms, dur_ms, cat=None):
        # The blocked span's thread id is the task's tid, which differs
        # between worlds; log the task index instead.
        if name == "blocked":
            tid = self.world.index_of_tid.get(tid, tid)
        self.world.log.append(("span", name, pid, tid, start_ms, dur_ms, cat))


class _KswapdLikeBody(TaskBody):
    """A custom body without a queue: runs in bursts, then sleeps."""

    def __init__(self, world, bursts):
        self.world = world
        self.left = bursts

    def run(self, task, now, budget_ms):
        self.world.log.append(("body", now, self.left))
        self.left -= 1
        return min(budget_ms, 1.5)

    def has_work(self, task):
        return self.left > 0


class World:
    def __init__(self, spec, reference):
        self.reference = reference
        self.log = []
        self.tasks = []
        self.index_of_tid = {}
        cls = RefScheduler if reference else CfsScheduler
        sched = cls(cores=spec["cores"])
        if spec["ucsg"]:
            sched.pick_key = self._ucsg_key
            sched.bg_slot_limit = spec["bg_slot_limit"]
        sched.is_background = lambda task: task.name.startswith("bg")
        recorder = _Recorder(self)
        sched.psi = recorder
        if spec["traced"]:
            sched.tracer = recorder
        self.sched = sched
        for task_spec in spec["tasks"]:
            self.spawn(task_spec)

    @staticmethod
    def _ucsg_key(task):
        # repro.policies.ucsg.UcsgPolicy.sched_pick_key, minus the app
        # state lookup: FG before kernel before BG, CFS order within.
        if task.process is None:
            return (1, task.vruntime)
        if task.name.startswith("fg"):
            return (0, task.vruntime)
        return (2, task.vruntime)

    def spawn(self, task_spec):
        index = len(self.tasks)
        name = f"{'bg' if task_spec['bg'] else 'fg'}{index}"
        process = None
        if task_spec["uid"] is not None:
            process = _Process(pid=100 + task_spec["uid"], uid=task_spec["uid"])
        body = None
        if task_spec["custom_body"]:
            body = _KswapdLikeBody(self, task_spec["custom_body"])
            name = "kswapd"
        elif self.reference:
            body = RefQueueBody()
        task = Task(name, process=process, nice=task_spec["nice"], body=body)
        self.tasks.append(task)
        self.sched.add_task(task)
        self.index_of_tid[task.tid] = index
        for item_spec in task_spec["items"]:
            task.submit(self.make_item(index, item_spec))
        if task_spec["custom_body"]:
            task.state = TaskState.RUNNABLE
        return task

    # -- work items ----------------------------------------------------
    def make_item(self, owner, item_spec):
        cpu_ms, touch, done = item_spec
        return WorkItem(
            cpu_ms=cpu_ms,
            touch=None if touch is None else self._touch(owner, touch),
            on_complete=None if done is None else self._done(owner, done),
        )

    def _task(self, index):
        return self.tasks[index % len(self.tasks)]

    def _touch(self, owner, action):
        kind, arg = action

        def touch():
            task = self.tasks[owner]
            self.log.append(("touch", owner, kind, arg))
            if kind == "fault":
                return arg
            if kind == "kill_self":
                self.sched.remove_task(task)
                return arg
            if kind == "kill_other":
                self.sched.remove_task(self._task(arg))
            elif kind == "freeze":
                self._task(arg).freeze()
            elif kind == "restructure":
                # A fault that OOMs and relaunches can reshape the queue
                # under the running item.
                task.queue.appendleft(WorkItem(cpu_ms=arg))
            elif kind == "clear":
                task.queue.clear()
                task.submit(WorkItem(cpu_ms=arg))
            return 0.0

        return touch

    def _done(self, owner, action):
        kind, arg = action

        def on_complete():
            self.log.append(("done", owner, kind, arg))
            if kind == "submit_self":
                self.tasks[owner].submit(WorkItem(cpu_ms=arg))
            elif kind == "push_front":
                # Urgent follow-up work ahead of the rest of the queue.
                self.tasks[owner].queue.appendleft(WorkItem(cpu_ms=arg + 1.0))
            elif kind == "submit_other":
                self._task(arg).submit(
                    self.make_item(arg % len(self.tasks), (2.5, ("fault", 3.0), None))
                )
            elif kind == "kill":
                self.sched.remove_task(self._task(arg))
            elif kind == "spawn":
                self.spawn({
                    "bg": bool(arg % 2), "uid": arg % 3, "nice": 0,
                    "custom_body": 0,
                    "items": [(3.0 + arg, ("fault", 2.0), None), (1.0, None, None)],
                })

        return on_complete

    # -- between quanta ------------------------------------------------
    def external(self, action):
        kind, index, arg = action
        task = self._task(index)
        if kind == "freeze":
            task.freeze()
        elif kind == "thaw":
            task.thaw()
        elif kind == "boost":
            task.boost = arg
        elif kind == "submit":
            task.submit(self.make_item(index % len(self.tasks), (arg, None, None)))

    def snapshot(self):
        stats = self.sched.stats
        return (
            [
                (t.name, t.state, t.vruntime, t.cpu_ms_total, t.blocked_until,
                 [item.cpu_ms for item in t.queue])
                for t in self.tasks
            ],
            self.sched._min_vruntime,
            stats.busy_ms_total,
            list(stats.samples),
            stats._bucket_busy,
        )


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
# 4.0000000005 and 8.000000001 leave remainders within 1e-9 of a 4 ms
# quantum: the edge of the drain loop's completion test.
_cpu = st.sampled_from(
    [0.0, 0.5, 1.0, 2.5, 4.0, 4.0000000005, 6.0, 8.000000001, 9.0, 13.0]
)
_touch = st.one_of(
    st.none(),
    st.tuples(st.just("zero"), st.just(0)),
    st.tuples(st.just("fault"), st.sampled_from([0.5, 4.0, 7.0, 30.0])),
    st.tuples(st.just("kill_self"), st.sampled_from([0.0, 5.0])),
    st.tuples(st.sampled_from(["kill_other", "freeze"]), st.integers(0, 8)),
    st.tuples(st.sampled_from(["restructure", "clear"]), _cpu),
)
_done = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["submit_self", "submit_other", "push_front"]),
              st.integers(0, 8)),
    st.tuples(st.sampled_from(["kill", "spawn"]), st.integers(0, 8)),
)
_task = st.fixed_dictionaries({
    "bg": st.booleans(),
    "uid": st.one_of(st.none(), st.integers(0, 3)),
    "nice": st.sampled_from([-4, 0, 0, 5]),
    "custom_body": st.sampled_from([0, 0, 0, 0, 3, 20]),
    "items": st.lists(st.tuples(_cpu, _touch, _done), max_size=6),
})
_external = st.tuples(
    st.sampled_from(["freeze", "thaw", "thaw", "boost", "submit"]),
    st.integers(0, 8),
    st.sampled_from([0.35, 1.0, 4.0, 2.0, 8.0]),
)
_spec = st.fixed_dictionaries({
    "cores": st.sampled_from([1, 2, 4, 8]),
    "ucsg": st.booleans(),
    "bg_slot_limit": st.sampled_from([None, 1, 2]),
    "traced": st.booleans(),
    "tasks": st.lists(_task, min_size=1, max_size=7),
    # (quantum index, action) pairs applied before that quantum.
    "externals": st.lists(st.tuples(st.integers(0, 60), _external), max_size=25),
    "quanta": st.integers(1, 60),
})


@settings(max_examples=150, deadline=None)
@given(spec=_spec)
def test_fused_tick_matches_unfused_reference(spec):
    fused = World(spec, reference=False)
    ref = World(spec, reference=True)
    assert fused.snapshot() == ref.snapshot()
    externals = sorted(spec["externals"], key=lambda pair: pair[0])
    # Ticks 20 ms apart: short faults wake at the next tick, 30 ms ones
    # a tick later, and runs past 50 ticks cross a CpuStats bucket.
    for q in range(spec["quanta"]):
        for at, action in externals:
            if at == q:
                fused.external(action)
                ref.external(action)
        now = q * 20.0
        busy = fused.sched.tick(now)
        assert busy == ref.sched.tick(now), f"quantum {q}"
        assert fused.log == ref.log, f"quantum {q}"
        assert fused.snapshot() == ref.snapshot(), f"quantum {q}"


def test_reference_and_fused_agree_on_a_fixed_mix():
    """A hand-built mix that exercises every branch at least once, so a
    regression shows up even when Hypothesis draws small examples."""
    spec = {
        "cores": 2, "ucsg": True, "bg_slot_limit": 1, "traced": True,
        "tasks": [
            {"bg": False, "uid": 1, "nice": -4, "custom_body": 0,
             "items": [(6.0, ("fault", 7.0), ("submit_self", 3)),
                       (2.5, ("restructure", 1.0), ("spawn", 3)),
                       (1.0, None, ("push_front", 2))]},
            {"bg": True, "uid": 2, "nice": 0, "custom_body": 0,
             "items": [(4.0, ("zero", 0), ("submit_other", 0)),
                       (1.0, ("clear", 2.5), None),
                       (9.0, ("kill_self", 5.0), None)]},
            {"bg": True, "uid": 3, "nice": 5, "custom_body": 0,
             "items": [(13.0, None, ("kill", 1)), (1.0, ("freeze", 0), None)]},
            {"bg": False, "uid": None, "nice": 0, "custom_body": 3, "items": []},
        ],
        "externals": [(2, ("freeze", 0, 1.0)), (5, ("thaw", 0, 1.0)),
                      (6, ("boost", 2, 4.0)), (7, ("submit", 3, 6.0))],
        "quanta": 40,
    }
    fused = World(spec, reference=False)
    ref = World(spec, reference=True)
    for q in range(spec["quanta"]):
        for at, action in spec["externals"]:
            if at == q:
                fused.external(action)
                ref.external(action)
        now = q * 20.0
        assert fused.sched.tick(now) == ref.sched.tick(now)
        assert fused.log == ref.log
        assert fused.snapshot() == ref.snapshot()
    kinds = {entry[0] for entry in fused.log}
    assert {"touch", "done", "body", "psi", "span"} <= kinds
    assert any(t.state is TaskState.DEAD for t in fused.tasks)
