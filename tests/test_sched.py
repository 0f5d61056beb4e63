"""Tests for tasks, priorities, and the CFS scheduler."""

import pytest

from repro.sched.cfs import CfsScheduler
from repro.sim.engine import Simulator
from repro.sched.priorities import nice_to_weight
from repro.sched.task import Task, TaskState, WorkItem


# ----------------------------------------------------------------------
# Priorities
# ----------------------------------------------------------------------
def test_nice_zero_weight():
    assert nice_to_weight(0) == 1024


def test_weight_monotonic_in_nice():
    weights = [nice_to_weight(nice) for nice in range(-20, 20)]
    assert weights == sorted(weights, reverse=True)


def test_out_of_range_nice_rejected():
    with pytest.raises(ValueError):
        nice_to_weight(20)
    with pytest.raises(ValueError):
        nice_to_weight(-21)


# ----------------------------------------------------------------------
# Task state machine
# ----------------------------------------------------------------------
def test_new_task_sleeps():
    assert Task("t").state is TaskState.SLEEPING


def test_submit_wakes_sleeping_task():
    task = Task("t")
    task.submit(WorkItem(cpu_ms=1.0))
    assert task.state is TaskState.RUNNABLE


def test_submit_to_dead_task_ignored():
    task = Task("t")
    task.kill()
    task.submit(WorkItem(cpu_ms=1.0))
    assert task.state is TaskState.DEAD
    assert not task.queue


def test_block_and_unblock():
    task = Task("t")
    task.submit(WorkItem(cpu_ms=1.0))
    task.block_until(50.0)
    assert task.state is TaskState.BLOCKED
    task.unblock()
    assert task.state is TaskState.RUNNABLE


def test_unblock_without_work_sleeps():
    task = Task("t")
    task.submit(WorkItem(cpu_ms=1.0))
    task.queue.clear()
    task.block_until(50.0)
    task.unblock()
    assert task.state is TaskState.SLEEPING


def test_freeze_and_thaw_roundtrip():
    task = Task("t")
    task.submit(WorkItem(cpu_ms=1.0))
    task.freeze()
    assert task.state is TaskState.FROZEN
    task.thaw()
    assert task.state is TaskState.RUNNABLE


def test_thaw_without_work_sleeps():
    task = Task("t")
    task.freeze()
    task.thaw()
    assert task.state is TaskState.SLEEPING


def test_kernel_tasks_not_freezable():
    task = Task("kswapd0", is_kernel=True)
    assert not task.freezable


def tick(sched, now):
    """Run the quantum that starts at ``now``."""
    sched.sim.now = now
    return sched.tick()


# The scheduler drains a default task's work-item queue itself; a
# one-core scheduler runs the single task every quantum.
def test_queue_body_runs_work_and_completes():
    sched = CfsScheduler(cores=1, sim=Simulator())
    task = sched.add_task(Task("t"))
    done = []
    task.submit(WorkItem(cpu_ms=6.0, on_complete=lambda: done.append(1)))
    assert tick(sched, 0.0) == 4.0
    assert not done
    assert tick(sched, 4.0) == 2.0
    assert done == [1]
    assert task.state is TaskState.SLEEPING


def test_queue_body_touch_blocks_task():
    sched = CfsScheduler(cores=1, sim=Simulator())
    task = sched.add_task(Task("t"))
    touches = []
    task.submit(WorkItem(cpu_ms=2.0, touch=lambda: touches.append(1) or 10.0))
    assert tick(sched, 0.0) == 0.0
    assert task.state is TaskState.BLOCKED
    assert task.blocked_until == 10.0
    # The wakeup at 10 ms runs the CPU part without re-touching.
    assert tick(sched, 10.0) == 2.0
    assert touches == [1]


@pytest.mark.xfail(strict=True, reason=(
    "block_until overwrites FROZEN with BLOCKED, so a task whose own "
    "touch freezes it escapes the freezer (CHANGES.md, FOUND)"))
def test_task_frozen_by_its_own_touch_stays_frozen():
    # Ice's refault freezer can freeze the faulting process from inside
    # the touch (handle_id -> RPF -> freeze_pid); the fault time the
    # touch returns must not unfreeze the task.
    sched = CfsScheduler(cores=1, sim=Simulator())
    task = sched.add_task(Task("t"))
    task.submit(WorkItem(cpu_ms=2.0, touch=lambda: task.freeze() or 5.0))
    tick(sched, 0.0)
    assert task.state is TaskState.FROZEN


def test_tick_reads_the_simulator_clock():
    # The system runs tick as its periodic event, with no argument.
    sim = Simulator()
    sched = CfsScheduler(cores=1, sim=sim)
    task = sched.add_task(Task("t"))
    task.submit(WorkItem(cpu_ms=2.0, touch=lambda: 6.0))
    sim.every(sched.quantum_ms, sched.tick)
    sim.run_until(12.0)  # blocks at 4 ms until 10, runs at 12
    assert task.cpu_ms_total == 2.0
    assert task.state is TaskState.SLEEPING


def test_queue_body_zero_fault_touch_continues():
    sched = CfsScheduler(cores=1, sim=Simulator())
    task = sched.add_task(Task("t"))
    task.submit(WorkItem(cpu_ms=1.0, touch=lambda: 0.0))
    assert tick(sched, 0.0) == 1.0
    assert task.state is TaskState.SLEEPING  # queue drained


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
def make_sched(cores=2):
    return CfsScheduler(cores=cores, sim=Simulator())


def test_tick_runs_min_vruntime_first():
    sched = make_sched(cores=1)
    early = Task("early")
    late = Task("late")
    sched.add_task(early)
    sched.add_task(late)
    early.vruntime = 0.0
    late.vruntime = 100.0
    early.submit(WorkItem(cpu_ms=4.0))
    late.submit(WorkItem(cpu_ms=4.0))
    tick(sched, 0.0)
    assert early.cpu_ms_total == 4.0
    assert late.cpu_ms_total == 0.0


def test_vruntime_advances_by_weighted_usage():
    sched = make_sched(cores=1)
    task = Task("t", nice=0)
    sched.add_task(task)
    task.submit(WorkItem(cpu_ms=4.0))
    tick(sched, 0.0)
    assert task.vruntime == pytest.approx(4.0)


def test_boost_slows_vruntime_accrual():
    sched = make_sched(cores=2)
    boosted = Task("boosted")
    boosted.boost = 4.0
    normal = Task("normal")
    sched.add_task(boosted)
    sched.add_task(normal)
    boosted.submit(WorkItem(cpu_ms=4.0))
    normal.submit(WorkItem(cpu_ms=4.0))
    tick(sched, 0.0)
    assert boosted.vruntime < normal.vruntime


def test_frozen_tasks_never_picked():
    sched = make_sched(cores=1)
    task = Task("t")
    sched.add_task(task)
    task.submit(WorkItem(cpu_ms=4.0))
    task.freeze()
    tick(sched, 0.0)
    assert task.cpu_ms_total == 0.0


def test_blocked_tasks_wake_when_due():
    sched = make_sched(cores=1)
    task = Task("t")
    sched.add_task(task)
    task.submit(WorkItem(cpu_ms=4.0))
    task.block_until(10.0)
    tick(sched, 4.0)
    assert task.state is TaskState.BLOCKED
    tick(sched, 12.0)
    assert task.cpu_ms_total == 4.0


def test_background_tasks_confined_to_little_cores():
    sched = make_sched(cores=4)  # 2 big + 2 little
    tasks = [Task(f"bg{i}") for i in range(4)]
    for task in tasks:
        task.background = True
        sched.add_task(task)
        task.submit(WorkItem(cpu_ms=4.0))
    tick(sched, 0.0)
    ran = sum(1 for task in tasks if task.cpu_ms_total > 0)
    assert ran == 2  # only the little cluster


def test_foreground_tasks_use_all_cores():
    sched = make_sched(cores=4)
    tasks = [Task(f"fg{i}") for i in range(4)]
    for task in tasks:
        sched.add_task(task)
        task.submit(WorkItem(cpu_ms=4.0))
    tick(sched, 0.0)
    assert all(task.cpu_ms_total > 0 for task in tasks)


def test_bg_slot_limit_packs_background():
    sched = make_sched(cores=4)
    sched.bg_slot_limit = 1
    tasks = [Task(f"bg{i}") for i in range(3)]
    for task in tasks:
        task.background = True
        sched.add_task(task)
        task.submit(WorkItem(cpu_ms=4.0))
    tick(sched, 0.0)
    assert sum(1 for task in tasks if task.cpu_ms_total > 0) == 1


def test_freeze_thaw_by_pid():
    class Proc:
        pid = 1234
        uid = 1

    sched = make_sched()
    task = Task("t", process=Proc())
    sched.add_task(task)
    task.submit(WorkItem(cpu_ms=4.0))
    sched.freeze_pid(1234)
    assert task.state is TaskState.FROZEN
    sched.thaw_pid(1234)
    assert task.state is TaskState.RUNNABLE


def test_cpu_stats_buckets_per_second():
    sched = make_sched(cores=1)
    task = Task("t")
    sched.add_task(task)
    now = 0.0
    while now <= 2000.0:
        task.submit(WorkItem(cpu_ms=4.0))
        tick(sched, now)
        now += 4.0
    assert len(sched.stats.samples) == 2
    assert sched.stats.samples[0] == pytest.approx(1.0, abs=0.01)


def test_remove_task_kills_it():
    sched = make_sched()
    task = Task("t")
    sched.add_task(task)
    sched.remove_task(task)
    assert task.state is TaskState.DEAD
    assert task.tid not in sched.tasks


def test_duplicate_add_rejected():
    sched = make_sched()
    task = Task("t")
    sched.add_task(task)
    with pytest.raises(ValueError):
        sched.add_task(task)
