"""Framework service load (system_server, Binder, kworker, ...).

The paper's Table 1 baseline: with *no* applications running, CPU
utilization is ~43% (kernel + framework tasks), rising to ~55% with
eight cached applications — the framework does per-app work (binder
transactions, push delivery, job scheduling) on top of the apps' own
threads.  :class:`FrameworkLoad` models both components: a fixed base
load plus a per-cached-app increment.

Framework tasks are service processes: RPF's process sifting never
freezes them (§4.2.1).
"""

from __future__ import annotations

from typing import List

from repro.android.app import AppState
from repro.sched.task import Task, WorkItem

# Checked for every installed app on each 80 ms burst; module aliases
# skip the enum descriptor calls (see repro.sched.task).
_CACHED_STATES = (AppState.CACHED, AppState.PERCEPTIBLE)

SERVICE_NAMES = (
    "system_server",
    "surfaceflinger",
    "binder",
    "kworker/u16",
    "netd",
    "HeapTaskDaemon-sys",
)


class FrameworkLoad:
    """Baseline + per-app framework CPU consumption."""

    BURST_PERIOD_MS = 80.0

    def __init__(
        self,
        system,
        base_utilization: float = 0.42,
        per_app_utilization: float = 0.015,
    ):
        if not 0 <= base_utilization < 1:
            raise ValueError("base utilization must be in [0, 1)")
        self.system = system
        self.base_utilization = base_utilization
        self.per_app_utilization = per_app_utilization
        self.tasks: List[Task] = []
        self._rng = system.rng.stream("framework-load")
        self.started = False

    def start(self) -> None:
        if self.started:
            return
        self.started = True
        for name in SERVICE_NAMES:
            task = Task(name, process=None, nice=0, is_kernel=(name.startswith("kworker")))
            task.freezable = False
            self.system.sched.add_task(task)
            self.tasks.append(task)
        self.system.sim.every(
            self.BURST_PERIOD_MS,
            self._issue_bursts,
            first_delay=self._rng.uniform(1.0, self.BURST_PERIOD_MS),
        )

    # ------------------------------------------------------------------
    def _cached_app_count(self) -> int:
        return sum(
            1
            for app in self.system.apps.values()
            if app.alive and app.state in _CACHED_STATES
        )

    def current_target(self) -> float:
        """Instantaneous target utilization (base + per-app extra)."""
        return min(
            0.95, self.base_utilization + self.per_app_utilization * self._cached_app_count()
        )

    def _issue_bursts(self) -> None:
        """Top up each service task with its share of the target load."""
        cores = self.system.spec.cores
        total_cpu_ms = self.current_target() * cores * self.BURST_PERIOD_MS
        share = total_cpu_ms / len(self.tasks)
        for task in self.tasks:
            if task.queue:
                continue  # still draining the previous burst
            jitter = self._rng.uniform(0.75, 1.25)
            task.submit(WorkItem(cpu_ms=share * jitter, label="framework"))
