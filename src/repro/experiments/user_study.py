"""Figure 3: the month-long user study, reproduced as usage traces.

The paper instruments eight volunteers' phones (Table 2: P20, P40,
Pixel3, Pixel4 — two users each) and records page evictions/refaults
over a month.  Here each user is a generative usage trace: sessions of
launching/using/switching apps drawn from a per-user popularity
distribution, separated by idle gaps, replayed on that user's device
model.  Days are time-compressed (a configurable number of simulated
minutes represents one day) — the statistics of interest (refault
ratio, BG share of refaults) are rates, not absolute totals, so
compression preserves them; absolute per-day counts are reported in
simulated pages per compressed day.

Expected shapes (§3.1): ~39% of evicted pages are refaulted on average,
and more than 60% of refaults are caused by BG processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.apps.catalog import catalog_apps
from repro.devices.specs import get_device
from repro.policies.registry import make_policy
from repro.system import MobileSystem


@dataclass(frozen=True)
class UserProfile:
    """One study volunteer (Table 2)."""

    user_id: str
    device: str
    seed: int
    # Mean seconds of FG usage per session and idle gap between sessions
    # (simulated, compressed).
    use_s: float = 20.0
    idle_s: float = 8.0
    # Zipf skew of app choice (higher = fewer favourite apps).
    app_skew: float = 0.9


# The paper's Table 2 population: two users per device.
STUDY_USERS: Tuple[UserProfile, ...] = (
    UserProfile("User-1", "P20", seed=101, use_s=22.0, idle_s=7.0, app_skew=0.8),
    UserProfile("User-2", "P20", seed=102, use_s=16.0, idle_s=10.0, app_skew=1.2),
    UserProfile("User-3", "P40", seed=103, use_s=25.0, idle_s=8.0, app_skew=0.7),
    UserProfile("User-4", "P40", seed=104, use_s=18.0, idle_s=12.0, app_skew=1.0),
    UserProfile("User-5", "Pixel3", seed=105, use_s=20.0, idle_s=9.0, app_skew=0.9),
    UserProfile("User-6", "Pixel3", seed=106, use_s=14.0, idle_s=11.0, app_skew=1.1),
    UserProfile("User-7", "Pixel4", seed=107, use_s=24.0, idle_s=7.0, app_skew=0.8),
    UserProfile("User-8", "Pixel4", seed=108, use_s=17.0, idle_s=10.0, app_skew=1.0),
)


@dataclass
class DayStats:
    """Per-(compressed-)day counters for one user."""

    day: int
    evicted: int
    refaulted: int
    refault_bg: int
    refault_fg: int

    @property
    def refault_ratio(self) -> float:
        return self.refaulted / self.evicted if self.evicted else 0.0

    @property
    def bg_share(self) -> float:
        return self.refault_bg / self.refaulted if self.refaulted else 0.0


@dataclass
class TimelinePoint:
    """Cumulative counters over time (Figure 3(b))."""

    time_s: float
    evicted: int
    refaulted: int
    refault_bg: int


@dataclass
class UserStudyResult:
    user: UserProfile
    days: List[DayStats] = field(default_factory=list)
    timeline: List[TimelinePoint] = field(default_factory=list)

    @property
    def total_evicted(self) -> int:
        return sum(day.evicted for day in self.days)

    @property
    def total_refaulted(self) -> int:
        return sum(day.refaulted for day in self.days)

    @property
    def refault_ratio(self) -> float:
        return self.total_refaulted / self.total_evicted if self.total_evicted else 0.0

    @property
    def bg_share(self) -> float:
        total = self.total_refaulted
        bg = sum(day.refault_bg for day in self.days)
        return bg / total if total else 0.0


class UsageTrace:
    """Drives one user's sessions on a live system."""

    def __init__(self, system: MobileSystem, user: UserProfile):
        self.system = system
        self.user = user
        self.rng = system.rng.stream(f"usage:{user.user_id}")
        # Per-user fixed app popularity order.
        self.app_order = [profile.package for profile in catalog_apps()]
        self.rng.shuffle(self.app_order)

    def pick_app(self) -> str:
        index = self.rng.zipf_index(len(self.app_order), skew=self.user.app_skew)
        return self.app_order[index]

    def one_session(self) -> None:
        """Launch an app, use it, go idle."""
        system = self.system
        package = self.pick_app()
        record = system.launch(package, drive_frames=True)
        system.run_until_complete(record, timeout_s=240.0)
        use = max(3.0, self.rng.expovariate(1.0 / self.user.use_s))
        system.run(seconds=min(use, 90.0))
        idle = max(1.0, self.rng.expovariate(1.0 / self.user.idle_s))
        system.run(seconds=min(idle, 45.0))


def simulate_user(
    user: UserProfile,
    days: int = 5,
    day_minutes: float = 2.0,
    timeline_interval_s: float = 30.0,
    policy: str = "LRU+CFS",
) -> UserStudyResult:
    """Run one user's compressed multi-day trace."""
    system = MobileSystem(
        spec=get_device(user.device), policy=make_policy(policy), seed=user.seed
    )
    system.install_apps(catalog_apps())
    trace = UsageTrace(system, user)
    result = UserStudyResult(user=user)

    def snapshot_timeline() -> None:
        vm = system.vmstat
        result.timeline.append(
            TimelinePoint(
                time_s=system.sim.now / 1000.0,
                evicted=vm.pgsteal,
                refaulted=vm.refault_total,
                refault_bg=vm.refault_bg,
            )
        )

    system.sim.every(timeline_interval_s * 1000.0, snapshot_timeline)

    day_ms = day_minutes * 60_000.0
    for day in range(days):
        day_end = system.sim.now + day_ms
        before = system.vmstat.copy()
        while system.sim.now < day_end:
            trace.one_session()
        delta = system.vmstat.delta(before)
        result.days.append(
            DayStats(
                day=day + 1,
                evicted=delta.pgsteal,
                refaulted=delta.refault_total,
                refault_bg=delta.refault_bg,
                refault_fg=delta.refault_fg,
            )
        )
    return result
