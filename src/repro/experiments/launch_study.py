"""Figure 11 / §6.3: impact of Ice on application launching.

Methodology (§6.3): launch the 20 pre-installed applications round-
robin for ten rounds; each app runs in the FG for a fixed period before
the next is launched.  Memory fills quickly, reclaim churns, and the
LMK kills cached apps — so later rounds mix hot and cold launches.
Measured: launch latency (split cold/hot), the number of hot launches
in rounds 2-10 (Figure 11(b) — Ice's reduced pressure keeps more apps
cached), and the worst-case hot launch (§6.3.1: thaw a fully-reclaimed
frozen app; ~2x a normal hot launch but far below a cold one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.apps.catalog import catalog_apps
from repro.devices.specs import DeviceSpec, huawei_p20
from repro.policies.registry import make_policy
from repro.system import MobileSystem


@dataclass
class LaunchSample:
    round_index: int
    package: str
    style: str
    latency_ms: float
    thaw_ms: float


@dataclass
class LaunchStudyResult:
    policy: str
    samples: List[LaunchSample] = field(default_factory=list)
    lmk_kills: int = 0

    def _lat(self, style: Optional[str] = None) -> List[float]:
        return [
            s.latency_ms
            for s in self.samples
            if style is None or s.style == style
        ]

    @property
    def average_ms(self) -> float:
        lats = self._lat()
        return sum(lats) / len(lats) if lats else 0.0

    @property
    def cold_ms(self) -> float:
        lats = self._lat("cold")
        return sum(lats) / len(lats) if lats else 0.0

    @property
    def hot_ms(self) -> float:
        lats = self._lat("hot")
        return sum(lats) / len(lats) if lats else 0.0

    def hot_launch_count(self, from_round: int = 1) -> int:
        """Hot launches in rounds >= from_round (Figure 11(b): rounds 2-10)."""
        return sum(
            1
            for s in self.samples
            if s.style == "hot" and s.round_index >= from_round
        )

    @property
    def hot_launches(self) -> int:
        """Figure 11(b)'s count: hot launches from the second round on."""
        return self.hot_launch_count(1)


def launch_study(
    policy: str,
    spec: Optional[DeviceSpec] = None,
    rounds: int = 10,
    use_seconds: float = 12.0,
    seed: int = 42,
    app_limit: Optional[int] = None,
) -> LaunchStudyResult:
    """Round-robin launch study (Figure 11).

    ``use_seconds`` is the FG dwell per launch (the paper uses 30 s;
    shorter dwells preserve the dynamics at lower cost).
    """
    system = MobileSystem(spec=spec or huawei_p20(),
                          policy=make_policy(policy), seed=seed)
    profiles = catalog_apps()
    if app_limit is not None:
        profiles = profiles[:app_limit]
    system.install_apps(profiles)
    result = LaunchStudyResult(policy=policy)

    for round_index in range(rounds):
        for profile in profiles:
            record = system.launch(profile.package, drive_frames=True)
            completed = system.run_until_complete(record, timeout_s=300.0)
            if completed:
                result.samples.append(
                    LaunchSample(
                        round_index=round_index,
                        package=profile.package,
                        style=record.style,
                        latency_ms=record.latency_ms,
                        thaw_ms=record.thaw_ms,
                    )
                )
            system.run(seconds=use_seconds)
    result.lmk_kills = system.lmk.kill_count
    return result


@dataclass
class WorstCaseResult:
    """§6.3.1's worst case: hot launch of a fully-reclaimed frozen app."""

    normal_hot_ms: float
    worst_hot_ms: float

    @property
    def slowdown(self) -> float:
        return self.worst_hot_ms / self.normal_hot_ms if self.normal_hot_ms else 0.0


def worst_case_hot_launch(
    spec: Optional[DeviceSpec] = None,
    package: str = "WhatsApp",
    other: str = "Chrome",
    seed: int = 42,
) -> WorstCaseResult:
    """Measure the §6.3.1 worst case under Ice.

    Launch an app, cache it, measure a normal hot launch; then reclaim
    *all* of its pages, freeze it, and measure the hot launch that must
    thaw it and fault everything back.
    """
    system = MobileSystem(spec=spec or huawei_p20(),
                          policy=make_policy("Ice"), seed=seed)
    system.install_apps(catalog_apps())

    record = system.launch(package, drive_frames=False)
    system.run_until_complete(record, timeout_s=240.0)
    system.run(seconds=3.0)
    record = system.launch(other, drive_frames=False)
    system.run_until_complete(record, timeout_s=240.0)
    system.run(seconds=2.0)

    # Normal hot launch.
    record = system.launch(package, drive_frames=False)
    system.run_until_complete(record, timeout_s=240.0)
    normal_hot = record.latency_ms
    system.run(seconds=2.0)
    record = system.launch(other, drive_frames=False)
    system.run_until_complete(record, timeout_s=240.0)
    system.run(seconds=2.0)

    # Worst case: reclaim everything, freeze, then hot launch.
    app = system.get_app(package)
    for process in app.processes:
        system.proc_reclaim.reclaim_process(process.page_table)
        system.freezer.freeze(process.pid)
    system.run(seconds=1.0)
    record = system.launch(package, drive_frames=False)
    system.run_until_complete(record, timeout_s=240.0)
    return WorstCaseResult(normal_hot_ms=normal_hot, worst_hot_ms=record.latency_ms)


def format_launch_study(results: Dict[str, LaunchStudyResult]) -> str:
    lines = [
        "Figure 11: application launching",
        f"{'policy':>10} | {'avg ms':>8} | {'cold ms':>8} | {'hot ms':>8} | "
        f"{'hot launches (r2+)':>18} | {'LMK kills':>9}",
        "-" * 74,
    ]
    for policy, result in results.items():
        lines.append(
            f"{policy:>10} | {result.average_ms:>8.0f} | {result.cold_ms:>8.0f} | "
            f"{result.hot_ms:>8.0f} | {result.hot_launches:>18} | "
            f"{result.lmk_kills:>9}"
        )
    return "\n".join(lines)
