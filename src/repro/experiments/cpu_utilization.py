"""Table 1: CPU utilization with N applications cached in the BG.

Methodology (§2.2.3(1)): cache N randomly-selected applications with no
foreground application, let them sit for a window, and measure average
and peak CPU utilization.  Repeated for several rounds with
re-randomised BG sets; the paper reports the average over ten rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.android.app import AppState
from repro.apps.catalog import catalog_apps
from repro.devices.specs import DeviceSpec, huawei_p20
from repro.experiments.scenarios import background_packages
from repro.policies.registry import make_policy
from repro.system import MobileSystem


@dataclass
class CpuUtilizationRow:
    """One row of Table 1."""

    bg_apps: int
    average: float
    peak: float


def measure_cpu_utilization(
    bg_apps: int,
    spec: Optional[DeviceSpec] = None,
    seconds: float = 30.0,
    seed: int = 42,
    policy: str = "LRU+CFS",
) -> CpuUtilizationRow:
    """One round: utilization with ``bg_apps`` cached apps and no FG app.

    Each round reboots the device and re-selects the BG apps from its
    seed; Table 1 averages rounds at seeds 42, 1042, ...
    """
    system = MobileSystem(spec=spec or huawei_p20(),
                          policy=make_policy(policy), seed=seed)
    system.install_apps(catalog_apps())
    rng = system.rng.stream("table1-bg-selection")
    packages = background_packages("", bg_apps, rng)
    for package in packages:
        record = system.launch(package, drive_frames=False)
        system.run_until_complete(record, timeout_s=240.0)
    if packages:
        # Demote the last-launched app out of the foreground so the
        # population is purely background, as in the paper's setup.
        last = system.get_app(packages[-1])
        system.frame_engine.stop()
        system.set_app_state(last, AppState.CACHED)
        system.activity_manager.foreground = None
        system.mm.foreground_uid = None
    system.run(seconds=3.0)
    system.reset_measurements()
    system.run(seconds=seconds)
    return CpuUtilizationRow(
        bg_apps=bg_apps,
        average=system.sched.stats.average_utilization,
        peak=system.sched.stats.peak_utilization,
    )


def format_table1(rows: Sequence[CpuUtilizationRow]) -> str:
    lines = [
        "Table 1: CPU utilization with N apps in the BG (no FG app)",
        f"{'BG apps':>8} | {'Average':>8} | {'Peak':>8}",
        "-" * 32,
    ]
    for row in rows:
        lines.append(
            f"{row.bg_apps:>8} | {row.average:>7.0%} | {row.peak:>7.0%}"
        )
    return "\n".join(lines)
