"""Figure 4 / §3.2: categorization of refaulted pages per application.

Methodology (§3.2): launch and exercise an application, switch it to
the background, reclaim *all* of its pages with the per-process-reclaim
feature, then trace which pages are refaulted back within a window and
what kind they are (file-backed vs anonymous; within anonymous, java
heap vs native heap).

Paper's aggregate findings: >30% of reclaimed pages are refaulted;
refaulted pages split ≈48.6% file / 51.4% anon; anon refaults split
≈56.6% native / 43.4% java; and substantial refaults remain even with
the idle runtime GC disabled (≈77%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.apps.catalog import extended_catalog
from repro.devices.specs import DeviceSpec, huawei_p20
from repro.kernel.slab import HEAP_JAVA, KIND_FILE
from repro.policies.registry import make_policy
from repro.system import MobileSystem


@dataclass
class AppRefaultBreakdown:
    """Per-app result of the reclaim-then-trace experiment."""

    package: str
    reclaimed: int
    refaulted_file: int = 0
    refaulted_java: int = 0
    refaulted_native: int = 0

    @property
    def refaulted(self) -> int:
        return self.refaulted_file + self.refaulted_java + self.refaulted_native

    @property
    def refault_fraction(self) -> float:
        return self.refaulted / self.reclaimed if self.reclaimed else 0.0

    @property
    def refaulted_anon(self) -> int:
        return self.refaulted_java + self.refaulted_native


@dataclass
class CategorizationSummary:
    apps: List[AppRefaultBreakdown] = field(default_factory=list)

    @property
    def total_reclaimed(self) -> int:
        return sum(app.reclaimed for app in self.apps)

    @property
    def total_refaulted(self) -> int:
        return sum(app.refaulted for app in self.apps)

    @property
    def refault_fraction(self) -> float:
        return (
            self.total_refaulted / self.total_reclaimed
            if self.total_reclaimed
            else 0.0
        )

    @property
    def file_share(self) -> float:
        total = self.total_refaulted
        return sum(a.refaulted_file for a in self.apps) / total if total else 0.0

    @property
    def anon_share(self) -> float:
        total = self.total_refaulted
        return sum(a.refaulted_anon for a in self.apps) / total if total else 0.0

    @property
    def native_share_of_anon(self) -> float:
        anon = sum(a.refaulted_anon for a in self.apps)
        native = sum(a.refaulted_native for a in self.apps)
        return native / anon if anon else 0.0

    @property
    def java_share_of_anon(self) -> float:
        return 1.0 - self.native_share_of_anon if self.apps else 0.0


def trace_app_refaults(
    system: MobileSystem,
    package: str,
    window_s: float = 30.0,
) -> AppRefaultBreakdown:
    """Reclaim every page of a cached app, then trace its refaults.

    The app must already be cached in the BG (as in §3.2: launch, run,
    switch to BG, then `echo all > /proc/<pid>/reclaim`).
    """
    app = system.get_app(package)
    slab = system.mm.slab
    ids = [i for process in app.processes for i in process.page_table.all_page_ids()]
    before = [slab.refaults[i] for i in ids]
    reclaimed = 0
    for process in app.processes:
        result = system.proc_reclaim.reclaim_process(process.page_table)
        reclaimed += result.reclaimed

    system.run(seconds=window_s)

    breakdown = AppRefaultBreakdown(package=package, reclaimed=reclaimed)
    for i, refaults in zip(ids, before):
        if slab.refaults[i] <= refaults:
            continue
        if slab.kind[i] == KIND_FILE:
            breakdown.refaulted_file += 1
        elif slab.heap[i] == HEAP_JAVA:
            breakdown.refaulted_java += 1
        else:
            breakdown.refaulted_native += 1
    return breakdown


def figure4(
    spec: Optional[DeviceSpec] = None,
    packages: Optional[Sequence[str]] = None,
    window_s: float = 30.0,
    disable_idle_gc: bool = False,
    seed: int = 42,
    apps_per_system: int = 4,
) -> CategorizationSummary:
    """Run the §3.2 study over the (extended, 40-app) catalog, or over
    the apps of it named ``packages``.

    Apps are studied in small batches on fresh systems so that each has
    a quiet, reproducible environment (the paper reclaims one app at a
    time on an otherwise idle phone).
    """
    spec = spec or huawei_p20()
    profiles = extended_catalog()
    if packages is not None:
        by_name = {profile.package: profile for profile in profiles}
        profiles = [by_name[name] for name in packages]
    summary = CategorizationSummary()
    for start in range(0, len(profiles), apps_per_system):
        batch = profiles[start : start + apps_per_system]
        system = MobileSystem(
            spec=spec, policy=make_policy("LRU+CFS"), seed=seed + start
        )
        system.idle_gc_disabled = disable_idle_gc
        system.install_apps(batch)
        # Launch each app, then push it to the BG by launching the next.
        for profile in batch:
            record = system.launch(profile.package, drive_frames=False)
            system.run_until_complete(record, timeout_s=240.0)
            system.run(seconds=2.0)
        # Demote the last one by re-launching the first (hot), so every
        # studied app is cached in the BG when traced.
        if len(batch) > 1:
            record = system.launch(batch[0].package, drive_frames=False)
            system.run_until_complete(record, timeout_s=240.0)
        for profile in batch[1:]:
            app = system.get_app(profile.package)
            if not app.alive or system.foreground_app is app:
                continue  # killed by the LMK during staging
            summary.apps.append(
                trace_app_refaults(system, profile.package, window_s=window_s)
            )
        # Finally demote and trace the first app too.
        first = system.get_app(batch[0].package)
        if len(batch) > 1 and first.alive:
            second = system.get_app(batch[1].package)
            if second.alive:
                record = system.launch(batch[1].package, drive_frames=False)
                system.run_until_complete(record, timeout_s=240.0)
            if first.alive and system.foreground_app is not first:
                summary.apps.append(
                    trace_app_refaults(system, batch[0].package, window_s=window_s)
                )
    return summary


def format_figure4(summary: CategorizationSummary) -> str:
    lines = [
        "Figure 4: categorization of refaulted pages (per-process reclaim study)",
        f"{'app':>18} | {'reclaimed':>9} | {'refaulted':>9} | {'frac':>5} | "
        f"{'file':>5} | {'java':>5} | {'native':>6}",
        "-" * 78,
    ]
    for app in summary.apps:
        lines.append(
            f"{app.package:>18} | {app.reclaimed:>9} | {app.refaulted:>9} | "
            f"{app.refault_fraction:>5.0%} | {app.refaulted_file:>5} | "
            f"{app.refaulted_java:>5} | {app.refaulted_native:>6}"
        )
    lines.append("-" * 78)
    lines.append(
        f"aggregate: refault fraction {summary.refault_fraction:.1%}; "
        f"file {summary.file_share:.1%} vs anon {summary.anon_share:.1%}; "
        f"anon split native {summary.native_share_of_anon:.1%} / "
        f"java {summary.java_share_of_anon:.1%}"
    )
    return "\n".join(lines)
