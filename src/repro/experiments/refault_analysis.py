"""Figure 2(b): frame rate against BG refaults.

Scenario runs are cut into slices; slices are sorted by their
BG-refault count and bucketed into deciles; the mean FPS and reclaim
count per decile shows frame rate collapsing as BG refaults rise.
(Figure 2(a)'s reclaim/refault totals are three of Figure 1's scenario
runs, reduced in :mod:`repro.experiments.figures`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.apps.catalog import APP_CATALOG, catalog_apps
from repro.devices.specs import DeviceSpec, huawei_p20
from repro.experiments.scenarios import BgCase, SCENARIOS, stage_background
from repro.policies.registry import make_policy
from repro.system import MobileSystem


@dataclass
class SliceSample:
    """One 30-second slice of a scenario run."""

    scenario: str
    bg_refaults: int
    reclaims: int
    fps: float


def collect_slices(
    spec: Optional[DeviceSpec] = None,
    scenarios: Sequence[str] = tuple(SCENARIOS),
    bg_counts: Sequence[int] = (4, 6, 7, 8),
    slices_per_scenario: int = 4,
    slice_seconds: float = 30.0,
    settle_s: float = 12.0,
    seed: int = 42,
) -> List[SliceSample]:
    """Cut scenario runs into 30 s slices across BG populations.

    Real usage mixes quiet and stormy periods; sweeping the BG
    population reproduces that spread of per-slice BG-refault counts.
    A settle period after each launch keeps launch transients (massive
    first-eviction reclaim with few refaults) out of the slices.  FPS
    is normalised per scenario (to its content cap, rescaled to 60) so
    scenarios with different source frame rates are comparable.
    """
    spec = spec or huawei_p20()
    samples: List[SliceSample] = []
    for scenario in scenarios:
        fg_package = SCENARIOS.get(scenario, scenario)
        cap = min(60.0, APP_CATALOG[fg_package].content_fps)
        for bg_count in bg_counts:
            system = MobileSystem(
                spec=spec, policy=make_policy("LRU+CFS"), seed=seed + bg_count
            )
            system.install_apps(catalog_apps())
            rng = system.rng.stream("scenario-bg-selection")
            stage_background(system, fg_package, BgCase.APPS, bg_count, rng)
            record = system.launch(fg_package)
            system.run_until_complete(record, timeout_s=240.0)
            system.run(seconds=settle_s)

            stats = system.frame_engine.stats
            for _ in range(slices_per_scenario):
                system.reset_measurements()
                fps_mark = len(stats.fps_timeline)
                system.run(seconds=slice_seconds)
                timeline = stats.fps_timeline[fps_mark:]
                fps = sum(timeline) / len(timeline) if timeline else 0.0
                samples.append(
                    SliceSample(
                        scenario=scenario,
                        bg_refaults=system.vmstat.refault_bg,
                        reclaims=system.vmstat.pgsteal,
                        fps=fps * 60.0 / cap,
                    )
                )
    return samples


def figure2b(samples: List[SliceSample]) -> List[dict]:
    """Sort slices by BG-refault count and bucket into deciles: one row
    per decile, with its mean FPS, reclaims and BG refaults."""
    ordered = sorted(samples, key=lambda s: s.bg_refaults)
    n = len(ordered)
    if n == 0:
        return []
    rows: List[dict] = []
    buckets = min(10, n)
    for index in range(buckets):
        lo = index * n // buckets
        hi = (index + 1) * n // buckets
        bucket = ordered[lo:hi] or [ordered[-1]]
        rows.append({
            "decile": f"[{index * 10}th,{(index + 1) * 10}th]",
            "fps": sum(s.fps for s in bucket) / len(bucket),
            "reclaims": sum(s.reclaims for s in bucket) / len(bucket),
            "bg_refaults": sum(s.bg_refaults for s in bucket) / len(bucket),
        })
    return rows

