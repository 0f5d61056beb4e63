"""Figures 1, 8 and 9: frame-rate experiments.

* **Figure 1** — FPS timelines of the four scenarios under BG-null,
  BG-apps, BG-cputester and BG-memtester (baseline kernel).
* **Figure 8** — FPS and RIA for the four schemes (LRU+CFS, UCSG,
  Acclaim, Ice) on the four scenarios, on both devices, with the
  memory-exhausting BG population (8 apps on P20, 6 on Pixel3).
* **Figure 9** — FPS and RIA averaged over the four scenarios as the
  number of cached BG applications sweeps F, 2B+F, ... 8B+F, baseline
  vs Ice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.devices.specs import DeviceSpec, huawei_p20
from repro.experiments.scenarios import BgCase, ScenarioResult, run_scenario


# ----------------------------------------------------------------------
# Figure 1
# ----------------------------------------------------------------------
def figure1(
    scenario: str,
    spec: Optional[DeviceSpec] = None,
    seconds: float = 90.0,
    seed: int = 42,
    cases: Sequence[str] = BgCase.ALL,
) -> Dict[str, ScenarioResult]:
    """FPS timelines for one scenario under each BG case.

    Measurement starts at FG-launch completion (settle 0) so the
    BG-memtester transient — low early, recovering once reclaim settles
    — is visible, as in the paper's samples.
    """
    return {
        case: run_scenario(
            scenario,
            policy="LRU+CFS",
            spec=spec or huawei_p20(),
            bg_case=case,
            seconds=seconds,
            settle_s=0.0,
            seed=seed,
        )
        for case in cases
    }


def format_figure1(results: Dict[str, ScenarioResult]) -> str:
    lines = ["Figure 1: FPS per second under each BG case"]
    for case, result in results.items():
        series = " ".join(f"{v:2d}" for v in result.fps_timeline[:60])
        lines.append(f"{case:14s} avg={result.fps:5.1f}  [{series}]")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 8
# ----------------------------------------------------------------------
SCHEMES = ("LRU+CFS", "UCSG", "Acclaim", "Ice")


@dataclass
class Figure8Cell:
    scenario: str
    device: str
    policy: str
    fps: float
    ria: float
    rounds: int


def format_figure8(cells: Sequence[Figure8Cell]) -> str:
    lines = [
        "Figure 8: frame rate comparison (FPS / RIA)",
        f"{'device':>8} {'scenario':>9} | "
        + " | ".join(f"{scheme:>14}" for scheme in SCHEMES),
    ]
    by_key: Dict[tuple, Dict[str, Figure8Cell]] = {}
    for cell in cells:
        by_key.setdefault((cell.device, cell.scenario), {})[cell.policy] = cell
    for (device, scenario), row in by_key.items():
        entries = []
        for scheme in SCHEMES:
            cell = row.get(scheme)
            entry = f"{cell.fps:5.1f} / {cell.ria:4.0%}" if cell else ""
            entries.append(entry.rjust(14))
        lines.append(f"{device:>8} {scenario:>9} | " + " | ".join(entries))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 9
# ----------------------------------------------------------------------
@dataclass
class Figure9Point:
    config: str  # "F", "2B+F", ...
    bg_count: int
    policy: str
    fps: float
    ria: float


def format_figure9(points: Sequence[Figure9Point]) -> str:
    lines = [
        "Figure 9: frame rate vs number of BG applications",
        f"{'config':>7} | " + " | ".join(f"{p:>13}" for p in ("LRU+CFS", "Ice")),
    ]
    configs: Dict[str, Dict[str, Figure9Point]] = {}
    order: List[str] = []
    for point in points:
        if point.config not in configs:
            order.append(point.config)
        configs.setdefault(point.config, {})[point.policy] = point
    for config in order:
        row = configs[config]
        entries = []
        for scheme in ("LRU+CFS", "Ice"):
            point = row.get(scheme)
            entry = f"{point.fps:5.1f}/{point.ria:4.0%}" if point else ""
            entries.append(entry.rjust(13))
        lines.append(f"{config:>7} | " + " | ".join(entries))
    return "\n".join(lines)
