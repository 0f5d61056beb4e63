"""Figure 10 and Table 5: reclaim/refault reduction studies.

* **Figure 10** — the number of refaulted and reclaimed pages for
  LRU+CFS (L), UCSG (U), Acclaim (A) and Ice (I) across the four
  scenarios on the P20 model.  Expected shape: Ice cuts refaults by
  ~40-58% per scenario and reclaims to ~70% of the baseline; UCSG's
  reduction is roughly half of Ice's; Acclaim sometimes *increases*
  refaults.
* **Table 5** — power-manager freezing (fixed-cycle, energy-driven,
  memory-oblivious) vs Ice.  Expected: the power manager helps
  (reclaims −22%, refaults −33% vs baseline) but less than Ice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence


@dataclass
class ReclaimCell:
    scenario: str
    policy: str
    refault: float
    reclaim: float


def format_matrix(cells: Sequence[ReclaimCell], title: str) -> str:
    schemes: List[str] = []
    for cell in cells:
        if cell.policy not in schemes:
            schemes.append(cell.policy)
    lines = [
        title,
        f"{'scenario':>9} | "
        + " | ".join(f"{scheme:>22}" for scheme in schemes),
        f"{'':>9} | " + " | ".join(f"{'refault / reclaim':>22}" for _ in schemes),
        "-" * (12 + 25 * len(schemes)),
    ]
    by_scenario: Dict[str, Dict[str, ReclaimCell]] = {}
    order: List[str] = []
    for cell in cells:
        if cell.scenario not in by_scenario:
            order.append(cell.scenario)
        by_scenario.setdefault(cell.scenario, {})[cell.policy] = cell
    for scenario in order:
        row = by_scenario[scenario]
        entries = []
        for scheme in schemes:
            cell = row.get(scheme)
            entries.append(
                f"{cell.refault:>9.0f} / {cell.reclaim:>10.0f}" if cell else " " * 22
            )
        lines.append(f"{scenario:>9} | " + " | ".join(entries))
    return "\n".join(lines)


def reduction_summary(cells: Sequence[ReclaimCell], baseline: str = "LRU+CFS") -> str:
    """Per-scheme refault/reclaim relative to the baseline scheme."""
    by_scenario: Dict[str, Dict[str, ReclaimCell]] = {}
    for cell in cells:
        by_scenario.setdefault(cell.scenario, {})[cell.policy] = cell
    schemes = sorted({cell.policy for cell in cells} - {baseline})
    lines = [f"reduction vs {baseline}:"]
    for scheme in schemes:
        refault_ratios = []
        reclaim_ratios = []
        for row in by_scenario.values():
            base = row.get(baseline)
            cell = row.get(scheme)
            if base is None or cell is None or base.refault == 0:
                continue
            refault_ratios.append(cell.refault / base.refault)
            reclaim_ratios.append(cell.reclaim / base.reclaim if base.reclaim else 0)
        if not refault_ratios:
            continue
        lines.append(
            f"  {scheme:>12}: refaults at "
            f"{sum(refault_ratios) / len(refault_ratios):.0%} of baseline, "
            f"reclaims at {sum(reclaim_ratios) / len(reclaim_ratios):.0%}"
        )
    return "\n".join(lines)
