"""Scenario ids and background cases, without the simulator.

Request validation (:mod:`repro.serve.spec`), the CLI parser and the
bench arguments name scenarios and BG cases but never run one, so these
names live apart from :mod:`repro.experiments.scenarios`, which imports
the whole simulator.
"""

from __future__ import annotations

from typing import Dict

from repro.apps.catalog import SCENARIO_APPS

# Scenario id → foreground application (Table 3 / §2.2.1).
SCENARIOS: Dict[str, str] = dict(SCENARIO_APPS)


class BgCase:
    NULL = "bg-null"
    APPS = "bg-apps"
    CPUTESTER = "bg-cputester"
    MEMTESTER = "bg-memtester"

    ALL = (NULL, APPS, CPUTESTER, MEMTESTER)
