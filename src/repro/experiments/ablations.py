"""Ablations of Ice's design choices (beyond the paper's tables).

* **Selective vs aggressive freezing** (§4.2): the FreezeAll strawman
  freezes every app that leaves the FG, so each hot launch pays a thaw.
* **Memory-aware thawing intensity** (§4.3, Eq. 1): the Ice-delta1
  strawman's smaller δ thaws more often, letting more refaults through.
* **The whitelist** (§4.4): a perceptible app must never be frozen.

The strawmen are registered only while :func:`strawmen` is open, so
they never show up in another run's policy list.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Dict, Iterator

from repro.android.app import Application
from repro.apps.catalog import catalog_apps
from repro.core.config import IceConfig
from repro.core.ice import IcePolicy
from repro.devices.specs import huawei_p20
from repro.experiments.scenarios import BgCase, stage_background
from repro.policies.base import ManagementPolicy
from repro.policies.registry import temporary_policy
from repro.system import MobileSystem


class FreezeAllPolicy(ManagementPolicy):
    """Aggressive strawman: freeze everything that leaves the FG."""

    name = "FreezeAll"
    description = "freeze every cached app unconditionally"

    def on_foreground_change(self, app: Application, previous) -> None:
        if previous is not None and previous.alive:
            for pid in previous.pids:
                self.system.freezer.freeze(pid)

    def before_launch(self, app: Application) -> float:
        latency = 0.0
        for pid in app.pids:
            latency += self.system.freezer.thaw(pid)
        return latency


def ice_delta1() -> IcePolicy:
    """Ice with the MDT weight coefficient δ at 1 instead of the paper's 8."""
    return IcePolicy(IceConfig(delta=1.0))


STRAWMEN = {"FreezeAll": FreezeAllPolicy, "Ice-delta1": ice_delta1}


@contextmanager
def strawmen() -> Iterator[None]:
    """Register every strawman for the duration of a block."""
    with ExitStack() as stack:
        for name, factory in STRAWMEN.items():
            stack.enter_context(temporary_policy(name, factory))
        yield


def whitelist_study(seconds: float = 40.0, seed: int = 42) -> Dict[str, object]:
    """Ice with a perceptible (music-playing) app first among 8 BG apps.

    Returns the app, its pids frozen at the end of a ``seconds`` window
    under S-A's foreground, and the whitelist vetoes RPF recorded.
    """
    system = MobileSystem(spec=huawei_p20(), policy=IcePolicy(), seed=seed)
    system.install_apps(catalog_apps())
    rng = system.rng.stream("scenario-bg-selection")
    packages = stage_background(system, "WhatsApp", BgCase.APPS, 8, rng)
    music = system.get_app(packages[0])
    music.perceptible = True
    system.policy.mapping_table.set_adj_score(music.uid, music.adj)
    record = system.launch("WhatsApp")
    system.run_until_complete(record, timeout_s=240.0)
    system.run(seconds=seconds)
    return {
        "package": music.package,
        "frozen": [pid for pid in music.pids if system.freezer.is_frozen(pid)],
        "whitelisted": system.policy.rpf.stats.whitelisted,
    }
