#!/usr/bin/env python3
"""Writing a custom management policy against the substrate.

The paper argues for *selective* freezing: "it always takes a longer
time to switch a frozen application to the FG", so Ice only freezes the
apps that actually cause refaults.  This example builds the obvious
strawman — FreezeAllPolicy, which freezes every cached app the moment
it leaves the foreground — and shows the trade-off: it matches or beats
Ice on frame rate, but every one of its hot launches pays the thaw
penalty, while Ice thaws only the apps it froze for refaulting.  Under
this memory pressure the LMK kills most cached apps, so most launches
are cold and the two thaw counts come out close.

It also demonstrates the policy surface: lifecycle hooks
(`on_foreground_change`, `before_launch`) plus direct access to the
system's freezer.

Run:  python examples/custom_policy.py
"""

from repro.android.app import Application, AppState
from repro.experiments.scenarios import BgCase, run_scenario
from repro.policies.base import ManagementPolicy
from repro.policies.registry import register_policy


class FreezeAllPolicy(ManagementPolicy):
    """Freeze every application as soon as it is backgrounded."""

    name = "FreezeAll"
    description = "aggressively freeze every cached application"

    def on_foreground_change(self, app: Application, previous) -> None:
        if previous is not None and previous.alive:
            for pid in previous.pids:
                self.system.freezer.freeze(pid)

    def before_launch(self, app: Application) -> float:
        latency = 0.0
        for pid in app.pids:
            latency += self.system.freezer.thaw(pid)
        return latency


def main() -> None:
    # Make the policy addressable by the experiment harness.
    register_policy("FreezeAll", FreezeAllPolicy)

    print("S-A video call, 8 BG apps, simulated P20\n")
    print(f"{'policy':>10} | {'fps':>5} | {'RIA':>5} | {'refaults':>8}")
    print("-" * 40)
    for policy in ("LRU+CFS", "Ice", "FreezeAll"):
        result = run_scenario(
            "S-A", policy=policy, bg_case=BgCase.APPS, seconds=45.0, seed=7
        )
        print(f"{policy:>10} | {result.fps:5.1f} | {result.ria:5.1%} | "
              f"{result.refault:8d}")

    # The launching side of the trade-off.
    from repro.experiments.launch_study import launch_study

    print("\nlaunch study (3 rounds):")
    print(f"{'policy':>10} | {'avg ms':>7} | {'hot ms':>7} | "
          f"{'hot launches':>12} | {'thawed launches':>15}")
    print("-" * 65)
    for policy in ("Ice", "FreezeAll"):
        study = launch_study(policy, rounds=3, use_seconds=8.0, seed=7)
        hot = sum(1 for sample in study.samples if sample.style == "hot")
        thawed = sum(1 for sample in study.samples if sample.thaw_ms > 0)
        print(f"{policy:>10} | {study.average_ms:7.0f} | {study.hot_ms:7.0f} | "
              f"{hot:12d} | {thawed:15d}")
    print("\nFreezeAll thaws before every hot launch; Ice only before those "
          "of the apps it froze for refaulting (§4.2).")


if __name__ == "__main__":
    main()
