"""Tier-2 tests for Pressure Stall Information (repro.obs.psi)."""

import math

import pytest

from repro.apps.catalog import catalog_apps
from repro.obs.psi import (
    PSI_UPDATE_MS,
    PsiGroup,
    PsiMonitor,
    StallClock,
)
from repro.system import MobileSystem


# ----------------------------------------------------------------------
# StallClock: coverage semantics
# ----------------------------------------------------------------------
def test_stall_clock_disjoint_intervals_sum():
    clock = StallClock()
    clock.add(0.0, 100.0)
    clock.add(200.0, 250.0)
    assert clock.total(1000.0) == pytest.approx(150.0)


def test_stall_clock_overlap_merges_not_sums():
    clock = StallClock()
    clock.add(0.0, 100.0)
    clock.add(50.0, 120.0)  # overlaps: coverage is [0, 120)
    clock.add(119.0, 130.0)
    assert clock.total(1000.0) == pytest.approx(130.0)


def test_stall_clock_open_tail_clips_at_query_time():
    clock = StallClock()
    clock.add(100.0, 500.0)  # an I/O stall scheduled to end in the future
    assert clock.total(200.0) == pytest.approx(100.0)
    assert clock.total(300.0) == pytest.approx(200.0)
    assert clock.total(9999.0) == pytest.approx(400.0)


def test_stall_clock_never_exceeds_wall_clock():
    clock = StallClock()
    # Many overlapping stalls from different tasks within [0, 100).
    for start in range(0, 100, 5):
        clock.add(float(start), float(start) + 40.0)
    assert clock.total(100.0) <= 100.0
    assert clock.total(100.0) == pytest.approx(100.0)


def test_stall_clock_ignores_empty_and_inverted_intervals():
    clock = StallClock()
    clock.add(50.0, 50.0)
    clock.add(80.0, 20.0)
    assert clock.total(1000.0) == 0.0


# ----------------------------------------------------------------------
# EWMA windows against hand-computed values
# ----------------------------------------------------------------------
def test_psi_avg_windows_match_hand_computed_ewma():
    """One 500 ms stall in the first 1 s period, then idle.

    Kernel folding: avg += (1 - exp(-period/window)) * (ratio - avg).
    """
    t = {"now": 0.0}
    psi = PsiMonitor(clock=lambda: t["now"], update_ms=1000.0)
    psi.record("memory", 500.0, start=0.0)

    t["now"] = 1000.0
    psi.tick()
    line = psi.system.line("memory")
    a10 = 0.5 * (1.0 - math.exp(-1000.0 / 10_000.0))
    a60 = 0.5 * (1.0 - math.exp(-1000.0 / 60_000.0))
    a300 = 0.5 * (1.0 - math.exp(-1000.0 / 300_000.0))
    assert line.windows.avg10 == pytest.approx(a10, rel=1e-12)
    assert line.windows.avg60 == pytest.approx(a60, rel=1e-12)
    assert line.windows.avg300 == pytest.approx(a300, rel=1e-12)
    assert line.total_us(t["now"]) == 500_000

    # An idle period decays every window by exp(-period/window).
    t["now"] = 2000.0
    psi.tick()
    assert line.windows.avg10 == pytest.approx(a10 * math.exp(-0.1), rel=1e-12)
    assert line.windows.avg60 == pytest.approx(
        a60 * math.exp(-1000.0 / 60_000.0), rel=1e-12
    )


def test_psi_ratio_saturates_at_one():
    t = {"now": 0.0}
    psi = PsiMonitor(clock=lambda: t["now"], update_ms=1000.0)
    # Overlapping stalls cover the whole period; ratio must cap at 1.
    psi.record("io", 1000.0, start=0.0)
    psi.record("io", 900.0, start=100.0)
    t["now"] = 1000.0
    psi.tick()
    line = psi.system.line("io")
    assert line.windows.avg10 == pytest.approx(1.0 - math.exp(-0.1), rel=1e-12)


def test_pressure_file_format():
    t = {"now": 0.0}
    psi = PsiMonitor(clock=lambda: t["now"], update_ms=1000.0)
    psi.record("memory", 250.0, start=0.0, full=True)
    t["now"] = 1000.0
    psi.tick()
    text = psi.pressure_file("memory")
    some, full = text.strip().splitlines()
    assert some.startswith("some avg10=")
    assert full.startswith("full avg10=")
    assert "total=250000" in some  # µs
    assert "total=250000" in full


# ----------------------------------------------------------------------
# Full vs some, per-app groups
# ----------------------------------------------------------------------
def test_full_requires_flag_and_never_exceeds_some():
    t = {"now": 0.0}
    psi = PsiMonitor(clock=lambda: t["now"], update_ms=1000.0)
    psi.record("memory", 300.0, start=0.0)              # background stall
    psi.record("memory", 100.0, start=400.0, full=True)  # foreground-blocked
    t["now"] = 1000.0
    some = psi.system.line("memory").total_us(t["now"])
    full = psi.system.line("memory", "full").total_us(t["now"])
    assert some == 400_000
    assert full == 100_000
    assert full <= some


def test_per_uid_groups_are_lazy_and_independent():
    t = {"now": 0.0}
    psi = PsiMonitor(clock=lambda: t["now"], update_ms=1000.0)
    psi.record("io", 100.0, start=0.0)               # system only
    psi.record("io", 50.0, start=500.0, uid=10007)   # system + app
    assert set(psi.groups) == {10007}
    t["now"] = 1000.0
    assert psi.system.line("io").total_us(t["now"]) == 150_000
    assert psi.groups[10007].line("io").total_us(t["now"]) == 50_000


def test_monitor_rejects_bad_update_period():
    with pytest.raises(ValueError):
        PsiMonitor(clock=lambda: 0.0, update_ms=0.0)


# ----------------------------------------------------------------------
# Integration: a real system under pressure produces sane PSI
# ----------------------------------------------------------------------
def test_system_under_pressure_accrues_memory_psi():
    system = MobileSystem(seed=7)
    system.install_apps(catalog_apps())
    for package in list(system.apps):
        record = system.launch(package)
        system.run_until_complete(record, timeout_s=240.0)
    system.run(seconds=5.0)

    now = system.sim.now
    mem_some = system.psi.system.line("memory").total_us(now)
    mem_full = system.psi.system.line("memory", "full").total_us(now)
    assert mem_some > 0  # the full catalog cannot fit without reclaim
    assert mem_full <= mem_some
    # Coverage invariant: stall time never exceeds wall-clock time.
    assert mem_some <= now * 1000.0
    # cpu has no system-level full time, as in Linux.
    assert system.psi.system.line("cpu", "full").total_us(now) == 0
    # The tick has been folding averages all along.
    assert system.psi.updates >= 4
    # Stalls were attributed to apps (memcg-style groups exist).
    assert system.psi.groups


def test_idle_system_has_zero_pressure():
    system = MobileSystem(seed=3)
    system.run(seconds=3.0)
    now = system.sim.now
    for resource in ("memory", "io"):
        assert system.psi.system.line(resource).total_us(now) == 0
    assert PsiGroup(PSI_UPDATE_MS).line("memory").total_us(now) == 0
