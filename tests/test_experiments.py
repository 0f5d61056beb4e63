"""Smoke tests for the experiment harnesses (tiny parameters).

These verify the drivers run end-to-end and produce sane structures;
the full-scale paper numbers are regenerated by ``repro figures`` and
checked in ``tests/test_figures.py``.
"""

import pytest

from repro.apps.catalog import catalog_apps
from repro.devices.specs import huawei_p20
from repro.experiments.scenarios import BgCase, SCENARIOS, run_scenario
from repro.experiments.cpu_utilization import measure_cpu_utilization
from repro.experiments.launch_study import launch_study, worst_case_hot_launch
from repro.experiments.overhead import (
    indexing_overhead,
    mapping_table_overhead,
    thaw_latency_ms,
)
from repro.experiments.page_categorization import figure4
from repro.experiments.refault_analysis import figure2b, collect_slices
from repro.experiments.user_study import STUDY_USERS, simulate_user


def test_scenarios_cover_paper_set():
    assert set(SCENARIOS) == {"S-A", "S-B", "S-C", "S-D"}


def test_run_scenario_produces_measurements():
    result = run_scenario("S-A", bg_case=BgCase.NULL, seconds=5.0,
                          settle_s=0.0, seed=3)
    assert result.fps > 20
    assert result.frames_completed > 0
    assert len(result.fps_timeline) >= 4
    assert result.refault == 0  # no pressure without BG apps


def test_run_scenario_bg_apps_creates_pressure():
    # Measure from launch (settle 0) so the stabilisation reclaim is
    # inside the window even on quiet seeds.
    result = run_scenario("S-A", bg_case=BgCase.APPS, bg_count=8,
                          seconds=25.0, settle_s=0.0, seed=3)
    assert result.reclaim > 0
    assert result.refault > 0
    assert result.bg_refault_share > 0.5


def test_cpu_utilization_rises_with_bg_apps():
    idle = measure_cpu_utilization(0, seconds=8.0)
    loaded = measure_cpu_utilization(6, seconds=8.0)
    assert 0.3 < idle["average"] < 0.55  # ~43% in the paper
    assert loaded["average"] > idle["average"]


def test_figure4_categorization_shape():
    summary = figure4(packages=[p.package for p in catalog_apps()[:4]],
                      window_s=10.0,
                      apps_per_system=4)
    assert summary.apps
    assert 0.0 < summary.refault_fraction <= 1.0
    assert summary.file_share + summary.anon_share == pytest.approx(1.0)


def test_figure2b_deciles_monotone_in_refaults():
    samples = collect_slices(scenarios=("S-A",), slices_per_scenario=4,
                             slice_seconds=8.0, seed=3)
    rows = figure2b(samples)
    refaults = [row["bg_refaults"] for row in rows]
    assert refaults == sorted(refaults)


def test_user_study_single_user():
    # Memory takes a few simulated minutes of usage to fill; the
    # compressed days must be long enough to reach the reclaim regime.
    result = simulate_user(STUDY_USERS[0], days=3, day_minutes=5.0)
    assert len(result.days) == 3
    assert result.total_evicted > 0
    assert 0.0 <= result.refault_ratio <= 1.0
    assert result.timeline


def test_launch_study_round_robin():
    result = launch_study("LRU+CFS", rounds=2, use_seconds=2.0, seed=3,
                          app_limit=5)
    assert len(result.samples) >= 8
    round0 = [s for s in result.samples if s.round_index == 0]
    assert all(s.style == "cold" for s in round0)
    assert result.average_ms > 0
    assert result.hot_launch_count(1) >= 0


def test_worst_case_hot_launch_slower_than_normal():
    outcome = worst_case_hot_launch()
    assert outcome.worst_hot_ms > outcome.normal_hot_ms
    assert outcome.slowdown > 1.0


def test_overhead_numbers_match_paper_accounting():
    mem = mapping_table_overhead(apps=20, processes_per_app=3)
    assert mem.measured_bytes == mem.paper_bytes == 9020
    assert mem.measured_bytes < mem.bound_bytes
    idx = indexing_overhead(lookups=10_000)
    assert idx.us_per_lookup < 100.0  # "µs level" (§6.4.2)
    assert 10.0 <= thaw_latency_ms() <= 100.0  # "tens of milliseconds"


def test_run_scenario_same_seed_identical_vmstat():
    from repro.experiments.scenarios import run_scenario

    results = [
        run_scenario("S-A", seconds=2.0, seed=31, settle_s=1.0)
        for _ in range(2)
    ]
    snaps = [r.system.vmstat.snapshot() for r in results]
    assert snaps[0] == snaps[1]
    assert results[0].to_dict() == results[1].to_dict()
    assert results[0].events_executed == results[1].events_executed
    psi_a = results[0].psi
    psi_b = results[1].psi
    assert psi_a == psi_b
    assert results[0].launch_ms > 0
