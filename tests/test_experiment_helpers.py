"""Tests for experiment helper functions and formatters (pure, fast)."""

import pytest

from repro.devices.specs import huawei_p20, pixel3
from repro.experiments.figures import FIGURES
from repro.experiments.launch_study import LaunchSample, LaunchStudyResult
from repro.experiments.scenarios import (
    DEFAULT_BG_COUNT,
    BgCase,
    _memtester_mb,
    background_packages,
)
from repro.sim.rng import RngStream


# ----------------------------------------------------------------------
# scenarios helpers
# ----------------------------------------------------------------------
def test_background_packages_excludes_foreground():
    rng = RngStream(1, "t")
    packages = background_packages("WhatsApp", 8, rng)
    assert len(packages) == 8
    assert "WhatsApp" not in packages
    assert len(set(packages)) == 8


def test_background_packages_deterministic_per_stream():
    assert background_packages("WhatsApp", 5, RngStream(1, "t")) == (
        background_packages("WhatsApp", 5, RngStream(1, "t"))
    )


def test_default_bg_counts_follow_paper():
    assert DEFAULT_BG_COUNT["P20"] == 8
    assert DEFAULT_BG_COUNT["Pixel3"] == 6


def test_memtester_sized_to_exhaust_memory():
    spec = huawei_p20()
    mb = _memtester_mb(spec, "WhatsApp")
    pages = spec.scale_pages(mb * 1024 * 1024)
    # Occupies most of managed memory but not more than all of it.
    assert spec.managed_pages * 0.7 < pages <= spec.managed_pages
    # The smaller device gets a smaller memtester.
    assert _memtester_mb(pixel3(), "WhatsApp") < mb


def test_bg_case_listing():
    assert BgCase.ALL == (
        BgCase.NULL, BgCase.APPS, BgCase.CPUTESTER, BgCase.MEMTESTER
    )


# ----------------------------------------------------------------------
# renders, over rows as FIGURES.json stores them
# ----------------------------------------------------------------------
def test_format_table1():
    rows = [{"bg_apps": 0, "average": 0.43, "peak": 0.52}]
    text = FIGURES["table1"].render(rows)
    assert "43%" in text and "52%" in text


def test_format_figure8_layout():
    rows = [
        {"scenario": "S-A", "device": "P20", "policy": policy,
         "fps": 30.0 + i, "ria": 0.2, "rounds": 1}
        for i, policy in enumerate(("LRU+CFS", "UCSG", "Acclaim", "Ice"))
    ]
    text = FIGURES["fig8"].render(rows)
    assert "P20" in text and "S-A" in text
    assert "33.0" in text  # Ice's fps


def test_format_figure9_layout():
    rows = [
        {"config": config, "bg_count": count, "policy": policy,
         "fps": fps, "ria": ria}
        for config, count, policy, fps, ria in (
            ("F", 0, "LRU+CFS", 46.0, 0.01),
            ("F", 0, "Ice", 46.0, 0.01),
            ("8B+F", 8, "LRU+CFS", 25.0, 0.5),
            ("8B+F", 8, "Ice", 40.0, 0.2),
        )
    ]
    text = FIGURES["fig9"].render(rows)
    assert "8B+F" in text
    lines = text.splitlines()
    assert lines[2].strip().startswith("F")  # config order preserved


def _reclaim_rows(*cells):
    return [{"scenario": "S-A", "policy": policy, "refault": refault,
             "reclaim": reclaim} for policy, refault, reclaim in cells]


def test_format_matrix_and_reduction():
    rows = _reclaim_rows(("LRU+CFS", 100, 1000), ("Ice", 50, 700))
    text, summary = FIGURES["fig10"].render(rows).split("reduction vs")
    assert "S-A" in text
    assert "50%" in summary and "70%" in summary


def test_reduction_summary_skips_zero_baselines():
    rows = _reclaim_rows(("LRU+CFS", 0, 0), ("Ice", 0, 0))
    summary = FIGURES["fig10"].render(rows).split("reduction vs")[1]
    assert "Ice" not in summary


def test_format_figure2b():
    rows = [{"decile": "[0th,10th]", "fps": 47.2, "reclaims": 100.0,
             "bg_refaults": 5.0}]
    text = FIGURES["fig2b"].render(rows)
    assert "47.2" in text


# ----------------------------------------------------------------------
# launch study aggregates
# ----------------------------------------------------------------------
def make_study():
    result = LaunchStudyResult(policy="x")
    result.samples = [
        LaunchSample(0, "A", "cold", 4000.0, 0.0),
        LaunchSample(1, "A", "hot", 400.0, 0.0),
        LaunchSample(1, "B", "cold", 3000.0, 0.0),
        LaunchSample(2, "A", "hot", 500.0, 12.0),
    ]
    return result


def test_launch_study_latency_splits():
    study = make_study()
    assert study.cold_ms == 3500.0
    assert study.hot_ms == 450.0
    assert study.average_ms == pytest.approx((4000 + 400 + 3000 + 500) / 4)


def test_launch_study_hot_count_from_round():
    study = make_study()
    assert study.hot_launch_count(1) == 2
    assert study.hot_launch_count(2) == 1
