"""Tests for the frame pipeline and its metrics."""

import pytest

from repro.android.render import ALERT_THRESHOLD_MS, FrameStats, VSYNC_MS
from repro.apps.catalog import get_profile
from repro.system import MobileSystem

from tests.conftest import make_small_spec

GIB = 1024 * 1024 * 1024


# ----------------------------------------------------------------------
# FrameStats
# ----------------------------------------------------------------------
def test_frame_stats_alert_threshold():
    stats = FrameStats()
    stats.record_frame(10.0, latency_ms=10.0)
    stats.record_frame(20.0, latency_ms=20.0)
    assert stats.completed == 2
    assert stats.alerts == 1
    assert stats.ria == 0.5


def test_frame_stats_drops_count_as_alerts():
    stats = FrameStats()
    stats.record_frame(10.0, latency_ms=5.0)
    stats.record_drop(20.0)
    assert stats.dropped == 1
    assert stats.ria == 0.5


def test_fps_timeline_buckets_per_second():
    stats = FrameStats()
    for index in range(30):
        stats.record_frame(index * 33.3, latency_ms=5.0)
    stats.record_frame(1500.0, latency_ms=5.0)
    # The first full second held 30 frames.
    assert stats.fps_timeline[0] == 30


def test_average_latency():
    stats = FrameStats()
    stats.record_frame(0.0, 10.0)
    stats.record_frame(0.0, 20.0)
    assert stats.average_latency_ms == 15.0


def test_empty_stats_safe():
    stats = FrameStats()
    assert stats.ria == 0.0
    assert stats.average_fps == 0.0
    assert stats.average_latency_ms == 0.0


# ----------------------------------------------------------------------
# FrameEngine (integration-level)
# ----------------------------------------------------------------------
@pytest.fixture
def fg_system():
    system = MobileSystem(spec=make_small_spec(ram_bytes=3 * GIB), seed=9)
    system.install_app(get_profile("WhatsApp"))
    record = system.launch("WhatsApp")
    assert system.run_until_complete(record, timeout_s=180)
    return system


def test_fps_respects_content_cap(fg_system):
    fg_system.run(seconds=5.0)
    stats = fg_system.frame_engine.stats
    cap = get_profile("WhatsApp").content_fps
    assert stats.average_fps <= cap + 1
    assert stats.average_fps > cap * 0.8  # unloaded device ~= content rate


def test_uncontended_frames_meet_deadline(fg_system):
    fg_system.run(seconds=5.0)
    stats = fg_system.frame_engine.stats
    assert stats.ria < 0.05


def test_stop_tears_down_transients(fg_system):
    fg_system.run(seconds=3.0)
    engine = fg_system.frame_engine
    assert engine._transient  # churn built a pool
    resident_before = fg_system.mm.resident_pages
    pool = len(engine._transient)
    engine.stop()
    assert not engine._transient
    assert fg_system.mm.resident_pages <= resident_before - pool + 5


def test_working_set_is_bounded(fg_system):
    engine = fg_system.frame_engine
    sampler = fg_system.activity_manager.behaviors[
        fg_system.get_app("WhatsApp").main_process.pid
    ].sampler
    assert len(engine._working_set) <= len(sampler.all_ids)
    assert len(engine._working_set) >= len(sampler.hot_ids)


def test_render_task_registered_while_foreground(fg_system):
    assert fg_system.frame_engine.task is not None
    assert fg_system.frame_engine.task.tid in fg_system.sched.tasks
