"""Tests for background behaviour generation."""

import pytest

from repro.android.app import AppState
from repro.apps.behavior import PageSampler, TOUCH_CHUNK_PAGES, submit_touch
from repro.apps.catalog import get_profile
from repro.sched.task import Task
from repro.sim.rng import RngStream
from repro.system import MobileSystem

from tests.conftest import make_small_spec

GIB = 1024 * 1024 * 1024


@pytest.fixture
def staged():
    """Two apps: Skype FG, WhatsApp cached in BG."""
    system = MobileSystem(spec=make_small_spec(ram_bytes=3 * GIB), seed=9)
    for package in ("WhatsApp", "Skype"):
        system.install_app(get_profile(package))
        record = system.launch(package, drive_frames=False)
        assert system.run_until_complete(record, timeout_s=180)
    return system


def sampler_for(system, package):
    app = system.get_app(package)
    return system.activity_manager.behaviors[app.main_process.pid].sampler


# ----------------------------------------------------------------------
# PageSampler
# ----------------------------------------------------------------------
def test_sampler_counts(staged):
    sampler = sampler_for(staged, "WhatsApp")
    assert len(sampler.all_ids) == (
        len(sampler.java_ids) + len(sampler.native_ids) + len(sampler.file_ids)
    )
    assert sampler.hot_ids


def test_sample_respects_count(staged):
    sampler = sampler_for(staged, "WhatsApp")
    assert len(sampler.sample_ids(50)) == 50


def test_sample_burst_mixes_segments(staged):
    sampler = sampler_for(staged, "WhatsApp")
    picks = sampler.sample_burst_ids(300)
    kinds = {staged.mm.slab.view(i).kind.value for i in picks}
    assert "file" in kinds and "anon" in kinds


def test_sample_gc_walks_java_only(staged):
    sampler = sampler_for(staged, "WhatsApp")
    picks = sampler.sample_gc_ids(0.5)
    assert picks
    assert all(staged.mm.slab.view(i).heap.value == "java" for i in picks)
    assert len(picks) == int(len(sampler.java_ids) * 0.5)


def test_sample_segment_contiguous(staged):
    sampler = sampler_for(staged, "WhatsApp")
    ids = sampler.sample_segment(sampler.native_ids, 10)
    assert ids == sorted(ids)
    assert len(ids) == 10


# ----------------------------------------------------------------------
# submit_touch chunking
# ----------------------------------------------------------------------
def test_submit_touch_chunks_large_batches(staged):
    system = staged
    app = system.get_app("WhatsApp")
    process = app.main_process
    task = Task("probe", process=process)
    pages = sampler_for(system, "WhatsApp").sample_ids(TOUCH_CHUNK_PAGES * 3 + 10)
    submit_touch(system, task, process, pages, cpu_ms=4.0, label="test")
    assert len(task.queue) == 4


def test_submit_touch_completion_on_last_chunk(staged):
    system = staged
    process = system.get_app("WhatsApp").main_process
    task = Task("probe", process=process)
    done = []
    pages = sampler_for(system, "WhatsApp").sample_ids(TOUCH_CHUNK_PAGES + 1)
    submit_touch(system, task, process, pages, cpu_ms=2.0, label="t",
                 on_complete=lambda: done.append(1))
    items = list(task.queue)
    assert items[0].on_complete is None
    assert items[-1].on_complete is not None


def test_submit_touch_empty_pages_still_runs_cpu(staged):
    system = staged
    process = system.get_app("WhatsApp").main_process
    task = Task("probe", process=process)
    submit_touch(system, task, process, [], cpu_ms=2.0, label="t")
    assert len(task.queue) == 1
    assert task.queue[0].touch is None


# ----------------------------------------------------------------------
# Gating
# ----------------------------------------------------------------------
def test_bg_behavior_gated_off_for_foreground(staged):
    system = staged
    skype = system.get_app("Skype")  # FG
    behavior = system.activity_manager.behaviors[skype.main_process.pid]
    assert not behavior._can_act()


def test_bg_behavior_acts_when_cached(staged):
    system = staged
    whatsapp = system.get_app("WhatsApp")  # cached
    behavior = system.activity_manager.behaviors[whatsapp.main_process.pid]
    assert behavior._can_act()


def test_bg_behavior_gated_off_when_frozen(staged):
    system = staged
    whatsapp = system.get_app("WhatsApp")
    behavior = system.activity_manager.behaviors[whatsapp.main_process.pid]
    system.freezer.freeze(whatsapp.main_process.pid)
    assert not behavior._can_act()


def test_bg_behavior_gated_off_when_dead(staged):
    system = staged
    whatsapp = system.get_app("WhatsApp")
    behavior = system.activity_manager.behaviors[whatsapp.main_process.pid]
    system.kill_app(whatsapp)
    assert behavior._dead


def test_cached_app_generates_activity_over_time(staged):
    system = staged
    before = system.vmstat.pgfault
    system.run(seconds=10.0)
    assert system.vmstat.pgfault > before  # BG bursts touched pages
