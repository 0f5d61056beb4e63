"""Tests for ActivityManager details beyond the integration suite."""

import pytest

from repro.android.app import AppState
from repro.apps.catalog import get_profile
from repro.system import MobileSystem

from tests.conftest import make_small_spec

GIB = 1024 * 1024 * 1024


@pytest.fixture
def system():
    return MobileSystem(spec=make_small_spec(ram_bytes=3 * GIB), seed=13)


def launch(system, package, frames=False):
    if package not in system.apps:
        system.install_app(get_profile(package))
    record = system.launch(package, drive_frames=frames)
    assert system.run_until_complete(record, timeout_s=180)
    return record


def test_launch_records_accumulate(system):
    launch(system, "WhatsApp")
    launch(system, "Skype")
    records = system.activity_manager.launch_records
    assert [r.package for r in records] == ["WhatsApp", "Skype"]
    assert all(r.completed for r in records)


def test_relaunching_foreground_app_is_cheap(system):
    launch(system, "WhatsApp")
    record = system.launch("WhatsApp", drive_frames=False)
    system.run_until_complete(record, timeout_s=60)
    assert record.style == "hot"


def test_recency_ranks_follow_lru_order(system):
    for package in ("WhatsApp", "Skype", "PayPal", "Yelp"):
        launch(system, package)
    # Yelp is FG; cache order most-recent-first: PayPal, Skype, WhatsApp.
    assert system.get_app("PayPal").recency_rank == 0
    assert system.get_app("Skype").recency_rank == 1
    assert system.get_app("WhatsApp").recency_rank == 2


def test_cold_launch_spawns_expected_processes(system):
    launch(system, "WhatsApp")
    app = system.get_app("WhatsApp")
    mains = [p for p in app.processes if p.main]
    assert len(mains) == 1
    # Only the main process carries the java heap.
    assert mains[0].page_table.ids_of("java_heap")
    for aux in app.processes:
        if not aux.main:
            assert not aux.page_table.ids_of("java_heap")


def test_cold_launch_reads_code_from_flash(system):
    before = system.flash.stats.read_pages
    launch(system, "WhatsApp")
    assert system.flash.stats.read_pages > before


def test_cold_launch_partial_residency(system):
    launch(system, "WhatsApp")
    app = system.get_app("WhatsApp")
    frac = app.resident_pages() / app.total_pages()
    assert 0.4 < frac < 0.75  # COLD_RESIDENT_FRAC = 0.55 plus noise


def test_hot_launch_faults_back_evicted_nucleus(system):
    launch(system, "WhatsApp")
    launch(system, "Skype")
    app = system.get_app("WhatsApp")
    # Reclaim everything so the resume must fault pages back.
    for process in app.processes:
        system.proc_reclaim.reclaim_process(process.page_table)
    before = system.vmstat.pgmajfault
    record = system.launch("WhatsApp", drive_frames=False)
    system.run_until_complete(record, timeout_s=120)
    assert system.vmstat.pgmajfault > before
    assert record.style == "hot"


def test_on_ready_callback_invoked(system):
    system.install_app(get_profile("WhatsApp"))
    seen = []
    record = system.launch("WhatsApp", drive_frames=False,
                           on_ready=seen.append)
    system.run_until_complete(record, timeout_s=120)
    assert seen == [record]


def test_frame_engine_only_for_frame_launches(system):
    launch(system, "WhatsApp", frames=False)
    assert system.frame_engine.app is None
    launch(system, "Skype", frames=True)
    assert system.frame_engine.app is system.get_app("Skype")
