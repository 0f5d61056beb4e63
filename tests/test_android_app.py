"""Tests for applications, processes, and oom_adj."""

import pytest

from repro.android.app import Application, AppState, Process
from repro.android.oom_adj import (
    ADJ_FOREGROUND,
    ADJ_PERCEPTIBLE,
    CACHED_APP_MIN_ADJ,
    cached_adj,
)
from repro.apps.catalog import get_profile
from repro.apps.profiles import AppCategory, AppProfile
from repro.kernel.slab import PRESENT, PageSlab
from repro.system import MobileSystem


def make_app(**overrides) -> Application:
    profile = get_profile("WhatsApp")
    return Application(profile, uid=10000)


def make_process(name, app, main=False, pid=1000, slab=None):
    return Process(name, app, pid, PageSlab() if slab is None else slab,
                   main=main)


# ----------------------------------------------------------------------
# oom_adj
# ----------------------------------------------------------------------
def test_cached_adj_ordering():
    assert cached_adj(0) == CACHED_APP_MIN_ADJ
    assert cached_adj(1) > cached_adj(0)


def test_cached_adj_capped():
    assert cached_adj(1000) == 999


def test_cached_adj_negative_rank_rejected():
    with pytest.raises(ValueError):
        cached_adj(-1)


# ----------------------------------------------------------------------
# Application
# ----------------------------------------------------------------------
def test_uids_unique_and_android_range():
    system = MobileSystem(seed=1)
    a = system.install_app(get_profile("WhatsApp"))
    b = system.install_app(get_profile("Skype"))
    assert (a.uid, b.uid) == (10000, 10001)
    # A second system numbers its apps independently.
    other = MobileSystem(seed=1).install_app(get_profile("WhatsApp"))
    assert other.uid == a.uid


def test_new_app_is_stopped_and_dead():
    app = make_app()
    assert app.state is AppState.STOPPED
    assert not app.alive
    assert app.pids == []


def test_adj_by_state():
    app = make_app()
    app.state = AppState.FOREGROUND
    assert app.adj == ADJ_FOREGROUND
    app.state = AppState.CACHED
    app.recency_rank = 2
    assert app.adj == cached_adj(2)


def test_perceptible_app_keeps_adj_200_in_bg():
    app = make_app()
    app.perceptible = True
    app.state = AppState.CACHED
    assert app.adj == ADJ_PERCEPTIBLE


def test_main_process_lookup():
    app = make_app()
    aux = make_process("aux", app, main=False, pid=1000)
    main = make_process("main", app, main=True, pid=1001)
    app.processes = [aux, main]
    assert app.main_process is main
    assert set(app.pids) == {aux.pid, main.pid}


def test_process_uid_follows_app():
    app = make_app()
    process = make_process("p", app)
    assert process.uid == app.uid


def test_build_footprint_counts_and_hotness():
    app = make_app()
    slab = PageSlab()
    process = make_process("p", app, main=True, slab=slab)
    process.build_footprint(
        java_pages=10, native_pages=20, file_pages=30,
        hot_frac=0.5, file_dirty_frac=0.1,
    )
    table = process.page_table
    assert len(table.ids_of("java_heap")) == 10
    assert len(table.ids_of("native_heap")) == 20
    assert len(table.ids_of("file_map")) == 30
    hot_java = sum(1 for i in table.ids_of("java_heap") if slab.view(i).hot)
    assert hot_java == 5
    dirty_file = sum(1 for i in table.ids_of("file_map") if slab.view(i).dirty)
    assert dirty_file == 3
    assert all(slab.view(i).owner is process for i in table.all_page_ids())


def test_resident_pages_aggregates_processes():
    app = make_app()
    slab = PageSlab()
    p1 = make_process("a", app, main=True, slab=slab)
    p1.build_footprint(4, 0, 0, hot_frac=0.0, file_dirty_frac=0.0)
    app.processes = [p1]
    for i in p1.page_table.all_page_ids():
        slab.flags[i] |= PRESENT
    assert app.resident_pages() == 4
    assert app.total_pages() == 4
