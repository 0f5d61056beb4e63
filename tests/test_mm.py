"""Tests for the memory manager: allocation, watermarks, reclaim."""

import pytest

from repro.kernel.lru import LruKind
from repro.kernel.mm import DIRECT_RECLAIM_BATCH, OutOfMemoryError
from repro.kernel.page import PageKind

from tests.conftest import make_ids


def fill_memory(mm, count, kind=PageKind.ANON, owner=None, dirty=False):
    ids = make_ids(mm.slab, count, kind=kind, owner=owner, dirty=dirty)
    mm.make_resident_bulk_ids(ids)
    return [mm.slab.view(i) for i in ids]


def test_initial_accounting(mm, small_spec):
    assert mm.managed_pages == small_spec.managed_pages
    assert mm.free_pages == small_spec.managed_pages
    assert mm.resident_pages == 0


def test_make_resident_updates_accounting(mm):
    ids = make_ids(mm.slab, 10)
    outcome = mm.make_resident_bulk_ids(ids)
    assert outcome.pages == 10
    assert mm.resident_pages == 10
    assert mm.free_pages == mm.managed_pages - 10
    assert all(mm.slab.view(i).present for i in ids)
    assert mm.vmstat.pgalloc == 10


def test_make_resident_idempotent_for_present_pages(mm):
    ids = make_ids(mm.slab, 1)
    mm.make_resident_bulk_ids(ids)
    outcome = mm.make_resident_bulk_ids(ids)
    assert outcome.pages == 0
    assert mm.resident_pages == 1


def test_new_pages_enter_inactive_unreferenced(mm):
    (page,) = fill_memory(mm, 1)
    assert page.lru is LruKind.INACTIVE_ANON
    assert not page.referenced


def test_release_frees_page(mm):
    (page,) = fill_memory(mm, 1)
    assert mm.discard_ids([page.page_id]) == 1
    assert not page.present
    assert page.lru is None
    assert mm.resident_pages == 0
    assert mm.vmstat.pgfree == 1


def test_reclaim_ages_active_anon_only_below_one_to_two(mm):
    # Linux keeps inactive:active anon near 1:2: a reclaim round ages
    # the active list only while inactive * 2 < active.
    mm.make_resident_bulk_ids(make_ids(mm.slab, 4), active=True)
    mm.make_resident_bulk_ids(make_ids(mm.slab, 3))
    mm.shrink(1)  # 3:4, then 2:4 after the eviction
    mm.shrink(1)  # 2:4, then 1:4
    assert mm.lru.active_anon == 4
    assert mm.vmstat.pgscan == 4  # inactive scans only (2 per eviction)
    mm.shrink(1)  # 1:4 ages the active list first
    assert mm.lru.active_anon < 4


def test_kswapd_woken_below_low_watermark(mm, small_spec):
    wakes = []
    mm.kswapd_waker = lambda: wakes.append(1)
    headroom = small_spec.managed_pages - small_spec.low_watermark_pages
    fill_memory(mm, headroom + 1)
    assert wakes


def test_shrink_evicts_anon_to_zram(mm):
    pages = fill_memory(mm, 50)
    result = mm.shrink(10)
    assert result.reclaimed == 10
    assert mm.zram.stored_pages == 10
    assert mm.vmstat.pswpout == 10
    assert mm.vmstat.pgsteal_anon == 10
    evicted = [page for page in pages if not page.present]
    assert len(evicted) == 10
    assert all(page.was_evicted for page in evicted)


def test_shrink_drops_clean_file_pages_without_io(mm):
    fill_memory(mm, 20, kind=PageKind.FILE)
    before_writes = mm.flash.stats.write_pages
    result = mm.shrink(5)
    assert result.reclaimed == 5
    assert mm.vmstat.pgsteal_file == 5
    assert mm.flash.stats.write_pages == before_writes


def test_shrink_writes_back_dirty_file_pages(mm):
    fill_memory(mm, 20, kind=PageKind.FILE, dirty=True)
    result = mm.shrink(5)
    assert result.reclaimed == 5
    assert mm.vmstat.fileback_writeout == 5
    assert mm.flash.stats.write_pages == 5


def test_shrink_balances_anon_and_file(mm):
    fill_memory(mm, 40, kind=PageKind.ANON)
    fill_memory(mm, 40, kind=PageKind.FILE)
    mm.shrink(20)
    assert mm.vmstat.pgsteal_anon > 0
    assert mm.vmstat.pgsteal_file > 0


def test_shrink_respects_policy_protection(mm):
    protected = fill_memory(mm, 10)
    mm.reclaim_protect = lambda page: True
    result = mm.shrink(5)
    assert result.reclaimed == 0
    assert all(page.present for page in protected)


def test_shrink_skips_anon_when_zram_full(mm):
    fill_memory(mm, mm.zram.capacity_pages + 50)
    mm.shrink(mm.zram.capacity_pages)  # fills zram (may stop early)
    stored = mm.zram.stored_pages
    fill_memory(mm, 5, kind=PageKind.FILE)
    result = mm.shrink(10)
    # Only file pages can go now.
    assert mm.zram.stored_pages == stored
    assert result.reclaimed <= 10


def test_eviction_installs_shadow_entries(mm):
    pages = fill_memory(mm, 10)
    mm.shrink(10)
    assert all(page.shadow_eviction_clock is not None for page in pages)


def test_direct_reclaim_triggers_below_min(mm, small_spec):
    # Fill right up to the min watermark, then allocate more.
    fill_memory(mm, small_spec.managed_pages - small_spec.min_watermark_pages)
    outcome = mm.make_resident_bulk_ids(make_ids(mm.slab, 5))
    assert outcome.direct_reclaims > 0
    assert outcome.stall_ms > 0
    assert mm.vmstat.pgsteal_direct > 0


def test_contention_charged_inside_watermark_band(mm, small_spec):
    fill_memory(
        mm, small_spec.managed_pages - small_spec.high_watermark_pages + 10
    )
    outcome = mm.make_resident_bulk_ids(make_ids(mm.slab, 3))
    assert outcome.stall_ms > 0
    assert mm.vmstat.alloc_stall_ms > 0


def test_no_contention_above_high_watermark(mm):
    outcome = mm.make_resident_bulk_ids(make_ids(mm.slab, 3))
    assert outcome.stall_ms == 0.0


def test_oom_raised_when_nothing_reclaimable(mm, small_spec):
    # Fill with protected pages so reclaim cannot make progress.
    mm.reclaim_protect = lambda page: True
    with pytest.raises(OutOfMemoryError):
        fill_memory(mm, small_spec.managed_pages + 1)
    assert mm.vmstat.oom_kills >= 1


def test_discard_page_releases_resident(mm):
    (page,) = fill_memory(mm, 1)
    mm.discard_ids([page.page_id])
    assert not page.present
    assert mm.resident_pages == 0


def test_discard_page_clears_zram_slot(mm):
    pages = fill_memory(mm, 10)
    mm.shrink(10)
    evicted = next(page for page in pages if not page.present)
    stored_before = mm.zram.stored_pages
    mm.discard_ids([evicted.page_id])
    assert mm.zram.stored_pages == stored_before - 1
    assert not evicted.was_evicted


def test_release_process_pages_mixed_state(mm):
    pages = fill_memory(mm, 20)
    mm.shrink(5)
    resident_before = mm.resident_pages
    freed = mm.discard_ids([page.page_id for page in pages])
    assert freed == resident_before
    assert mm.resident_pages == 0
    assert mm.zram.stored_pages == 0


def test_zram_pool_charges_free_memory(mm):
    fill_memory(mm, 100)
    free_before = mm.free_pages
    mm.shrink(28)  # evict 28 anon pages -> pool = 28/2.8 = 10 pages
    assert mm.free_pages == free_before + 28 - 10


def test_available_pages_includes_inactive_file(mm):
    fill_memory(mm, 10, kind=PageKind.FILE)
    assert mm.available_pages == mm.free_pages + 10


def test_memory_pressure_rises_with_consumption(mm, small_spec):
    low_pressure = mm.memory_pressure()
    fill_memory(mm, small_spec.managed_pages - small_spec.high_watermark_pages)
    assert mm.memory_pressure() > low_pressure


def test_pgscan_counts_every_page_reclaim_scans(monkeypatch):
    """Over a heavy-reclaim window, vmstat.pgscan is the sum of the
    pages every shrink call scanned (inactive scans plus active aging),
    and every stolen page was scanned first."""
    from repro.experiments.scenarios import run_scenario
    from repro.kernel.mm import MemoryManager
    from repro.system import MobileSystem

    scanned = []
    shrink = MemoryManager.shrink
    reset = MobileSystem.reset_measurements

    def counted_shrink(self, *args, **kwargs):
        result = shrink(self, *args, **kwargs)
        scanned.append(result.scanned)
        return result

    def window_start(self):
        reset(self)
        scanned.clear()

    monkeypatch.setattr(MemoryManager, "shrink", counted_shrink)
    monkeypatch.setattr(MobileSystem, "reset_measurements", window_start)
    result = run_scenario(
        "S-B", policy="LRU+CFS", bg_case="bg-apps", seconds=4.0, seed=3,
        sample_interval_ms=500.0,
    )
    vm = result.system.vmstat
    assert vm.pgsteal > 500  # the window really is reclaim-heavy
    assert vm.pgscan == sum(scanned)
    assert vm.pgscan >= vm.pgsteal
    assert "pgscan " in result.system.procfs.read("vmstat")
    assert sum(result.sampler.series["pgscan"]) > 0
