"""Tests for the per-process reclaim feature (Figure 4 methodology)."""

from repro.kernel.page import HeapKind, PageKind
from repro.kernel.page_table import PageTable
from repro.kernel.proc_reclaim import PerProcessReclaim

from tests.conftest import make_ids


def test_reclaims_all_resident_pages(mm):
    reclaim = PerProcessReclaim(mm)
    ids = make_ids(mm.slab, 10)
    mm.make_resident_bulk_ids(ids)
    result = reclaim.reclaim_ids(ids)
    assert result.reclaimed == 10
    assert all(not mm.slab.view(i).present for i in ids)
    assert all(mm.slab.view(i).was_evicted for i in ids)


def test_skips_non_resident_pages(mm):
    reclaim = PerProcessReclaim(mm)
    ids = make_ids(mm.slab, 5)
    mm.make_resident_bulk_ids(ids[:2])
    result = reclaim.reclaim_ids(ids)
    assert result.reclaimed == 2


def test_dirty_file_pages_written_back(mm):
    reclaim = PerProcessReclaim(mm)
    ids = make_ids(mm.slab, 4, kind=PageKind.FILE, dirty=True)
    mm.make_resident_bulk_ids(ids)
    reclaim.reclaim_ids(ids)
    assert mm.flash.stats.write_pages == 4
    assert mm.vmstat.fileback_writeout == 4


def test_counts_as_direct_reclaim(mm):
    reclaim = PerProcessReclaim(mm)
    ids = make_ids(mm.slab, 3)
    mm.make_resident_bulk_ids(ids)
    reclaim.reclaim_ids(ids)
    assert mm.vmstat.pgsteal_direct == 3


def test_zram_full_leaves_pages_resident(mm):
    reclaim = PerProcessReclaim(mm)
    ids = make_ids(mm.slab, mm.zram.capacity_pages + 10)
    mm.make_resident_bulk_ids(ids)
    result = reclaim.reclaim_ids(ids)
    assert result.zram_full
    assert result.reclaimed == mm.zram.capacity_pages
    still_resident = [i for i in ids if mm.slab.view(i).present]
    assert len(still_resident) == 10
    assert all(mm.slab.view(i).lru is not None for i in still_resident)


def test_reclaim_whole_page_table(mm):
    reclaim = PerProcessReclaim(mm)
    table = PageTable(owner=None, slab=mm.slab)
    for _ in range(3):
        table.build_block(1, PageKind.ANON, HeapKind.JAVA)
        table.build_block(1, PageKind.FILE, HeapKind.NONE)
    mm.make_resident_bulk_ids(table.all_page_ids())
    result = reclaim.reclaim_process(table)
    assert result.reclaimed == 6
    assert table.resident_pages == 0
