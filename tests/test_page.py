"""Tests for pages and page tables."""

import pytest

from repro.kernel.page import HeapKind, Page, PageKind
from repro.kernel.page_table import PageTable
from repro.kernel.slab import PRESENT, PageSlab

from tests.conftest import make_ids


@pytest.fixture
def slab():
    return PageSlab()


def make_anon(slab):
    return slab.view(make_ids(slab, 1, heap=HeapKind.NATIVE)[0])


def make_file(slab):
    return slab.view(make_ids(slab, 1, kind=PageKind.FILE)[0])


def test_page_ids_unique(slab):
    a, b = make_anon(slab), make_anon(slab)
    assert a.page_id != b.page_id


def test_anon_requires_heap_kind(slab):
    with pytest.raises(ValueError):
        PageTable(owner=None, slab=slab).build_block(1, PageKind.ANON, HeapKind.NONE)


def test_file_rejects_heap_kind(slab):
    with pytest.raises(ValueError):
        PageTable(owner=None, slab=slab).build_block(1, PageKind.FILE, HeapKind.JAVA)


def test_new_page_not_present(slab):
    page = make_anon(slab)
    assert not page.present
    assert not page.was_evicted


def test_mark_accessed_sets_young_bit(mm, fault_handler):
    page = make_anon(mm.slab)
    fault_handler.handle_id(page.page_id, pid=1, uid=1, foreground=True)
    assert page.referenced


def test_write_access_dirties_file_page(mm, fault_handler):
    page = make_file(mm.slab)
    fault_handler.handle_id(page.page_id, pid=1, uid=1, foreground=True)
    assert not page.dirty
    fault_handler.handle_id(page.page_id, pid=1, uid=1, foreground=True,
                            write=True)
    assert page.dirty


def test_write_access_does_not_dirty_anon(mm, fault_handler):
    page = make_anon(mm.slab)
    fault_handler.handle_id(page.page_id, pid=1, uid=1, foreground=True,
                            write=True)
    assert page.referenced and not page.dirty


def test_shadow_entry_marks_eviction(slab):
    page = make_anon(slab)
    slab.shadow[page.page_id] = 17
    assert page.was_evicted
    assert page.shadow_eviction_clock == 17


def test_view_is_read_only(slab):
    page = make_anon(slab)
    assert isinstance(page, Page)
    with pytest.raises(AttributeError):
        page.present = True
    with pytest.raises(AttributeError):
        page.lru = None


# ----------------------------------------------------------------------
# PageTable
# ----------------------------------------------------------------------
def test_build_page_lands_in_correct_segment(slab):
    table = PageTable(owner=None, slab=slab)
    anon_j = table.build_block(1, PageKind.ANON, HeapKind.JAVA)
    anon_n = table.build_block(1, PageKind.ANON, HeapKind.NATIVE)
    filep = table.build_block(1, PageKind.FILE, HeapKind.NONE)
    assert list(anon_j) == table.ids_of(PageTable.JAVA_HEAP)
    assert list(anon_n) == table.ids_of(PageTable.NATIVE_HEAP)
    assert list(filep) == table.ids_of(PageTable.FILE_MAP)


def test_total_and_resident_counts(slab):
    table = PageTable(owner=None, slab=slab)
    ids = table.build_block(5, PageKind.ANON, HeapKind.JAVA)
    assert table.total_pages == 5
    assert table.resident_pages == 0
    slab.flags[ids[0]] |= PRESENT
    slab.flags[ids[1]] |= PRESENT
    assert table.resident_pages == 2


def test_evicted_pages_counts_shadowed_only(slab):
    table = PageTable(owner=None, slab=slab)
    a, b = table.build_block(2, PageKind.ANON, HeapKind.JAVA)
    slab.shadow[a] = 3
    assert table.evicted_pages == 1
    slab.flags[b] |= PRESENT
    assert table.evicted_pages == 1


def test_resident_by_segment(slab):
    table = PageTable(owner=None, slab=slab)
    (file_id,) = table.build_block(1, PageKind.FILE, HeapKind.NONE)
    slab.flags[file_id] |= PRESENT
    table.build_block(1, PageKind.ANON, HeapKind.NATIVE)
    counts = table.resident_by_segment()
    assert counts[PageTable.FILE_MAP] == 1
    assert counts[PageTable.NATIVE_HEAP] == 0


def test_all_pages_iterates_everything(slab):
    table = PageTable(owner="p", slab=slab)
    built = [
        *table.build_block(1, PageKind.ANON, HeapKind.JAVA),
        *table.build_block(1, PageKind.ANON, HeapKind.NATIVE),
        *table.build_block(1, PageKind.FILE, HeapKind.NONE),
    ]
    assert table.all_page_ids() == built
    assert all(slab.view(i).owner == "p" for i in built)
