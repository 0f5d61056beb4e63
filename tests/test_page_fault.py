"""Tests for the page-fault path and refault classification."""

from repro.kernel.page import HeapKind, PageKind

from tests.conftest import make_ids


def make_pages(mm, count, **kw):
    return [mm.slab.view(i) for i in make_ids(mm.slab, count, **kw)]


def evict_all(mm, pages):
    ids = [page.page_id for page in pages]
    mm.make_resident_bulk_ids(ids)
    for i in ids:
        mm.lru.discard_id(i)
        mm._evict_page_id(i, now=0.0)


def test_first_touch_anon_is_minor(mm, fault_handler):
    page = make_pages(mm, 1)[0]
    outcome = fault_handler.handle(page, pid=1, uid=1, foreground=True)
    assert page.present
    assert not outcome.major
    assert outcome.refault is None
    assert mm.vmstat.pgfault == 1
    assert mm.vmstat.pgmajfault == 0


def test_first_touch_file_reads_flash(mm, fault_handler):
    page = make_pages(mm, 1, kind=PageKind.FILE)[0]
    outcome = fault_handler.handle(page, pid=1, uid=1, foreground=True)
    assert outcome.major
    assert outcome.io_complete_at is not None
    assert mm.vmstat.filein == 1


def test_anon_refault_decompresses_from_zram(mm, fault_handler, clock):
    page = make_pages(mm, 1)[0]
    evict_all(mm, [page])
    clock.advance(10.0)
    outcome = fault_handler.handle(page, pid=1, uid=1, foreground=False)
    assert outcome.refault is not None
    assert outcome.major
    assert outcome.service_ms >= mm.zram.decompress_ms
    assert mm.vmstat.pswpin == 1
    assert mm.vmstat.refault_anon == 1


def test_file_refault_reads_flash(mm, fault_handler):
    page = make_pages(mm, 1, kind=PageKind.FILE)[0]
    evict_all(mm, [page])
    outcome = fault_handler.handle(page, pid=1, uid=1, foreground=False)
    assert outcome.refault is not None
    assert outcome.io_complete_at is not None
    assert mm.vmstat.refault_file == 1


def test_refault_classified_foreground(mm, fault_handler):
    page = make_pages(mm, 1)[0]
    evict_all(mm, [page])
    fault_handler.handle(page, pid=1, uid=1, foreground=True)
    assert mm.vmstat.refault_fg == 1
    assert mm.vmstat.refault_bg == 0


def test_refault_classified_background(mm, fault_handler):
    page = make_pages(mm, 1)[0]
    evict_all(mm, [page])
    fault_handler.handle(page, pid=1, uid=1, foreground=False)
    assert mm.vmstat.refault_bg == 1


def test_java_vs_native_heap_accounting(mm, fault_handler):
    java = make_pages(mm, 1, heap=HeapKind.JAVA)[0]
    native = make_pages(mm, 1, heap=HeapKind.NATIVE)[0]
    evict_all(mm, [java, native])
    fault_handler.handle_id(java.page_id, pid=1, uid=1, foreground=False)
    fault_handler.handle_id(native.page_id, pid=1, uid=1, foreground=False)
    assert mm.vmstat.refault_java_heap == 1
    assert mm.vmstat.refault_native_heap == 1


def test_refaulted_page_enters_active_list(mm, fault_handler):
    page = make_pages(mm, 1)[0]
    evict_all(mm, [page])
    fault_handler.handle_id(page.page_id, pid=1, uid=1, foreground=False)
    assert page.lru is not None
    assert "active" in page.lru.value


def test_spurious_fault_on_present_page_is_cheap(mm, fault_handler):
    page = make_pages(mm, 1)[0]
    mm.make_resident_bulk_ids([page.page_id])
    before = mm.vmstat.pgfault
    outcome = fault_handler.handle(page, pid=1, uid=1, foreground=True)
    assert mm.vmstat.pgfault == before
    assert outcome.service_ms == fault_handler.FAULT_OVERHEAD_MS


def test_refault_event_published_to_observers(mm, fault_handler):
    seen = []
    mm.workingset.subscribe(seen.append)
    page = make_pages(mm, 1)[0]
    evict_all(mm, [page])
    fault_handler.handle_id(page.page_id, pid=77, uid=10077, foreground=False)
    assert len(seen) == 1
    assert seen[0].pid == 77
    assert seen[0].uid == 10077
    assert seen[0].page.page_id == page.page_id


def test_write_fault_dirties_file_page(mm, fault_handler):
    page = make_pages(mm, 1, kind=PageKind.FILE)[0]
    fault_handler.handle_id(page.page_id, pid=1, uid=1, foreground=True,
                            write=True)
    assert page.dirty
