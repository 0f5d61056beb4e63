"""Tests for shadow entries and refault events."""

import pytest

from repro.kernel.page import HeapKind
from repro.kernel.slab import PageSlab
from repro.kernel.workingset import WorkingSet

from tests.conftest import make_ids


@pytest.fixture
def slab():
    return PageSlab()


@pytest.fixture
def ws(slab):
    return WorkingSet(slab)


def anon(slab):
    return make_ids(slab, 1, heap=HeapKind.JAVA)[0]


def refault_event(ws, i, pid=1, uid=1, foreground=False):
    """Resolve a fault on ``i``; returns the published event or None."""
    seen = []
    ws.subscribe(seen.append)
    try:
        ws.check_refault_id(0.0, i, pid=pid, uid=uid, foreground=foreground)
    finally:
        ws.unsubscribe(seen.append)
    return seen[0] if seen else None


def test_eviction_installs_shadow_entry(slab, ws):
    i = anon(slab)
    ws.record_eviction_id(i)
    assert slab.view(i).was_evicted
    assert slab.view(i).evictions == 1


def test_first_touch_is_not_refault(slab, ws):
    i = anon(slab)
    assert ws.check_refault_id(0.0, i, pid=1, uid=2, foreground=False) == -1
    assert refault_event(ws, i) is None


def test_refault_detected_and_shadow_cleared(slab, ws):
    i = anon(slab)
    ws.record_eviction_id(i)
    event = refault_event(ws, i, pid=1, uid=2, foreground=False)
    assert event is not None
    assert event.pid == 1
    assert event.uid == 2
    assert event.background
    assert event.page.page_id == i
    assert not slab.view(i).was_evicted
    assert slab.view(i).refaults == 1


def test_refault_distance_counts_interleaved_evictions(slab, ws):
    target = anon(slab)
    ws.record_eviction_id(target)
    for _ in range(5):
        ws.record_eviction_id(anon(slab))
    assert ws.check_refault_id(0.0, target, pid=1, uid=1, foreground=True) == 5


def test_immediate_refault_distance_zero(slab, ws):
    i = anon(slab)
    ws.record_eviction_id(i)
    assert ws.check_refault_id(0.0, i, pid=1, uid=1, foreground=True) == 0


def test_observers_receive_events(slab, ws):
    seen = []
    ws.subscribe(seen.append)
    i = anon(slab)
    ws.record_eviction_id(i)
    ws.check_refault_id(1.0, i, pid=9, uid=9, foreground=False)
    assert len(seen) == 1
    assert seen[0].pid == 9
    assert seen[0].time_ms == 1.0


def test_unsubscribe_stops_delivery(slab, ws):
    seen = []
    ws.subscribe(seen.append)
    ws.unsubscribe(seen.append)
    i = anon(slab)
    ws.record_eviction_id(i)
    ws.check_refault_id(1.0, i, pid=9, uid=9, foreground=False)
    assert seen == []


def test_drop_shadow_forgets_eviction(mm):
    """Discarding an evicted page (its process died) drops the shadow."""
    ws = mm.workingset
    i = anon(mm.slab)
    ws.record_eviction_id(i)
    assert ws.shadow_entries == 1
    mm.discard_ids([i])
    assert ws.shadow_entries == 0
    assert ws.check_refault_id(0.0, i, pid=1, uid=1, foreground=True) == -1


def test_foreground_flag_propagates(slab, ws):
    i = anon(slab)
    ws.record_eviction_id(i)
    event = refault_event(ws, i, foreground=True)
    assert event.foreground and not event.background
