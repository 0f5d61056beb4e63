"""Tests for the active/inactive LRU lists."""

import pytest

from repro.kernel.lru import LruKind, LruLists
from repro.kernel.page import PageKind
from repro.kernel.slab import REFERENCED, PageSlab

from tests.conftest import make_ids


@pytest.fixture
def slab():
    return PageSlab()


@pytest.fixture
def lru(slab):
    return LruLists(slab)


def anon(slab):
    return make_ids(slab, 1)[0]


def filep(slab):
    return make_ids(slab, 1, kind=PageKind.FILE)[0]


def test_add_defaults_to_inactive(slab, lru):
    a, f = anon(slab), filep(slab)
    lru.add_id(a)
    lru.add_id(f)
    assert slab.view(a).lru is LruKind.INACTIVE_ANON
    assert slab.view(f).lru is LruKind.INACTIVE_FILE


def test_add_active(slab, lru):
    a = anon(slab)
    lru.add_id(a, active=True)
    assert slab.view(a).lru is LruKind.ACTIVE_ANON


def test_double_add_rejected(slab, lru):
    a = anon(slab)
    lru.add_id(a)
    with pytest.raises(ValueError):
        lru.add_id(a)


def test_remove_clears_membership(slab, lru):
    a = anon(slab)
    lru.add_id(a)
    lru.discard_id(a)
    assert slab.view(a).lru is None
    assert lru.total == 0


def test_discard_is_noop_for_unlisted(slab, lru):
    lru.discard_id(anon(slab))  # must not raise


def test_coldest_is_fifo_order(slab, lru):
    first, second = anon(slab), anon(slab)
    lru.add_id(first)
    lru.add_id(second)
    assert list(lru.iter_ids(LruKind.INACTIVE_ANON)) == [first, second]


def test_rotate_moves_to_hot_end(slab, lru):
    """A protected page is rotated back to the hot end of its list."""
    first, second = anon(slab), anon(slab)
    lru.add_id(first)
    lru.add_id(second)
    victims, _ = lru.scan_inactive_ids(
        LruKind.INACTIVE_ANON, budget=1, protect=lambda p: p.page_id == first
    )
    assert victims == []
    assert list(lru.iter_ids(LruKind.INACTIVE_ANON)) == [second, first]


def test_scan_inactive_returns_unreferenced_victims(slab, lru):
    ids = make_ids(slab, 4)
    lru.add_ids(ids)
    victims, scanned = lru.scan_inactive_ids(LruKind.INACTIVE_ANON, budget=4)
    assert victims == ids
    assert scanned == 4
    assert all(slab.view(i).lru is None for i in victims)


def test_scan_inactive_gives_second_chance(slab, lru):
    hot, cold = anon(slab), anon(slab)
    lru.add_id(hot)
    lru.add_id(cold)
    slab.flags[hot] |= REFERENCED
    victims, scanned = lru.scan_inactive_ids(LruKind.INACTIVE_ANON, budget=2)
    assert victims == [cold]
    assert scanned == 2
    assert slab.view(hot).lru is LruKind.ACTIVE_ANON
    assert not slab.view(hot).referenced  # young bit cleared


def test_scan_inactive_respects_protect_hook(slab, lru):
    protected, normal = anon(slab), anon(slab)
    lru.add_id(protected)
    lru.add_id(normal)
    seen = []

    def protect(page):
        seen.append(page.page_id)
        return page.page_id == protected

    victims, scanned = lru.scan_inactive_ids(
        LruKind.INACTIVE_ANON, budget=2, protect=protect
    )
    assert victims == [normal]
    assert scanned == 2
    assert seen == [protected, normal]
    assert slab.view(protected).lru is LruKind.INACTIVE_ANON


def test_scan_inactive_budget_limits_scanning(slab, lru):
    ids = make_ids(slab, 10)
    lru.add_ids(ids)
    victims, scanned = lru.scan_inactive_ids(LruKind.INACTIVE_ANON, budget=3)
    assert victims == ids[:3]
    assert scanned == 3


def test_scan_inactive_on_active_list_rejected(lru):
    with pytest.raises(ValueError):
        lru.scan_inactive_ids(LruKind.ACTIVE_ANON, budget=1)


def test_age_active_demotes_unreferenced(slab, lru):
    referenced, idle = anon(slab), anon(slab)
    lru.add_id(referenced, active=True)
    lru.add_id(idle, active=True)
    slab.flags[referenced] |= REFERENCED
    demoted = lru.age_active(LruKind.ACTIVE_ANON, budget=2)
    assert demoted == 1
    assert slab.view(idle).lru is LruKind.INACTIVE_ANON
    assert slab.view(referenced).lru is LruKind.ACTIVE_ANON
    assert not slab.view(referenced).referenced


def test_age_active_on_inactive_list_rejected(lru):
    with pytest.raises(ValueError):
        lru.age_active(LruKind.INACTIVE_ANON, budget=1)


def test_sizes_and_total(slab, lru):
    lru.add_id(anon(slab))
    lru.add_id(anon(slab), active=True)
    lru.add_id(filep(slab))
    assert lru.inactive_anon == 1
    assert lru.active_anon == 1
    assert lru.inactive_file == 1
    assert lru.active_file == 0
    assert lru.total == 3
