"""Tests for refault-driven process freezing (§4.2)."""

from repro.core.mapping_table import MappingTable
from repro.core.rpf import RefaultDrivenFreezer
from repro.core.whitelist import Whitelist
from repro.kernel.freezer import Freezer
from repro.kernel.slab import HEAP_JAVA, KIND_ANON, PageSlab
from repro.kernel.workingset import RefaultEvent


def make_rpf():
    table = MappingTable()
    whitelist = Whitelist(table)
    freezer = Freezer()
    frozen_uids = []
    rpf = RefaultDrivenFreezer(
        table, whitelist, freezer, on_app_frozen=frozen_uids.append
    )
    return rpf, table, freezer, frozen_uids


def make_event(pid=101, uid=10001, foreground=False):
    slab = PageSlab()
    page = slab.view(slab.alloc(KIND_ANON, HEAP_JAVA))
    return RefaultEvent(
        time_ms=1.0, page=page, pid=pid, uid=uid,
        foreground=foreground, refault_distance=3,
    )


def test_bg_refault_freezes_whole_application():
    rpf, table, freezer, frozen_uids = make_rpf()
    table.register_app(uid=10001, package="bg", pids=[101, 102, 103],
                       adj_score=900)
    action = rpf.handle_refault(make_event(pid=102))
    assert action is not None
    assert set(action.frozen_pids) == {101, 102, 103}  # application grain
    assert all(freezer.is_frozen(pid) for pid in (101, 102, 103))
    assert frozen_uids == [10001]
    assert rpf.stats.apps_frozen == 1
    assert rpf.stats.processes_frozen == 3


def test_foreground_refault_ignored():
    rpf, table, freezer, _ = make_rpf()
    table.register_app(uid=10001, package="fg", pids=[101], adj_score=0)
    action = rpf.handle_refault(make_event(pid=101, foreground=True))
    assert action is None
    assert rpf.stats.fg_skipped == 1
    assert not freezer.is_frozen(101)


def test_unknown_process_sifted():
    """Kernel threads and services are not in the mapping table."""
    rpf, _, freezer, _ = make_rpf()
    action = rpf.handle_refault(make_event(pid=1))  # kswapd-ish
    assert action is None
    assert rpf.stats.sifted_unknown == 1


def test_whitelisted_app_never_frozen():
    rpf, table, freezer, _ = make_rpf()
    table.register_app(uid=10001, package="music", pids=[101], adj_score=200)
    action = rpf.handle_refault(make_event(pid=101))
    assert action is None
    assert rpf.stats.whitelisted == 1
    assert not freezer.is_frozen(101)


def test_already_frozen_app_not_refrozen():
    rpf, table, freezer, frozen_uids = make_rpf()
    table.register_app(uid=10001, package="bg", pids=[101], adj_score=900)
    rpf.handle_refault(make_event(pid=101))
    action = rpf.handle_refault(make_event(pid=101))
    assert action is None
    assert rpf.stats.already_frozen == 1
    assert frozen_uids == [10001]  # registered with MDT only once


def test_partial_freeze_completes_application():
    rpf, table, freezer, _ = make_rpf()
    table.register_app(uid=10001, package="bg", pids=[101, 102], adj_score=900)
    freezer.freeze(101)
    action = rpf.handle_refault(make_event(pid=102))
    assert action.frozen_pids == (102,)
    assert freezer.is_frozen(102)


def test_disabled_rpf_is_inert():
    rpf, table, freezer, _ = make_rpf()
    table.register_app(uid=10001, package="bg", pids=[101], adj_score=900)
    rpf.enabled = False
    assert rpf.handle_refault(make_event(pid=101)) is None
    assert rpf.stats.events_seen == 0


def test_mapping_table_frozen_state_updated():
    rpf, table, freezer, _ = make_rpf()
    table.register_app(uid=10001, package="bg", pids=[101], adj_score=900)
    rpf.handle_refault(make_event(pid=101))
    assert table._apps[10001].processes[101].frozen


def test_actions_are_recorded():
    rpf, table, _, _ = make_rpf()
    table.register_app(uid=10001, package="bg", pids=[101], adj_score=900)
    rpf.handle_refault(make_event(pid=101))
    assert len(rpf.actions) == 1
    assert rpf.actions[0].trigger_pid == 101
    assert rpf.actions[0].uid == 10001
