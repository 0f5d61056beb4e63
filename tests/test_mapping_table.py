"""Tests for the kernel-space UID-PID mapping table (§4.2.2, §6.4.1)."""

import pytest

from repro.core.mapping_table import (
    MappingTable,
    MappingTableFullError,
    PID_ENTRY_BYTES,
    SCORE_ENTRY_BYTES,
    STATE_ENTRY_BYTES,
    UID_ENTRY_BYTES,
)


def test_register_and_lookup_both_directions():
    table = MappingTable()
    table.register_app(uid=10001, package="a", pids=[1, 2, 3])
    assert table.uid_of_pid(2) == 10001
    assert table.pids_of_uid(10001) == [1, 2, 3]


def test_unknown_pid_returns_none():
    assert MappingTable().uid_of_pid(999) is None


def test_unknown_uid_returns_empty():
    assert MappingTable().pids_of_uid(999) == []


def test_register_refresh_adds_new_pids():
    table = MappingTable()
    table.register_app(uid=10001, package="a", pids=[1])
    table.register_app(uid=10001, package="a", pids=[1, 2])
    assert table.pids_of_uid(10001) == [1, 2]


def test_remove_app_clears_both_indices():
    table = MappingTable()
    table.register_app(uid=10001, package="a", pids=[1, 2])
    table.remove_app(10001)
    assert table.uid_of_pid(1) is None
    assert table.pids_of_uid(10001) == []
    assert table.process_count == 0


def test_remove_unknown_app_is_noop():
    MappingTable().remove_app(424242)


def test_paper_size_accounting_20_apps_3_procs():
    """§6.4.1: 20x64B UID + 20x3x64B PID + 20x3x1B state + 20x3x64B score."""
    table = MappingTable()
    for index in range(20):
        table.register_app(
            uid=10000 + index,
            package=f"app{index}",
            pids=[100 + index * 3 + j for j in range(3)],
        )
    expected = 20 * UID_ENTRY_BYTES + 60 * (
        PID_ENTRY_BYTES + STATE_ENTRY_BYTES + SCORE_ENTRY_BYTES
    )
    assert table.memory_bytes == expected
    assert table.memory_bytes <= 32 * 1024  # within the safety bound


def test_capacity_bound_enforced():
    table = MappingTable(capacity_bytes=512)
    table.register_app(uid=1, package="a", pids=[1, 2])
    with pytest.raises(MappingTableFullError):
        table.register_app(uid=2, package="b", pids=list(range(10, 20)))


def test_failed_register_leaves_table_unchanged():
    table = MappingTable(capacity_bytes=512)
    table.register_app(uid=1, package="a", pids=[1])
    before = table.memory_bytes
    with pytest.raises(MappingTableFullError):
        table.register_app(uid=2, package="b", pids=list(range(10, 30)))
    assert table.memory_bytes == before
    assert not table.contains_uid(2)


def test_set_frozen_state():
    table = MappingTable()
    table.register_app(uid=1, package="a", pids=[5])
    table.set_frozen(5, True)
    entry = table._apps[1].processes[5]
    assert entry.frozen
    table.set_frozen(5, False)
    assert not entry.frozen


def test_set_frozen_unknown_pid_is_noop():
    MappingTable().set_frozen(999, True)


def test_adj_score_update_and_query():
    table = MappingTable()
    table.register_app(uid=1, package="a", pids=[5, 6], adj_score=900)
    assert table.adj_of_uid(1) == 900
    table.set_adj_score(1, 0)
    assert table.adj_of_uid(1) == 0


def test_adj_of_unknown_uid_is_none():
    assert MappingTable().adj_of_uid(7) is None


def test_lookup_counter_tracks_hot_path():
    table = MappingTable()
    table.register_app(uid=1, package="a", pids=[5])
    table.uid_of_pid(5)
    table.pids_of_uid(1)
    assert table.lookups == 2
