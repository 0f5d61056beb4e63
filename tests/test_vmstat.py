"""Tests for the vmstat counters."""

from repro.kernel.vmstat import VmStat


def test_pgsteal_sums_both_sources():
    vm = VmStat()
    vm.pgsteal_kswapd = 10
    vm.pgsteal_direct = 5
    assert vm.pgsteal == 15


def test_refault_ratio():
    vm = VmStat()
    vm.pgsteal_kswapd = 100
    vm.refault_total = 39
    assert vm.refault_ratio == 0.39


def test_refault_ratio_zero_when_no_reclaim():
    assert VmStat().refault_ratio == 0.0


def test_bg_refault_share():
    vm = VmStat()
    vm.refault_total = 100
    vm.refault_bg = 65
    assert vm.bg_refault_share == 0.65


def test_bg_refault_share_zero_when_no_refaults():
    assert VmStat().bg_refault_share == 0.0


def test_snapshot_and_delta():
    vm = VmStat()
    vm.pgfault = 5
    snap = vm.copy()
    vm.pgfault = 12
    vm.pswpin = 3
    delta = vm.delta(snap)
    assert delta.pgfault == 7
    assert delta.pswpin == 3
    assert delta.pgsteal_kswapd == 0


def test_snapshot_is_detached_copy():
    vm = VmStat()
    snap = vm.snapshot()
    vm.pgfault = 99
    assert snap["pgfault"] == 0


def test_reset_zeroes_everything_with_types_preserved():
    vm = VmStat()
    vm.pgfault = 7
    vm.direct_reclaim_stall_ms = 3.5
    vm.reset()
    assert vm.pgfault == 0
    assert vm.direct_reclaim_stall_ms == 0.0
    assert isinstance(vm.pgfault, int)
    assert isinstance(vm.direct_reclaim_stall_ms, float)


def test_typed_copy_is_detached():
    vm = VmStat()
    vm.pgsteal_kswapd = 10
    snap = vm.copy()
    vm.pgsteal_kswapd = 25
    assert snap.pgsteal_kswapd == 10
    assert isinstance(snap, VmStat)


def test_typed_delta_keeps_derived_properties():
    vm = VmStat()
    vm.pgsteal_kswapd = 100
    vm.pgsteal_direct = 20
    vm.refault_total = 30
    vm.refault_bg = 18
    before = vm.copy()
    vm.pgsteal_kswapd += 50
    vm.pgsteal_direct += 10
    vm.refault_total += 12
    vm.refault_bg += 6
    vm.direct_reclaim_stall_ms += 3.5
    delta = vm.delta(before)
    assert isinstance(delta, VmStat)
    assert delta.pgsteal_kswapd == 50
    assert delta.pgsteal == 60  # derived property works on the delta
    assert delta.refault_total == 12
    assert delta.bg_refault_share == 0.5
    assert delta.direct_reclaim_stall_ms == 3.5
    # The originals are untouched.
    assert vm.pgsteal == 180
    assert before.pgsteal == 120
