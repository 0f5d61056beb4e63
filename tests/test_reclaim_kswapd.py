"""Tests for the kswapd background reclaimer."""

from repro.kernel.reclaim import Kswapd

from tests.conftest import make_ids


def fill(mm, count):
    ids = make_ids(mm.slab, count)
    mm.make_resident_bulk_ids(ids)
    return ids


def test_wake_is_idempotent(mm):
    kswapd = Kswapd(mm)
    kswapd.wake()
    kswapd.wake()
    assert kswapd.wakeups == 1
    assert mm.vmstat.kswapd_wakeups == 1


def test_wake_callback_fires(mm):
    kswapd = Kswapd(mm)
    woken = []
    kswapd.on_wake = lambda: woken.append(1)
    kswapd.wake()
    assert woken == [1]


def test_run_quantum_inactive_is_noop(mm):
    kswapd = Kswapd(mm)
    result = kswapd.run_quantum(4.0)
    assert result.reclaimed == 0


def test_reclaims_toward_high_watermark(mm, small_spec):
    fill(mm, small_spec.managed_pages - small_spec.min_watermark_pages)
    kswapd = Kswapd(mm)
    kswapd.wake()
    for _ in range(500):
        kswapd.run_quantum(4.0)
        if not kswapd.active:
            break
    assert not mm.below_high
    assert not kswapd.active
    assert kswapd.total_reclaimed > 0


def test_sleeps_when_watermark_restored(mm, small_spec):
    kswapd = Kswapd(mm)
    slept = []
    kswapd.on_sleep = lambda: slept.append(1)
    fill(mm, small_spec.managed_pages - small_spec.high_watermark_pages + 20)
    kswapd.wake()
    for _ in range(200):
        kswapd.run_quantum(4.0)
        if not kswapd.active:
            break
    assert slept


def test_cpu_budget_bounds_per_quantum_work(mm, small_spec):
    fill(mm, small_spec.managed_pages - small_spec.min_watermark_pages)
    kswapd = Kswapd(mm)
    kswapd.wake()
    result = kswapd.run_quantum(2.0)
    # Work should roughly respect the budget (one batch may overshoot).
    assert result.cpu_ms < 60.0
    assert result.reclaimed < mm.managed_pages


def test_gives_up_after_dry_rounds(mm, small_spec):
    fill(mm, small_spec.managed_pages - small_spec.high_watermark_pages + 10)
    mm.reclaim_protect = lambda page: True  # nothing is reclaimable
    kswapd = Kswapd(mm)
    kswapd.wake()
    result = kswapd.run_quantum(50.0)
    assert result.reclaimed == 0
    assert not kswapd.active  # went back to sleep instead of spinning


def test_should_run_reflects_state(mm, small_spec):
    kswapd = Kswapd(mm)
    assert not kswapd.should_run
    fill(mm, small_spec.managed_pages - small_spec.high_watermark_pages + 10)
    kswapd.wake()
    assert kswapd.should_run
