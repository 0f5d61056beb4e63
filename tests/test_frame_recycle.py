"""Lockstep: the fused frame-buffer recycle vs the unfused churn.

``FrameEngine._churn_transient`` hands a full pool's oldest buffers to
:meth:`MemoryManager.recycle_ids` when the pool is at its cap, and that
call recycles them in place when every retired buffer is resident and
free memory is at least the min watermark.  Otherwise the engine frees
the buffers and allocates fresh ones through ``allocate_ids``, which may
direct-reclaim.

Each case builds two identical private systems, churns one through the
production code and the other through the unfused sequence kept below
as the reference, asserts which path the production code took, and
compares every piece of state a churn can touch: the slab columns, the
LRU lists, the free list, vmstat, zram slots, the shadow count, PSI,
kswapd and the returned stall.
"""

import pytest

from repro.apps.catalog import get_profile
from repro.kernel.lru import LruKind
from repro.kernel.slab import (
    DIRTY,
    HEAP_NATIVE,
    HEAP_NONE,
    KIND_ANON,
    KIND_FILE,
    PRESENT,
    REFERENCED,
)
from repro.system import MobileSystem

from tests.conftest import make_small_spec

GIB = 1024 * 1024 * 1024
APP = "Facebook"  # per-frame churn plus periodic allocation bursts


# ----------------------------------------------------------------------
# The unfused reference
# ----------------------------------------------------------------------
def _reference_churn(engine, count):
    """Retire the oldest buffers beyond the cap, then allocate ``count``
    fresh ones one slab id at a time through ``allocate_ids``."""
    system = engine.system
    slab = system.mm.slab
    main = engine.app.main_process
    transient = engine._transient
    excess = len(transient) - (engine._transient_cap - count)
    if excess > 0:
        old = [transient.popleft() for _ in range(excess)]
        system.mm.discard_ids(old)
        slab.free_ids(old)
    fresh = [slab.alloc(KIND_ANON, HEAP_NATIVE, 0, main) for _ in range(count)]
    stall = system.allocate_ids(main, fresh)
    for i in fresh:
        slab.flags[i] |= REFERENCED
    transient.extend(fresh)
    return stall


def _reference_stop(engine):
    """Retire the whole pool through the unfused calls, then tear down."""
    mm = engine.system.mm
    old = list(engine._transient)
    engine._transient.clear()
    mm.discard_ids(old)
    mm.slab.free_ids(old)
    engine.stop()


# ----------------------------------------------------------------------
# Worlds
# ----------------------------------------------------------------------
def _system(seconds):
    system = MobileSystem(spec=make_small_spec(ram_bytes=3 * GIB), seed=21)
    system.install_app(get_profile(APP))
    record = system.launch(APP)
    assert system.run_until_complete(record, timeout_s=180)
    system.run(seconds=seconds)
    return system


def _spy(system):
    """Log what every ``recycle_ids`` call on ``system`` returned."""
    calls = []
    real = system.mm.recycle_ids

    def recycle_ids(old_ids, owner):
        result = real(old_ids, owner)
        calls.append(result)
        return result

    system.mm.recycle_ids = recycle_ids
    return calls


def _path(calls):
    if not calls:
        return "unfused"
    assert len(calls) == 1, calls
    return "refused" if calls[0] is None else "fused"


def _clocks(group):
    return {
        key: (line.clock._closed, line.clock._open_start, line.clock._open_end)
        for key, line in group.lines.items()
    }


def _state(system):
    mm = system.mm
    slab = mm.slab
    ws = mm.workingset
    zram = mm.zram
    kswapd = system.kswapd
    return {
        "columns": (
            bytes(slab.kind), bytes(slab.heap), bytes(slab.flags),
            bytes(slab.lru), list(slab.lru_prev), list(slab.lru_next),
            list(slab.shadow), list(slab.evictions), list(slab.refaults),
            [getattr(owner, "pid", owner) for owner in slab.owner],
        ),
        "lists": {kind: list(mm.lru.iter_ids(kind)) for kind in LruKind},
        "sizes": list(mm.lru._size),
        "free_list": (list(slab.free_list), slab._next_id),
        "counters": (
            mm.resident_pages, mm.free_pages, mm._recompute_free_pages(),
            mm._pool_charge,
        ),
        "vmstat": mm.vmstat.snapshot(),
        "zram": (sorted(zram._slots), zram.stores, zram.failed_stores),
        "shadow": (ws.shadow_entries, ws.eviction_clock),
        "psi": (
            _clocks(system.psi.system),
            {uid: _clocks(g) for uid, g in system.psi.groups.items()},
        ),
        "kswapd": (
            kswapd.active, kswapd.wakeups, system._kswapd_task.state,
        ),
        "transient": list(system.frame_engine._transient),
    }


def _fill_to(system, free_target):
    """Allocate kernel pages until ``free_target`` pages are free, with
    kswapd left asleep (so a churn below the low watermark wakes it)."""
    mm = system.mm
    waker, mm.kswapd_waker = mm.kswapd_waker, None
    count = mm.free_pages - free_target
    ids = list(mm.slab.alloc_block(count, KIND_ANON, HEAP_NATIVE))
    mm.make_resident_bulk_ids(ids)
    mm.kswapd_waker = waker


# ----------------------------------------------------------------------
# Cases: (seconds run after launch, state setup, churn size, expected path)
# ----------------------------------------------------------------------
def _steady(system):
    engine = system.frame_engine
    assert len(engine._transient) == engine._transient_cap


def _pressured(system):
    """Exactly at the min watermark: the recycle still applies, charges
    the in-band contention stall and wakes kswapd."""
    _steady(system)
    _fill_to(system, system.mm._wm_min)
    assert not system.kswapd.active


def _evicted(system):
    _steady(system)
    oldest = system.frame_engine._transient[0]
    assert system.proc_reclaim.reclaim_ids([oldest]).reclaimed == 1


def _refaulted(system):
    """The oldest buffer went to zram and was faulted back: resident
    again, with eviction and refault counts the recycle must clear."""
    _evicted(system)
    oldest = system.frame_engine._transient[0]
    system.touch_ids(system.frame_engine.app.main_process, [oldest])
    assert system.mm.slab.refaults[oldest] == 1


def _stale_columns(system):
    """Columns the recycle rewrites but no churn ever changes, and flag
    bits a reclaim scan (REFERENCED) or a write (DIRTY) can change: the
    lockstep must still see them reset."""
    _steady(system)
    slab = system.mm.slab
    oldest = system.frame_engine._transient[0]
    slab.kind[oldest] = KIND_FILE
    slab.heap[oldest] = HEAP_NONE
    slab.owner[oldest] = None
    slab.shadow[oldest] = 1
    slab.flags[oldest] = PRESENT | DIRTY


def _below_min(system):
    """Protect every page so the fill cannot reclaim its way back above
    the min watermark, then let the churn's direct reclaim run."""
    _steady(system)
    mm = system.mm
    mm.reclaim_protect = lambda page: True
    _fill_to(system, mm._wm_min - 3)
    mm.reclaim_protect = None
    assert mm.free_pages < mm._wm_min


def _growing(system):
    engine = system.frame_engine
    assert len(engine._transient) < engine._transient_cap


def _frame_pages(system):
    return system.frame_engine.app.profile.frame_alloc_pages


def _burst_pages(system):
    return system.frame_engine.app.profile.fg_alloc_burst_pages


CASES = {
    "steady-state": (3.0, _steady, _frame_pages, "fused"),
    "steady-state-at-min-watermark": (3.0, _pressured, _frame_pages, "fused"),
    "pool-growth": (0.3, _growing, _frame_pages, "unfused"),
    "burst-at-cap": (3.0, _steady, _burst_pages, "fused"),
    "burst-during-growth": (0.3, _growing, _burst_pages, "unfused"),
    "retired-buffer-in-zram": (3.0, _evicted, _frame_pages, "refused"),
    "retired-buffer-refaulted": (3.0, _refaulted, _frame_pages, "fused"),
    "retired-buffer-stale-columns": (3.0, _stale_columns, _frame_pages, "fused"),
    "free-below-min-watermark": (3.0, _below_min, _frame_pages, "refused"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_churn_matches_unfused_sequence(case):
    seconds, setup, size, expected = CASES[case]
    fused, ref = _system(seconds), _system(seconds)
    setup(fused)
    setup(ref)
    assert _state(fused) == _state(ref)
    calls = _spy(fused)
    count = size(fused)

    stall = fused.frame_engine._churn_transient(count)
    ref_stall = _reference_churn(ref.frame_engine, count)

    assert _path(calls) == expected
    assert stall == ref_stall
    assert _state(fused) == _state(ref)
    if case == "steady-state-at-min-watermark":
        # The in-band branches ran: a contention stall and a wakeup.
        assert stall > 0 and fused.kswapd.active
    if case == "free-below-min-watermark":
        assert fused.vmstat.direct_reclaim_entries > 0


def test_stop_retires_the_pool_through_the_unfused_path():
    fused, ref = _system(3.0), _system(3.0)
    _steady(fused)
    assert _state(fused) == _state(ref)
    calls = _spy(fused)

    fused.frame_engine.stop()
    _reference_stop(ref.frame_engine)

    assert _path(calls) == "unfused"
    assert _state(fused) == _state(ref)
    assert not fused.frame_engine._transient
