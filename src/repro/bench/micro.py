"""Microbenchmarks for the slab-backed kernel hot paths.

``python -m repro bench --micro`` times two tight loops in isolation
from the full simulator and embeds the rates in the artifact's
``micro`` section:

* **lru** — intrusive-list churn on the page slab of a fresh
  :class:`~repro.kernel.mm.MemoryManager`: add / reference /
  scan-inactive / age-active / discard cycles over a block of ids,
  counted as individual list operations per wall second.  This is the
  operation mix ``MemoryManager.shrink`` drives, without the eviction
  side effects.
* **fault_loop** — the fused fault→reclaim→refault path: round-robin
  touches over a footprint 25% larger than managed memory against a
  real :class:`~repro.kernel.mm.MemoryManager`, so the loop
  continuously allocates, direct-reclaims, evicts to zram/flash, and
  refaults through ``PageFaultHandler.handle_id``.  Iterations per
  wall second includes the resident fast-path hits; the artifact also
  records how many iterations actually faulted.

The work is fixed and deterministic (no RNG, an attribute clock
advanced by a constant step); only the wall-clock measurements are
machine-dependent, which is what makes the rates comparable across
commits on one host — the same reason the matrix cells report
events/s.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.devices.specs import DeviceSpec, StorageSpec
from repro.kernel.lru import LruKind
from repro.kernel.mm import MemoryManager
from repro.kernel.page_fault import PageFaultHandler
from repro.kernel.slab import HEAP_NATIVE, HEAP_NONE, KIND_ANON, KIND_FILE, REFERENCED
from repro.storage.flash import FlashDevice
from repro.storage.zram import ZramDevice


class _Clock:
    """Attribute clock: the MM hot paths read ``mm.sim.now`` directly."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def lru_micro(pages: int = 4096, rounds: int = 40) -> Dict[str, object]:
    """Intrusive-LRU churn; returns op counts and the measured rate."""
    mm = _micro_mm(_Clock())
    slab = mm.slab
    anon = slab.alloc_block(pages // 2, KIND_ANON, HEAP_NATIVE)
    file_ids = slab.alloc_block(pages - pages // 2, KIND_FILE, HEAP_NONE)
    ids = list(anon) + list(file_ids)
    every_third = ids[::3]
    lru = mm.lru
    flags = slab.flags
    ops = 0
    start = time.perf_counter()
    for _ in range(rounds):
        for i in ids:
            lru.add_id(i, False)
        ops += len(ids)
        for i in every_third:
            flags[i] |= REFERENCED
        for kind in (LruKind.INACTIVE_ANON, LruKind.INACTIVE_FILE):
            victims, scanned = lru.scan_inactive_ids(kind, budget=pages)
            ops += scanned
            for i in victims:
                lru.add_id(i, True)
            ops += len(victims)
        for kind in (LruKind.ACTIVE_ANON, LruKind.ACTIVE_FILE):
            ops += lru.age_active(kind, budget=pages)
        for i in ids:
            lru.discard_id(i)
        ops += len(ids)
    wall_s = time.perf_counter() - start
    return {
        "pages": pages,
        "rounds": rounds,
        "ops": ops,
        "wall_s": round(wall_s, 4),
        "ops_per_sec": round(ops / wall_s) if wall_s > 0 else 0,
    }


def _micro_spec() -> DeviceSpec:
    """A small fixed device so the micro loop is fast and stable."""
    mib = 1024 * 1024
    return DeviceSpec(
        name="MicroBench",
        soc="micro",
        ram_bytes=256 * mib,  # managed = 2048 simulated pages
        cores=8,
        android_version=10,
        storage=StorageSpec(kind="UFS", read_ms=0.5, write_ms=1.0),
        zram_bytes=64 * mib,  # 1024 simulated pages
        high_watermark_pages=192,
        memory_scale=16,
        system_reserved_frac=0.5,
    )


def _micro_mm(clock: _Clock) -> MemoryManager:
    """A memory manager (and so a page slab) private to one microbench."""
    spec = _micro_spec()
    zram = ZramDevice(
        capacity_pages=spec.zram_pages,
        compression_ratio=spec.zram_compression_ratio,
        compress_ms=spec.zram_compress_ms,
        decompress_ms=spec.zram_decompress_ms,
    )
    mm = MemoryManager(spec, zram, FlashDevice(spec.storage), clock=clock)
    mm.sim = clock
    return mm


def fault_loop_micro(iterations: int = 60_000) -> Dict[str, object]:
    """Fused fault→reclaim→refault loop; returns the measured rate."""
    clock = _Clock()
    mm = _micro_mm(clock)
    spec = mm.spec
    handler = PageFaultHandler(mm)
    # Emulated kswapd: the waker sets a flag and the loop shrinks while
    # free memory sits below the low watermark, like the real daemon's
    # quantum — without it every page would carry a fresh young bit and
    # second chance would starve direct reclaim of victims.
    kswapd_needed = [False]

    def waker() -> None:
        kswapd_needed[0] = True

    mm.kswapd_waker = waker
    # Footprint 25% over managed memory: the round-robin sweep cannot
    # fit, so the loop perpetually allocates, reclaims, evicts to
    # zram/flash, and refaults through ``handle_id``.
    count = int(mm.managed_pages * 1.25)
    anon_count = count - count // 4
    ids = list(mm.slab.alloc_block(anon_count, KIND_ANON, HEAP_NATIVE))
    ids += list(mm.slab.alloc_block(count - anon_count, KIND_FILE, HEAP_NONE))
    n = len(ids)
    handle_id = handler.handle_id
    pos = 0
    start = time.perf_counter()
    for _ in range(iterations):
        handle_id(ids[pos], 1, 10_000, True, False)
        if kswapd_needed[0]:
            mm.shrink(64, direct=False)
            if not mm.below_low:
                kswapd_needed[0] = False
        clock.now += 0.01
        pos += 1
        if pos == n:
            pos = 0
    wall_s = time.perf_counter() - start
    return {
        "iterations": iterations,
        "footprint_pages": n,
        "device": spec.name,
        "page_faults": mm.vmstat.pgfault,
        "refaults": mm.vmstat.refault_total,
        "reclaimed": mm.vmstat.pgsteal_kswapd + mm.vmstat.pgsteal_direct,
        "wall_s": round(wall_s, 4),
        "iters_per_sec": round(iterations / wall_s) if wall_s > 0 else 0,
    }


def run_micro() -> Dict[str, object]:
    """Run both microbenches; returns the artifact's ``micro`` section."""
    return {
        "lru": lru_micro(),
        "fault_loop": fault_loop_micro(),
    }
