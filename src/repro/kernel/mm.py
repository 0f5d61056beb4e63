"""The memory manager: allocation, watermarks, eviction, reclaim.

This is the junction where the paper's problem lives.  Free memory is
``managed - resident - zram_pool``; when it drops below the **low**
watermark kswapd is woken (asynchronous background reclaim), and when an
allocation finds it below the **min** watermark the allocating task
performs **direct reclaim** itself — non-preemptively, which is the
priority-inversion path of §2.2.3(2): a foreground frame-rendering task
can be stuck reclaiming pages that background refaults keep pulling
back.

Eviction routes anonymous pages to ZRAM (compression CPU charged to the
reclaiming context) and dirty file pages to flash write-back (device
occupancy charged to the block queue); clean file pages are dropped.
Every eviction installs a shadow entry so the next touch registers as a
refault.

The memory manager owns the system's page state: it creates the
:class:`~repro.kernel.slab.PageSlab`, and its LRU lists, workingset,
fault handler and the processes' page tables all index that one slab.
Every operation takes slab page ids — flag-column bit ops instead of
object attribute access; the only page objects are the read-only views
handed to the policy's reclaim-protect hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

from repro.devices.specs import DeviceSpec
from repro.kernel.lru import LruKind, LruLists
from repro.kernel.page import Page
from repro.kernel.slab import (
    DIRTY,
    HEAP_NATIVE,
    KIND_ANON,
    KIND_FILE,
    LRU_ACTIVE_ANON,
    LRU_ACTIVE_FILE,
    LRU_INACTIVE_ANON,
    LRU_INACTIVE_FILE,
    PRESENT,
    REFERENCED,
    PageSlab,
)
from repro.kernel.vmstat import VmStat
from repro.kernel.workingset import SHADOW_ENTRY_BYTES, WorkingSet
from repro.storage.flash import FlashDevice
from repro.storage.zram import ZramDevice, ZramFullError
from repro.trace.tracer import DIRECT_RECLAIM_TID, KERNEL_PID


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation cannot be satisfied even after reclaim.

    The Android layer catches this and invokes the low-memory killer.
    """


@dataclass(slots=True)
class ReclaimResult:
    """Outcome of one reclaim pass."""

    reclaimed: int = 0
    scanned: int = 0
    cpu_ms: float = 0.0
    io_wait_ms: float = 0.0
    zram_full: bool = False

    def merge(self, other: "ReclaimResult") -> None:
        self.reclaimed += other.reclaimed
        self.scanned += other.scanned
        self.cpu_ms += other.cpu_ms
        self.io_wait_ms += other.io_wait_ms
        self.zram_full = self.zram_full or other.zram_full


@dataclass(slots=True)
class AllocationOutcome:
    """Cost of making pages resident (charged to the allocating task)."""

    pages: int = 0
    stall_ms: float = 0.0  # direct-reclaim time, non-preemptive
    direct_reclaims: int = 0


# CPU cost model (ms per page) for the reclaim path.  Includes LRU lock
# contention, rmap walks and PTE teardown on a mobile-class SoC, where
# sustained reclaim throughput is on the order of 100 MB/s — a few
# thousand (simulated) pages per second here.  This is the regime in
# which bursty BG refault storms outlast the watermark band and push
# foreground allocations into direct reclaim (the paper's §2.2.3(2)
# priority-inversion path); one 32-page direct-reclaim batch costs
# ~10 ms, i.e. a missed vsync.
SCAN_COST_MS = 0.030
EVICT_COST_MS = 0.400
DIRECT_RECLAIM_BATCH = 16
# Rough all-in cost of reclaiming one page (scan + unmap + compress),
# used by kswapd to size its per-quantum batches.
PAGE_RECLAIM_COST_EST_MS = 1.0
# Allocator slow-path contention while reclaim is churning: zone/LRU
# lock contention, allocation retries and compaction interference make
# every allocation slower when free memory sits inside the watermark
# band.  Charged per page, capped per call (bulk allocations amortise
# lock acquisitions).
ALLOC_CONTENTION_LOW_MS = 6.0   # free in [min, low): kswapd fighting inflow
ALLOC_CONTENTION_HIGH_MS = 0.3  # free in [low, high): mild churn
ALLOC_CONTENTION_CAP_MS = 30.0
# Flags of a just-recycled frame buffer: resident, and written at once.
_FRESH_BUFFER = PRESENT | REFERENCED


# List kinds bound once: enum member lookups are descriptor calls on
# CPython 3.11 (see repro.sched.task), and every reclaim round uses them.
_INACTIVE_ANON = LruKind.INACTIVE_ANON
_INACTIVE_FILE = LruKind.INACTIVE_FILE
_ACTIVE_ANON = LruKind.ACTIVE_ANON
_ACTIVE_FILE = LruKind.ACTIVE_FILE


class MemoryManager:
    """Watermark-driven physical-memory manager for one device."""

    def __init__(
        self,
        spec: DeviceSpec,
        zram: ZramDevice,
        flash: FlashDevice,
        clock: Callable[[], float],
    ):
        self.spec = spec
        self.zram = zram
        self.flash = flash
        self.clock = clock
        # Optional direct simulator reference (set by the system layer):
        # hot paths read ``sim.now`` as an attribute instead of paying a
        # Python frame for the ``clock`` lambda on every fault/eviction.
        self.sim = None
        self.slab = PageSlab()
        self.lru = LruLists(self.slab)
        self.vmstat = VmStat()
        self.workingset = WorkingSet(self.slab, vmstat=self.vmstat)
        # Spec-derived constants, cached once: DeviceSpec is frozen and
        # these sit on the watermark-check hot path.
        self._managed_pages = spec.managed_pages
        self._wm_min = spec.min_watermark_pages
        self._wm_low = spec.low_watermark_pages
        self._wm_high = spec.high_watermark_pages
        # Free memory is maintained incrementally: residency changes go
        # through the ``resident_pages`` setter and ZRAM pool changes
        # arrive via the device's ``on_change`` observer, so ``free_pages``
        # is a plain attribute read instead of a recomputation.
        self._resident_pages = 0
        self._pool_charge = 0
        self._free_pages = self._managed_pages
        zram.on_change = self._on_zram_change
        self._on_zram_change(zram.stored_pages)
        # Policy hooks (set by the active management policy):
        # protect-from-reclaim predicate (Acclaim's FAE).  ``None`` keeps
        # the reclaim scan free of per-page view construction.
        self.reclaim_protect: Optional[Callable[[Page], bool]] = None
        # ... and the kswapd wakeup callback (wired by the system layer).
        self.kswapd_waker: Optional[Callable[[], None]] = None
        # Set by the ActivityManager so refaults can be classified FG/BG.
        self.foreground_uid: Optional[int] = None
        # Optional tracing hook (repro.trace.Tracer); None when disabled.
        self.tracer = None

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _on_zram_change(self, stored: int) -> None:
        """ZRAM observer: fold the pool charge delta into free memory."""
        charge = int(stored / self.zram.compression_ratio)
        if charge != self._pool_charge:
            self._free_pages += self._pool_charge - charge
            self._pool_charge = charge

    def _recompute_free_pages(self) -> int:
        """Free pages derived from scratch (consistency checks/tests)."""
        return (
            self.spec.managed_pages
            - self._resident_pages
            - int(self.zram.pool_pages())
        )

    @property
    def managed_pages(self) -> int:
        return self._managed_pages

    @property
    def resident_pages(self) -> int:
        return self._resident_pages

    @resident_pages.setter
    def resident_pages(self, value: int) -> None:
        self._free_pages += self._resident_pages - value
        self._resident_pages = value

    @property
    def free_pages(self) -> int:
        return self._free_pages

    @property
    def below_high(self) -> bool:
        return self._free_pages < self._wm_high

    @property
    def available_pages(self) -> int:
        """The MDT formula's S_am: free plus easily-droppable file pages."""
        return self._free_pages + self.lru.inactive_file

    def memory_pressure(self) -> float:
        """0 (idle) .. 1+ (thrashing): high-watermark over availability."""
        available = max(1, self.available_pages)
        return self.spec.high_watermark_pages / available

    # ------------------------------------------------------------------
    # Allocation / residency
    # ------------------------------------------------------------------
    def make_resident_bulk_ids(
        self, ids: Iterable[int], active: bool = False
    ) -> AllocationOutcome:
        """Make pages ``ids`` resident (fresh allocation or demand
        paging); may direct-reclaim.  The footprint/launch hot path.

        The free/resident counters and the pgalloc vmstat run in locals
        and are written back in one shot, and the LRU appends are
        batched into one :meth:`LruLists.add_ids` call; reclaim (which
        reads and mutates the real counters and scans the lists) forces
        a sync of both around each ``_ensure_headroom`` call, so the
        counters and lists at every reclaim entry and at return are
        identical to the per-page-update version.
        """
        outcome = AllocationOutcome()
        flags = self.slab.flags
        lru_add = self.lru.add_ids
        wm_min = self._wm_min
        free = self._free_pages
        resident = self._resident_pages
        pages = 0
        pending: List[int] = []
        for i in ids:
            f = flags[i]
            if f & PRESENT:
                continue
            if free <= wm_min:
                self._free_pages = free
                self._resident_pages = resident
                if pending:
                    lru_add(pending, active)
                    pending = []
                self._ensure_headroom(outcome)
                free = self._free_pages
                resident = self._resident_pages
                f = flags[i]
            flags[i] = (f | PRESENT) & ~REFERENCED & 0xFF
            resident += 1
            free -= 1
            pages += 1
            pending.append(i)
        if pending:
            lru_add(pending, active)
        self._free_pages = free
        self._resident_pages = resident
        self.vmstat.pgalloc += pages
        outcome.pages = pages
        outcome.stall_ms += self._charge_contention(pages)
        self._check_watermarks()
        return outcome

    def _charge_contention(self, pages: int) -> float:
        """Allocator slow-path latency while reclaim churns (§2.2.3(2)):
        the non-preemptive reclaim machinery slows every allocator down,
        foreground render threads included.  Returns the stall in ms."""
        free = self._free_pages
        if pages <= 0 or free >= self._wm_high:
            return 0.0
        if free < self._wm_low:
            per_page = ALLOC_CONTENTION_LOW_MS
        else:
            per_page = ALLOC_CONTENTION_HIGH_MS
        stall = min(ALLOC_CONTENTION_CAP_MS, per_page * pages)
        self.vmstat.alloc_stall_ms += stall
        return stall

    def recycle_ids(self, old_ids: List[int], owner: object) -> Optional[float]:
        """Free the retired frame buffers ``old_ids`` and allocate as many
        fresh ones to ``owner`` in one call; returns the allocator stall
        in ms, which the caller records in PSI.

        The slab's free list is LIFO, so the fresh ids are ``old_ids``
        reversed.  The effects equal :meth:`discard_ids` and
        ``slab.free_ids`` of ``old_ids``, one ``slab.alloc(KIND_ANON,
        HEAP_NATIVE, 0, owner)`` per id, :meth:`make_resident_bulk_ids`
        of the fresh ids and setting their REFERENCED bit.  That holds
        only when every retired id is resident and free memory is at
        least the min watermark, so the allocation can neither
        direct-reclaim nor OOM; otherwise this changes nothing and
        returns ``None``, and the caller takes that unfused path.
        """
        if self._free_pages < self._wm_min:
            return None
        slab = self.slab
        flags = slab.flags
        for i in old_ids:
            if not flags[i] & PRESENT:
                return None
        # The retired ids leave their lists in order and, with the
        # columns ``free_ids`` and ``alloc`` would leave, re-enter at the
        # inactive-anon tail newest first, as the LIFO free list hands
        # them back.
        lru = self.lru
        lru.discard_ids(old_ids)
        kind = slab.kind
        heap = slab.heap
        shadow = slab.shadow
        evictions = slab.evictions
        refaults = slab.refaults
        owners = slab.owner
        for i in old_ids:
            kind[i] = KIND_ANON
            heap[i] = HEAP_NATIVE
            flags[i] = _FRESH_BUFFER
            shadow[i] = 0
            evictions[i] = 0
            refaults[i] = 0
            owners[i] = owner
        lru.add_ids(old_ids[::-1])
        count = len(old_ids)
        vmstat = self.vmstat
        vmstat.pgfree += count
        vmstat.pgalloc += count
        stall = self._charge_contention(count)
        self._check_watermarks()
        return stall

    def discard_ids(self, ids: Iterable[int]) -> int:
        """Drop pages entirely, in order: free each resident page (off
        its LRU list), otherwise clear its zram slot and shadow entry.
        Process teardown and frame-buffer retirement.

        The resident, free and ``pgfree`` counters, the zram pool
        charge and the shadow-entry count are updated once per call;
        their final values equal a per-page release's.  Returns the
        number of resident pages freed.
        """
        slab = self.slab
        flags = slab.flags
        shadow = slab.shadow
        kind = slab.kind
        zram_slots = self.zram._slots
        released: List[int] = []
        slots_dropped = 0
        shadows_dropped = 0
        for i in ids:
            f = flags[i]
            if f & PRESENT:
                flags[i] = f & ~PRESENT & 0xFF
                released.append(i)
            elif shadow[i]:
                if kind[i] != KIND_FILE and i in zram_slots:
                    zram_slots.discard(i)
                    slots_dropped += 1
                shadow[i] = 0
                shadows_dropped += 1
        freed = len(released)
        if freed:
            self.lru.discard_ids(released)
            self._resident_pages -= freed
            self._free_pages += freed
            self.vmstat.pgfree += freed
        if slots_dropped:
            self._on_zram_change(len(zram_slots))
        if shadows_dropped:
            ws = self.workingset
            ws.shadow_entries = max(0, ws.shadow_entries - shadows_dropped)
        return freed

    def _ensure_headroom(self, outcome: AllocationOutcome) -> None:
        """Direct-reclaim until a page can be allocated (§2.2.3(2)).

        The stall is charged to ``outcome`` — the caller's timeline —
        because direct reclaim is non-preemptive.
        """
        # Like the kernel's try_to_free_pages loop: the allocating
        # context reclaims, non-preemptively, until the min watermark is
        # restored.  A deep deficit (a background refault storm just
        # faulted in hundreds of pages) is paid for by whoever allocates
        # next — including the foreground render thread.
        attempts = 0
        stall_entry = outcome.stall_ms
        reclaimed_total = 0
        while self._free_pages <= self._wm_min and attempts < 32:
            result = self.shrink(DIRECT_RECLAIM_BATCH, direct=True)
            outcome.stall_ms += result.cpu_ms + result.io_wait_ms
            outcome.direct_reclaims += 1
            reclaimed_total += result.reclaimed
            self.vmstat.direct_reclaim_entries += 1
            self.vmstat.direct_reclaim_stall_ms += result.cpu_ms + result.io_wait_ms
            attempts += 1
            if result.reclaimed == 0:
                if self.free_pages <= 0:
                    self.vmstat.oom_kills += 1
                    raise OutOfMemoryError(
                        f"allocation failed: free={self.free_pages}, "
                        f"resident={self.resident_pages}/{self.managed_pages}"
                    )
                break
        tracer = self.tracer
        if tracer is not None and attempts:
            stall = outcome.stall_ms - stall_entry
            tracer.complete(
                "direct_reclaim", KERNEL_PID, DIRECT_RECLAIM_TID,
                start_ms=self.clock(), dur_ms=stall,
                args={"reclaimed": reclaimed_total, "entries": attempts},
                cat="reclaim",
            )
            tracer.histogram("direct_reclaim_stall_ms").add(stall)
        if self.free_pages <= 0:
            self.vmstat.oom_kills += 1
            raise OutOfMemoryError(
                f"allocation failed: free={self.free_pages}, "
                f"resident={self.resident_pages}/{self.managed_pages}"
            )

    def _check_watermarks(self) -> None:
        if self._free_pages < self._wm_low and self.kswapd_waker is not None:
            self.kswapd_waker()

    # ------------------------------------------------------------------
    # Reclaim
    # ------------------------------------------------------------------
    def shrink(self, nr_to_reclaim: int, direct: bool = False) -> ReclaimResult:
        """Reclaim up to ``nr_to_reclaim`` pages from the inactive lists.

        Balances anon vs file proportionally to list sizes (with anon
        capped by ZRAM room), ages the active lists when the inactive
        lists run dry, and honours the policy protect hook.
        """
        result = ReclaimResult()
        remaining = nr_to_reclaim
        rounds = 0
        while remaining > 0 and rounds < 4:
            rounds += 1
            progress = self._shrink_round(remaining, result)
            if progress == 0:
                break
            remaining -= progress
        if direct:
            self.vmstat.pgsteal_direct += result.reclaimed
        else:
            self.vmstat.pgsteal_kswapd += result.reclaimed
        return result

    def _shrink_round(self, target: int, result: ReclaimResult) -> int:
        """One reclaim round over both inactive lists.

        The guards read the list sizes and the zram room directly, and
        a list whose share is zero is not visited: every kswapd quantum
        and direct-reclaim batch runs up to four rounds.
        """
        lru = self.lru
        sizes = lru._size
        # Refill inactive lists by aging active ones when needed: Linux
        # keeps inactive:active near 1:2 for anon and 1:1 for file.
        if sizes[LRU_INACTIVE_ANON] * 2 < sizes[LRU_ACTIVE_ANON]:
            aged = lru.age_active(_ACTIVE_ANON, budget=target * 2)
            result.scanned += aged
            result.cpu_ms += aged * SCAN_COST_MS
            self.vmstat.pgscan += aged
        if sizes[LRU_INACTIVE_FILE] < sizes[LRU_ACTIVE_FILE]:
            aged = lru.age_active(_ACTIVE_FILE, budget=target * 2)
            result.scanned += aged
            result.cpu_ms += aged * SCAN_COST_MS
            self.vmstat.pgscan += aged

        anon_avail = sizes[LRU_INACTIVE_ANON]
        file_avail = sizes[LRU_INACTIVE_FILE]
        total_avail = anon_avail + file_avail
        if total_avail == 0:
            return 0
        anon_share = int(round(target * anon_avail / total_avail))
        zram = self.zram
        free_slots = zram.capacity_pages - len(zram._slots)
        if free_slots < 1:
            anon_share = 0
            result.zram_full = True
        elif anon_share > free_slots:
            anon_share = free_slots
        file_share = target - anon_share

        reclaimed = 0
        if anon_share > 0:
            reclaimed += self._evict_from(_INACTIVE_ANON, anon_share, result)
        if file_share > 0:
            reclaimed += self._evict_from(_INACTIVE_FILE, file_share, result)
        return reclaimed

    def _evict_from(self, kind: LruKind, count: int, result: ReclaimResult) -> int:
        """Evict up to ``count`` (> 0) pages from the inactive list ``kind``."""
        lru = self.lru
        victims, scanned = lru.scan_inactive_ids(
            kind, budget=count * 2, protect=self.reclaim_protect
        )
        # scan_inactive removes victims from the list; only `count` of
        # them are evicted this round, the rest rotate back (still cold).
        if len(victims) > count:
            lru.add_ids(victims[count:], False)
            del victims[count:]
        # Charge the pages actually scanned — an exhausted list scans
        # fewer than the 2x budget.
        result.scanned += scanned
        result.cpu_ms += scanned * SCAN_COST_MS
        self.vmstat.pgscan += scanned
        if not victims:
            return 0
        # Per-victim eviction with the whole chain inlined
        # (_evict_page_id, zram.store + its on_change observer, and
        # workingset.record_eviction_id): the reclaim loop is the
        # second-hottest path after the fault loop, and each of those
        # frames fired once per evicted page.  Counter/float-op order
        # matches the unfused chain exactly.
        slab = self.slab
        kind_col = slab.kind
        flags = slab.flags
        shadow = slab.shadow
        evictions_col = slab.evictions
        vmstat = self.vmstat
        ws = self.workingset
        budget = ws.shadow_budget_bytes
        zram = self.zram
        zram_slots = zram._slots
        zram_capacity = zram.capacity_pages
        ratio = zram.compression_ratio
        anon_cost = EVICT_COST_MS + zram.compress_ms
        sim = self.sim
        now = sim.now if sim is not None else self.clock()
        cpu_ms = result.cpu_ms
        evicted = 0
        dirty_batch = 0
        for index, i in enumerate(victims):
            if kind_col[i] == KIND_FILE:
                f = flags[i]
                vmstat.pgsteal_file += 1
                if f & DIRTY:
                    vmstat.pgsteal_file_dirty += 1
                    dirty_batch += 1
                # Dirty pages are queued for write-back below, so the
                # page is clean afterwards.
                flags[i] = f & ~(PRESENT | REFERENCED | DIRTY) & 0xFF
                cpu_ms += EVICT_COST_MS
            else:
                # Inline zram.store, with the full-device case handled
                # as a branch instead of a raise/catch pair.
                if len(zram_slots) >= zram_capacity:
                    zram.failed_stores += 1
                    # Put this and the remaining victims back; anon
                    # reclaim is over for this round.
                    lru.add_ids(victims[index:], True)
                    result.zram_full = True
                    break
                if i in zram_slots:
                    raise ValueError(f"zram slot {i} already occupied")
                zram_slots.add(i)
                zram.stores += 1
                # Inline the on_change observer (_on_zram_change).
                charge = int(len(zram_slots) / ratio)
                if charge != self._pool_charge:
                    self._free_pages += self._pool_charge - charge
                    self._pool_charge = charge
                vmstat.pswpout += 1
                vmstat.pgsteal_anon += 1
                flags[i] &= ~(PRESENT | REFERENCED) & 0xFF
                cpu_ms += anon_cost
            self._resident_pages -= 1
            self._free_pages += 1
            # Inline workingset.record_eviction_id.
            clock = ws.eviction_clock + 1
            ws.eviction_clock = clock
            if not shadow[i]:
                ws.shadow_entries += 1
            shadow[i] = clock
            evictions_col[i] += 1
            if budget is not None and ws.shadow_entries * SHADOW_ENTRY_BYTES > budget:
                ws._shed_oldest()
            evicted += 1
        result.cpu_ms = cpu_ms
        if dirty_batch:
            # Write-back is asynchronous: it occupies the flash queue but
            # the reclaiming context does not wait for completion.
            self.flash.write(now, dirty_batch)
            vmstat.fileback_writeout += dirty_batch
        result.reclaimed += evicted
        return evicted

    def _evict_page_id(self, i: int, now: float) -> float:
        """Evict page ``i``, already off the LRU; returns CPU ms.

        The per-page form of :meth:`_evict_from`'s fused loop, for
        :class:`~repro.kernel.proc_reclaim.PerProcessReclaim`.
        """
        cost = EVICT_COST_MS
        slab = self.slab
        vmstat = self.vmstat
        is_file = slab.kind[i] == KIND_FILE
        if not is_file:
            cost += self.zram.store(i)  # may raise ZramFullError
            vmstat.pswpout += 1
            vmstat.pgsteal_anon += 1
        else:
            vmstat.pgsteal_file += 1
            if slab.flags[i] & DIRTY:
                vmstat.pgsteal_file_dirty += 1
        flags = slab.flags
        if is_file:
            # present/referenced cleared; dirty pages were queued for
            # write-back by the caller, so the page is clean afterwards.
            flags[i] &= ~(PRESENT | REFERENCED | DIRTY) & 0xFF
        else:
            flags[i] &= ~(PRESENT | REFERENCED) & 0xFF
        self._resident_pages -= 1
        self._free_pages += 1
        self.workingset.record_eviction_id(i)
        return cost
