"""The page-fault path (§2.1, §4.2.1).

A fault on a non-present page either:

* finds a shadow entry → **refault**: the page was reclaimed earlier and
  is now demanded back.  Anonymous pages are decompressed from ZRAM
  (CPU cost); file pages are re-read from flash (synchronous block I/O,
  subject to queue congestion).  The refault event is published on the
  workingset bus, where RPF listens.
* finds no shadow entry → first touch (demand paging / new allocation).

Either way the page must be made resident, which can itself trigger
direct reclaim — the amplification loop behind refault-induced memory
thrashing.

``handle_id`` is the **fused** fault→reclaim→refault loop body: it
resolves a fault on a page id of the memory manager's slab without
constructing a :class:`FaultOutcome`, a :class:`RefaultEvent` (unless
observers are subscribed), or an ``AllocationOutcome`` (unless direct
reclaim actually runs) — the refault resolution, allocation,
contention-charge, watermark-check, and young-bit updates are inlined
as flag-column bit ops, in the order the unfused chain ran them, which
is what keeps paper metrics bit-identical.

``handle`` takes a :class:`~repro.kernel.page.Page` view and returns a
:class:`FaultOutcome`.  Nothing in the simulator calls it; it stays
because the benchmark's ``--trace 1`` mode wraps both ``handle`` and
``handle_id`` by name (``perfbench/tracing.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.kernel.mm import (
    ALLOC_CONTENTION_CAP_MS,
    ALLOC_CONTENTION_HIGH_MS,
    ALLOC_CONTENTION_LOW_MS,
    AllocationOutcome,
    MemoryManager,
    OutOfMemoryError,
)
from repro.kernel.page import Page
from repro.kernel.slab import DIRTY, HEAP_JAVA, KIND_FILE, PRESENT, REFERENCED
from repro.kernel.workingset import RefaultEvent


@dataclass(slots=True)
class FaultOutcome:
    """What one fault cost the faulting task.

    CPU-side costs (``service_ms``: trap overhead, ZRAM decompression,
    direct-reclaim stalls) accumulate across faults, while flash reads
    are represented by the absolute completion time of the bio
    (``io_complete_at``): a task faulting through a batch of pages
    blocks until the *last* read completes, it does not pay each
    read's queue wait separately.
    """

    service_ms: float = 0.0  # CPU-side cost
    io_complete_at: Optional[float] = None  # absolute bio completion time
    major: bool = False
    refault: Optional[RefaultEvent] = None
    direct_reclaims: int = 0

    def blocking_ms(self, now: float) -> float:
        """Total time the faulting task is off-CPU for this fault alone."""
        io_wait = max(0.0, (self.io_complete_at or now) - now)
        return self.service_ms + io_wait


class PageFaultHandler:
    """Resolves faults against the memory manager and storage devices."""

    # Fixed fault-entry overhead (trap, PTE walk), in ms.
    FAULT_OVERHEAD_MS = 0.002

    def __init__(self, mm: MemoryManager):
        self.mm = mm
        # Optional tracing hook (repro.trace.Tracer); None when disabled.
        self.tracer = None
        # Optional PSI hook (repro.obs.psi.PsiMonitor): the fault path is
        # the richest stall site — it knows the uid and FG/BG context —
        # so refault swap-ins, flash read waits, and direct-reclaim
        # stalls are all charged to pressure from here.
        self.psi = None
        # pid → package, maintained by the system layer so refault
        # instants can attribute the faulting app by name.
        self.pid_names: dict = {}

    def handle(
        self,
        page: Page,
        pid: int,
        uid: int,
        foreground: bool,
        write: bool = False,
    ) -> FaultOutcome:
        """Fault ``page`` in on behalf of process ``pid``/``uid``.

        Raises :class:`OutOfMemoryError` if memory cannot be found even
        with direct reclaim (the Android layer then runs the LMK).

        A wrapper over :meth:`handle_id` that packages the result as a
        :class:`FaultOutcome` (with the refault event, if any).  Kept
        for the benchmark's trace hooks, which wrap it by name; the
        simulator itself only calls :meth:`handle_id`.
        """
        service_ms, io_complete_at, distance, direct_reclaims = self.handle_id(
            page.page_id, pid, uid, foreground, write
        )
        outcome = FaultOutcome(
            service_ms=service_ms,
            io_complete_at=io_complete_at,
            direct_reclaims=direct_reclaims,
            # Major faults touch a backing store: refaults (zram or
            # flash) and first-touch file reads (flash).
            major=distance >= 0 or io_complete_at is not None,
        )
        if distance >= 0:
            outcome.refault = RefaultEvent(
                time_ms=self.mm.clock(),
                page=page,
                pid=pid,
                uid=uid,
                foreground=foreground,
                refault_distance=distance,
            )
        return outcome

    def handle_id(
        self,
        i: int,
        pid: int,
        uid: int,
        foreground: bool,
        write: bool = False,
    ) -> Tuple[float, Optional[float], int, int]:
        """Fused fault resolution on a raw slab id.

        Returns ``(service_ms, io_complete_at, refault_distance,
        direct_reclaims)`` — ``refault_distance`` is ``-1`` for a
        first-touch fault.  Raises :class:`OutOfMemoryError` exactly
        like :meth:`handle`.
        """
        mm = self.mm
        slab = mm.slab
        flags = slab.flags
        f = flags[i]
        is_file = slab.kind[i] == KIND_FILE
        if f & PRESENT:
            # Spurious fault (racing thread already resolved it).
            if write and is_file:
                flags[i] = f | REFERENCED | DIRTY
            else:
                flags[i] = f | REFERENCED
            return self.FAULT_OVERHEAD_MS, None, -1, 0

        sim = mm.sim
        now = sim.now if sim is not None else mm.clock()
        service_ms = self.FAULT_OVERHEAD_MS
        vmstat = mm.vmstat
        vmstat.pgfault += 1
        psi = self.psi
        io_complete_at: Optional[float] = None

        # Inlined workingset.check_refault_id / _resolve_refault: two
        # Python frames per fault on the hottest path in the simulator.
        workingset = mm.workingset
        shadow = slab.shadow
        shadow_clock = shadow[i]
        if shadow_clock:
            shadow[i] = 0
            if workingset.shadow_entries:
                workingset.shadow_entries -= 1
            slab.refaults[i] += 1
            distance = workingset.eviction_clock - shadow_clock
            if workingset._observers:
                event = RefaultEvent(
                    time_ms=now,
                    page=slab.view(i),
                    pid=pid,
                    uid=uid,
                    foreground=foreground,
                    refault_distance=distance,
                )
                for observer in list(workingset._observers):
                    observer(event)
        else:
            distance = -1
        if distance >= 0:
            # --- refault accounting ------------------------------------
            vmstat.refault_total += 1
            if foreground:
                vmstat.refault_fg += 1
            else:
                vmstat.refault_bg += 1
            if not is_file:
                vmstat.refault_anon += 1
                if slab.heap[i] == HEAP_JAVA:
                    vmstat.refault_java_heap += 1
                else:
                    vmstat.refault_native_heap += 1
            else:
                vmstat.refault_file += 1
            tracer = self.tracer
            if tracer is not None:
                tracer.instant(
                    "refault", pid=pid, tid=0, cat="mm", ts=now,
                    args={
                        "app": self.pid_names.get(pid, str(pid)),
                        "fg": foreground,
                        "kind": "file" if is_file else "anon",
                    },
                )
            if not is_file:
                vmstat.pswpin += 1
                swapin_ms = mm.zram.load(i)
                service_ms += swapin_ms
                # Swap-in decompression is thrashing work: Linux wraps
                # it in psi_memstall_enter/leave.
                if psi is not None:
                    psi.record("memory", swapin_ms, start=now, uid=uid,
                               full=foreground)
            else:
                io_complete_at = mm.flash.read(now, 1)
                vmstat.filein += 1
                if psi is not None:
                    wait = io_complete_at - now
                    # A refault read stalls the task on io, and — being
                    # working-set thrashing — counts as memory pressure
                    # too (the kernel's workingset-refault memstall).
                    psi.record("io", wait, start=now, uid=uid, full=foreground)
                    psi.record("memory", wait, start=now, uid=uid,
                               full=foreground)
            vmstat.pgmajfault += 1
        elif is_file:
            # Fresh file page (first touch) also needs a flash read.
            io_complete_at = mm.flash.read(now, 1)
            vmstat.filein += 1
            if psi is not None:
                psi.record("io", io_complete_at - now, start=now,
                           uid=uid, full=foreground)
            vmstat.pgmajfault += 1

        # --- make resident (active if refaulted) ----------------------
        # Refaulted pages re-enter on the active list (the kernel's
        # workingset_refault promotion); first-touch pages go inactive.
        stall_ms = 0.0
        direct_reclaims = 0
        if mm._free_pages <= mm._wm_min:
            alloc = AllocationOutcome()
            mm._ensure_headroom(alloc)  # may raise OutOfMemoryError
            stall_ms = alloc.stall_ms
            direct_reclaims = alloc.direct_reclaims
        flags[i] = (flags[i] | PRESENT) & ~REFERENCED & 0xFF
        mm._resident_pages += 1
        free = mm._free_pages - 1
        mm._free_pages = free
        vmstat.pgalloc += 1
        mm.lru.add_id(i, distance >= 0)
        # Inlined _charge_contention(pages=1).
        if free < mm._wm_high:
            if free < mm._wm_low:
                contention = min(ALLOC_CONTENTION_CAP_MS, ALLOC_CONTENTION_LOW_MS)
            else:
                contention = min(ALLOC_CONTENTION_CAP_MS, ALLOC_CONTENTION_HIGH_MS)
            stall_ms += contention
            vmstat.alloc_stall_ms += contention
        # Inlined _check_watermarks.
        if free < mm._wm_low and mm.kswapd_waker is not None:
            mm.kswapd_waker()
        service_ms += stall_ms
        if stall_ms > 0 and psi is not None:
            # Direct-reclaim + allocator-contention time charged to the
            # faulting task (§2.2.3(2)'s priority-inversion stall).
            psi.record("memory", stall_ms, start=now, uid=uid,
                       full=foreground)
        # The access itself: young bit, and dirty for a file write.
        if write and is_file:
            flags[i] |= REFERENCED | DIRTY
        else:
            flags[i] |= REFERENCED
        return service_ms, io_complete_at, distance, direct_reclaims
