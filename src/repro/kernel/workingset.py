"""Working-set shadow entries and refault tracking (§2.1, §4.2.1).

When a page is evicted the kernel leaves a *shadow entry* behind,
recording the eviction "clock" (a counter of evictions so far).  When a
later fault hits that page, the difference between the current clock and
the recorded one is the **refault distance** — how many other pages were
evicted in between.  The paper's RPF uses exactly this interface
(``shadow_entry``) to detect refault events in near real time; the
:class:`WorkingSet` here exposes the same event stream via observer
callbacks.

Shadow entries live in the ``shadow`` column of the memory manager's
:class:`~repro.kernel.slab.PageSlab` (clock value, 0 = no entry), so
shedding only ever sees the pages of its own system.  Like the kernel's
``workingset_shadow_shrinker``, the column is **byte-accounted**: each live entry is charged
:data:`SHADOW_ENTRY_BYTES` against ``shadow_budget_bytes``, and when
the budget is exceeded the oldest-clock entries are shed (they encode
the least useful refault distances).  Shed entries are counted in
``vmstat.workingset_shadow_shed``; a page whose shadow was shed
refaults as a plain first-touch fault, exactly like a real kernel after
shadow-node reclaim.  The default budget (4 MiB ≈ 262k entries) is far
above what any bench scenario accumulates, so paper metrics are
unaffected unless a cap is configured deliberately.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.kernel.page import Page
from repro.kernel.slab import PageSlab

# Modelled memory cost of one shadow entry.  In Linux a shadow entry is
# one xarray slot plus its amortised share of the xa_node — of the same
# order.  Here it covers the slab's shadow-column slot for the id.
SHADOW_ENTRY_BYTES = 16

# Default cap on shadow-entry memory.  Deliberately generous: bench
# scenarios peak far below it, so shedding never fires there and the
# determinism gate stays bit-identical; long-lived serve workers are
# still bounded.
DEFAULT_SHADOW_BUDGET_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class RefaultEvent:
    """One detected refault, delivered to observers (e.g. RPF)."""

    time_ms: float
    page: Page
    pid: int
    uid: int
    foreground: bool
    refault_distance: int

    @property
    def background(self) -> bool:
        return not self.foreground


class WorkingSet:
    """Shadow-entry bookkeeping plus the refault-event bus."""

    def __init__(
        self,
        slab: PageSlab,
        shadow_budget_bytes: Optional[int] = DEFAULT_SHADOW_BUDGET_BYTES,
        vmstat=None,
    ) -> None:
        self.slab = slab
        self.eviction_clock: int = 0
        self._observers: List[Callable[[RefaultEvent], None]] = []
        #: Byte cap on live shadow entries; ``None`` disables shedding.
        self.shadow_budget_bytes = shadow_budget_bytes
        #: Live entries *recorded through this instance* (clamped at zero
        #: so a column written directly cannot wedge the accounting).
        self.shadow_entries: int = 0
        #: Total entries shed to stay under budget.
        self.shadow_shed_total: int = 0
        # Optional VmStat to mirror shed counts into (wired by the MM).
        self.vmstat = vmstat

    # ------------------------------------------------------------------
    # Observer registration (RPF subscribes here)
    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[RefaultEvent], None]) -> None:
        self._observers.append(callback)

    def unsubscribe(self, callback: Callable[[RefaultEvent], None]) -> None:
        self._observers.remove(callback)

    # ------------------------------------------------------------------
    # Eviction / fault hooks called by the MM layer
    # ------------------------------------------------------------------
    def record_eviction_id(self, i: int) -> None:
        """Install a shadow entry for page ``i`` leaving memory."""
        clock = self.eviction_clock + 1
        self.eviction_clock = clock
        slab = self.slab
        if not slab.shadow[i]:
            self.shadow_entries += 1
        slab.shadow[i] = clock
        slab.evictions[i] += 1
        budget = self.shadow_budget_bytes
        if budget is not None and self.shadow_entries * SHADOW_ENTRY_BYTES > budget:
            self._shed_oldest()

    def _shed_oldest(self) -> None:
        """Drop the oldest-clock shadow entries to get back under budget.

        Sheds down to 7/8 of the cap in one O(column) pass so the scan
        cost amortises over many evictions rather than firing per
        eviction at the boundary.
        """
        budget = self.shadow_budget_bytes
        target = (budget // SHADOW_ENTRY_BYTES) * 7 // 8
        excess = self.shadow_entries - target
        if excess <= 0:
            return
        shadow = self.slab.shadow
        oldest = heapq.nsmallest(
            excess,
            ((clock, i) for i, clock in enumerate(shadow) if clock),
        )
        for _, i in oldest:
            shadow[i] = 0
        shed = len(oldest)
        self.shadow_entries -= shed
        if self.shadow_entries < 0:
            self.shadow_entries = 0
        self.shadow_shed_total += shed
        if self.vmstat is not None:
            self.vmstat.workingset_shadow_shed += shed

    def _resolve_refault(self, i: int) -> int:
        """Clear ``i``'s shadow entry; return the refault distance
        (``-1`` when there is no entry, i.e. a first-touch fault)."""
        slab = self.slab
        clock = slab.shadow[i]
        if not clock:
            return -1
        slab.shadow[i] = 0
        if self.shadow_entries:
            self.shadow_entries -= 1
        slab.refaults[i] += 1
        return self.eviction_clock - clock

    def check_refault_id(
        self, now_ms: float, i: int, pid: int, uid: int, foreground: bool
    ) -> int:
        """Resolve a fault on page ``i``: with a shadow entry it is a refault.

        Clears the shadow entry and returns the refault distance (``-1``
        for a first-touch fault).  Observers get a :class:`RefaultEvent`,
        which is only materialised when some are subscribed — the common
        no-policy case allocates nothing.  The fused fault path
        (:meth:`~repro.kernel.page_fault.PageFaultHandler.handle_id`)
        inlines exactly this.
        """
        distance = self._resolve_refault(i)
        if distance >= 0 and self._observers:
            event = RefaultEvent(
                time_ms=now_ms,
                page=self.slab.view(i),
                pid=pid,
                uid=uid,
                foreground=foreground,
                refault_distance=distance,
            )
            for observer in list(self._observers):
                observer(event)
        return distance
