"""Per-process reclaim (§3.2 study methodology).

Models the Linux per-process-reclaim patch the paper uses for the
Figure 4 study: "reclaim all file-backed and anonymous pages of the
application", then trace which pages are refaulted back within a
window.  Works directly against the memory manager, bypassing the
normal LRU scan order.
"""

from __future__ import annotations

from typing import Iterable

from repro.kernel.mm import MemoryManager, ReclaimResult
from repro.kernel.slab import DIRTY, KIND_FILE, PRESENT
from repro.storage.zram import ZramFullError


class PerProcessReclaim:
    """`/proc/<pid>/reclaim`-style targeted reclaim."""

    def __init__(self, mm: MemoryManager):
        self.mm = mm

    def reclaim_ids(self, ids: Iterable[int]) -> ReclaimResult:
        """Evict every currently-resident page among ``ids``.

        Pages that cannot go anywhere (ZRAM full) are left resident.
        """
        mm = self.mm
        flags = mm.slab.flags
        kind = mm.slab.kind
        lru = mm.lru
        result = ReclaimResult()
        now = mm.clock()
        dirty_batch = 0
        for i in ids:
            f = flags[i]
            if not f & PRESENT:
                continue
            was_dirty = kind[i] == KIND_FILE and f & DIRTY
            lru.discard_id(i)
            try:
                cost = mm._evict_page_id(i, now)
            except ZramFullError:
                lru.add_id(i, active=True)
                result.zram_full = True
                continue
            if was_dirty:
                dirty_batch += 1
            result.reclaimed += 1
            result.cpu_ms += cost
        if dirty_batch:
            mm.flash.write(now, dirty_batch)
            mm.vmstat.fileback_writeout += dirty_batch
        mm.vmstat.pgsteal_direct += result.reclaimed
        return result

    def reclaim_process(self, page_table) -> ReclaimResult:
        """Reclaim every page of one process (its whole page table)."""
        return self.reclaim_ids(page_table.all_page_ids())
