"""Struct-of-arrays slab holding one memory manager's page state.

CPython objects are expensive on the fault/reclaim hot path: every
``Page`` used to be a 14-slot object (~200 bytes) whose attribute reads
each cost a dict-free but still interpreted ``LOAD_ATTR``.  At 100k+
simulated events per second the allocator, the LRU lists, and the fault
loop together touch millions of page fields per wall-second, so the
object overhead dominated the profile (see BENCH_2026-08-05.json).

This module lays that state out the way the kernel lays out
``struct page``: a **slab** of parallel columns indexed by the integer
page id.

* ``kind``/``heap``/``flags``/``lru`` are ``bytearray`` columns — one
  byte per page, C-speed indexing, no boxing.
* ``lru_prev``/``lru_next`` are int columns forming the intrusive
  doubly-linked LRU lists (:mod:`repro.kernel.lru` owns the head/tail
  cursors; id 0 is the null link, which is why real ids start at 1).
* ``shadow``/``evictions``/``refaults`` are int columns for workingset
  bookkeeping (shadow clock 0 means "no shadow entry").
* ``owner`` holds the owning process reference (duck-typed).

Every :class:`~repro.kernel.mm.MemoryManager` creates exactly one slab,
and everything that reads page state — LRU lists, workingset, fault
handler, page tables, samplers, procfs — reaches it through the memory
manager it belongs to.  Nothing here is process-global: two systems in
one process have separate slabs, separate id sequences and separate
links, so one can neither see nor clear the other's pages.

Kernel code works on raw ids.  :meth:`PageSlab.view` builds a fresh,
read-only :class:`~repro.kernel.page.Page` for the places where a
policy receives a page (the reclaim-protect hook, refault events).

Transient pages (frame-churn allocations) reuse their ids, so the
columns do not grow without bound over a long run.  In steady state
:meth:`~repro.kernel.mm.MemoryManager.recycle_ids` turns retired ids
straight into fresh ones; otherwise they go through an explicit LIFO
free list.  Freed ids must be fully retired first (not resident, not on
an LRU list, no zram slot).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:
    from repro.kernel.page import Page

# --- flag bits (``flags`` column) -------------------------------------
PRESENT = 0x01  # _PAGE_PRESENT
DIRTY = 0x02
REFERENCED = 0x04  # PTE young bit
HOT = 0x08  # working-set nucleus marker

# --- kind codes (``kind`` column) -------------------------------------
KIND_ANON = 0
KIND_FILE = 1

# --- heap codes (``heap`` column) -------------------------------------
HEAP_NONE = 0
HEAP_JAVA = 1
HEAP_NATIVE = 2

# --- lru codes (``lru`` column); 0 = not on any list ------------------
LRU_NONE = 0
LRU_ACTIVE_ANON = 1
LRU_INACTIVE_ANON = 2
LRU_ACTIVE_FILE = 3
LRU_INACTIVE_FILE = 4


class PageSlab:
    """Columnar storage for the pages of one memory manager.

    All columns are indexed by page id.  Index 0 is a permanent
    sentinel (the null link of the intrusive lists); live ids start
    at 1.
    """

    __slots__ = (
        "kind",
        "heap",
        "flags",
        "lru",
        "lru_prev",
        "lru_next",
        "shadow",
        "evictions",
        "refaults",
        "owner",
        "free_list",
        "_next_id",
    )

    def __init__(self) -> None:
        # Slot 0 is the sentinel (the null link).
        self.kind = bytearray(1)
        self.heap = bytearray(1)
        self.flags = bytearray(1)
        self.lru = bytearray(1)
        self.lru_prev: List[int] = [0]
        self.lru_next: List[int] = [0]
        self.shadow: List[int] = [0]
        self.evictions: List[int] = [0]
        self.refaults: List[int] = [0]
        self.owner: List[object] = [None]
        # Recycled ids (fully-retired transient pages), LIFO.
        self.free_list: List[int] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(
        self,
        kind_code: int,
        heap_code: int,
        flag_bits: int = 0,
        owner: object = None,
    ) -> int:
        """Allocate one page slot; returns its id."""
        free = self.free_list
        if free:
            i = free.pop()
            self.kind[i] = kind_code
            self.heap[i] = heap_code
            self.flags[i] = flag_bits
            self.owner[i] = owner
            return i
        i = self._next_id
        self._next_id = i + 1
        self.kind.append(kind_code)
        self.heap.append(heap_code)
        self.flags.append(flag_bits)
        self.lru.append(0)
        self.lru_prev.append(0)
        self.lru_next.append(0)
        self.shadow.append(0)
        self.evictions.append(0)
        self.refaults.append(0)
        self.owner.append(owner)
        return i

    def alloc_block(
        self,
        count: int,
        kind_code: int,
        heap_code: int,
        owner: object = None,
        flag_bits: int = 0,
    ) -> range:
        """Allocate ``count`` contiguous slots in one shot.

        This is the bulk path for process-footprint construction: every
        column grows by one C-level extend instead of ``count`` Python
        loop iterations.  The free list is deliberately not consulted —
        block ids must be contiguous.  Returns the ``range`` of new ids.
        """
        if count <= 0:
            return range(0, 0)
        first = self._next_id
        self._next_id = first + count
        self.kind += bytes([kind_code]) * count
        self.heap += bytes([heap_code]) * count
        self.flags += bytes([flag_bits]) * count
        pad = b"\x00" * count
        self.lru += pad
        zeros = [0] * count
        self.lru_prev += zeros
        self.lru_next += zeros
        self.shadow += zeros
        self.evictions += zeros
        self.refaults += zeros
        self.owner += [owner] * count
        return range(first, first + count)

    def free_ids(self, ids: List[int]) -> None:
        """Recycle fully-retired ids (transient-page teardown), in order.

        The caller must have already made each page non-resident, taken
        it off any LRU list, and dropped its zram slot / shadow entry
        (:meth:`~repro.kernel.mm.MemoryManager.discard_ids`).
        """
        flags = self.flags
        shadow = self.shadow
        evictions = self.evictions
        refaults = self.refaults
        owner = self.owner
        for i in ids:
            flags[i] = 0
            shadow[i] = 0
            evictions[i] = 0
            refaults[i] = 0
            owner[i] = None
        self.free_list += ids

    def view(self, i: int) -> "Page":
        """A fresh read-only :class:`~repro.kernel.page.Page` view of ``i``."""
        return _page.Page(self, i)


# Imported last: repro.kernel.page imports this module's constants.
from repro.kernel import page as _page  # noqa: E402
