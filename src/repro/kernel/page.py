"""Pages and page flags.

Two reclaimable page kinds exist, mirroring §2.1 of the paper:

* **Anonymous pages** hold runtime data.  On reclaim they are compressed
  into ZRAM.  For the Figure 4 categorization study each anonymous page
  is further tagged with the heap it belongs to (Java heap vs native
  heap).
* **File-backed pages** map segments of files on flash.  Dirty ones are
  written back on reclaim; clean ones are dropped and re-read on
  refault.

A page models one *virtual* page of one process; the ``PRESENT`` flag
plays the role of the PTE ``_PAGE_PRESENT`` bit (bit-0, §4.2.1).  When a
page is evicted, :class:`~repro.kernel.workingset.WorkingSet` stores a
shadow entry so the subsequent fault can be recognised as a refault.

Page state lives in the columns of a memory manager's
:class:`~repro.kernel.slab.PageSlab`, and the kernel works on integer
page ids.  :class:`Page` exists only for the policy boundary — the
reclaim-protect hook and :class:`~repro.kernel.workingset.RefaultEvent`
hand policies a page rather than an id.  It is a read-only view built
fresh by :meth:`PageSlab.view <repro.kernel.slab.PageSlab.view>`; it
allocates nothing and cannot change the page.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.kernel.slab import (
    DIRTY,
    HEAP_JAVA,
    HEAP_NATIVE,
    HEAP_NONE,
    HOT,
    KIND_FILE,
    PRESENT,
    REFERENCED,
)


class PageKind(enum.Enum):
    ANON = "anon"
    FILE = "file"

    # Identity hash: members are singletons, and these enums key hot
    # dicts (page tables, vmstat breakdowns).
    __hash__ = object.__hash__


class HeapKind(enum.Enum):
    """Sub-categorisation of anonymous pages (paper §3.2 / Figure 4)."""

    NONE = "none"  # file-backed pages
    JAVA = "java"  # ART-managed Java heap
    NATIVE = "native"  # malloc/free native heap

    __hash__ = object.__hash__


# Code <-> enum mapping tables (index = slab column byte).
KIND_BY_CODE = (PageKind.ANON, PageKind.FILE)
HEAP_BY_CODE = (HeapKind.NONE, HeapKind.JAVA, HeapKind.NATIVE)
HEAP_CODE = {
    HeapKind.NONE: HEAP_NONE,
    HeapKind.JAVA: HEAP_JAVA,
    HeapKind.NATIVE: HEAP_NATIVE,
}


class Page:
    """Read-only view of one page of a slab (the policy-facing type)."""

    __slots__ = ("slab", "page_id")

    def __init__(self, slab, page_id: int):
        self.slab = slab
        self.page_id = page_id

    # --- identity ---------------------------------------------------------
    @property
    def kind(self) -> PageKind:
        return KIND_BY_CODE[self.slab.kind[self.page_id]]

    @property
    def is_anon(self) -> bool:
        return self.slab.kind[self.page_id] != KIND_FILE

    @property
    def is_file(self) -> bool:
        return self.slab.kind[self.page_id] == KIND_FILE

    @property
    def heap(self) -> HeapKind:
        return HEAP_BY_CODE[self.slab.heap[self.page_id]]

    @property
    def owner(self) -> object:
        return self.slab.owner[self.page_id]

    # --- flag bits --------------------------------------------------------
    @property
    def present(self) -> bool:
        return bool(self.slab.flags[self.page_id] & PRESENT)

    @property
    def dirty(self) -> bool:
        return bool(self.slab.flags[self.page_id] & DIRTY)

    @property
    def referenced(self) -> bool:
        return bool(self.slab.flags[self.page_id] & REFERENCED)

    @property
    def hot(self) -> bool:
        return bool(self.slab.flags[self.page_id] & HOT)

    # --- LRU membership -----------------------------------------------------
    @property
    def lru(self):
        code = self.slab.lru[self.page_id]
        if not code:
            return None
        from repro.kernel.lru import KIND_BY_LRU_CODE

        return KIND_BY_LRU_CODE[code]

    # --- workingset bookkeeping ---------------------------------------------
    @property
    def shadow_eviction_clock(self) -> Optional[int]:
        clock = self.slab.shadow[self.page_id]
        return clock if clock else None

    @property
    def evictions(self) -> int:
        return self.slab.evictions[self.page_id]

    @property
    def refaults(self) -> int:
        return self.slab.refaults[self.page_id]

    @property
    def was_evicted(self) -> bool:
        """True when a shadow entry exists (next fault is a refault)."""
        return self.slab.shadow[self.page_id] != 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            flag
            for flag, on in (
                ("P", self.present),
                ("D", self.dirty),
                ("R", self.referenced),
                ("S", self.was_evicted),
            )
            if on
        )
        return f"<Page {self.page_id} {self.kind.value}/{self.heap.value} {flags}>"
