"""Per-process page tables.

A :class:`PageTable` owns the process's pages grouped by segment.  The
fault handler consults the page's ``PRESENT`` flag (the
``_PAGE_PRESENT`` analogue) and, as in the kernel, the page-fault path
can resolve the faulting process directly from the table that the
virtual address belongs to — this is how RPF attributes a refault to a
process (§4.2.1, "Process selection").

Segments store **page ids** into the slab of the system's memory
manager, which the table is given at construction.  ``build_block`` is
the only way pages come into being: a process footprint of N pages
becomes one slab block allocation per run of identical pages.
"""

from __future__ import annotations

from typing import Dict, List

from repro.kernel.page import HEAP_CODE, HeapKind, PageKind
from repro.kernel.slab import DIRTY, HOT, PRESENT, PageSlab


class Segment:
    """A named group of pages (java heap, native heap, file mappings)."""

    __slots__ = ("name", "ids")

    def __init__(self, name: str):
        self.name = name
        self.ids: List[int] = []

    def __len__(self) -> int:
        return len(self.ids)


class PageTable:
    """All virtual pages of one process, grouped into segments."""

    JAVA_HEAP = "java_heap"
    NATIVE_HEAP = "native_heap"
    FILE_MAP = "file_map"

    def __init__(self, owner: object, slab: PageSlab):
        self.owner = owner
        self.slab = slab
        self.segments: Dict[str, Segment] = {
            self.JAVA_HEAP: Segment(self.JAVA_HEAP),
            self.NATIVE_HEAP: Segment(self.NATIVE_HEAP),
            self.FILE_MAP: Segment(self.FILE_MAP),
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _segment_name(self, kind: PageKind, heap: HeapKind) -> str:
        if kind is PageKind.FILE:
            return self.FILE_MAP
        if heap is HeapKind.JAVA:
            return self.JAVA_HEAP
        return self.NATIVE_HEAP

    def build_block(
        self,
        count: int,
        kind: PageKind,
        heap: HeapKind,
        dirty: bool = False,
        hot: bool = False,
    ) -> range:
        """Create ``count`` identical pages owned by this table's
        process; returns their id range.

        One slab block allocation and one list extend — the footprint
        construction fast path.
        """
        if kind is PageKind.FILE:
            if heap is not HeapKind.NONE:
                raise ValueError("file-backed pages have no heap kind")
        elif heap is HeapKind.NONE:
            raise ValueError("anonymous pages must be tagged JAVA or NATIVE")
        flag_bits = (DIRTY if dirty else 0) | (HOT if hot else 0)
        ids = self.slab.alloc_block(
            count,
            1 if kind is PageKind.FILE else 0,
            HEAP_CODE[heap],
            owner=self.owner,
            flag_bits=flag_bits,
        )
        self.segments[self._segment_name(kind, heap)].ids.extend(ids)
        return ids

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def all_page_ids(self) -> List[int]:
        java, native, file_map = (
            self.segments[self.JAVA_HEAP].ids,
            self.segments[self.NATIVE_HEAP].ids,
            self.segments[self.FILE_MAP].ids,
        )
        return java + native + file_map

    def ids_of(self, segment_name: str) -> List[int]:
        return self.segments[segment_name].ids

    @property
    def total_pages(self) -> int:
        return sum(len(segment) for segment in self.segments.values())

    @property
    def resident_pages(self) -> int:
        return sum(self.resident_by_segment().values())

    @property
    def evicted_pages(self) -> int:
        flags = self.slab.flags
        shadow = self.slab.shadow
        count = 0
        for segment in self.segments.values():
            for i in segment.ids:
                if not flags[i] & PRESENT and shadow[i]:
                    count += 1
        return count

    def resident_by_segment(self) -> Dict[str, int]:
        flags = self.slab.flags
        return {
            name: sum(1 for i in segment.ids if flags[i] & PRESENT)
            for name, segment in self.segments.items()
        }
