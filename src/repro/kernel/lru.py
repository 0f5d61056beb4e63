"""Active/inactive LRU page lists with second-chance aging.

Mirrors the Linux MM layout the paper's baseline ("LRU [22]") uses:
four lists — ``{active, inactive} x {anon, file}``.  New pages enter the
inactive list; a reference observed during an inactive scan promotes
the page to the active list (second chance); active scans age pages
back down to keep the inactive list stocked.  Reclaim consumes victims
from the cold end of the inactive lists.

The lists are **intrusive doubly-linked lists** over the
``lru_prev``/``lru_next`` id columns of the memory manager's
:class:`~repro.kernel.slab.PageSlab` (the Linux ``struct page.lru``
idiom): membership moves are a handful of int-column writes, with no
per-node allocation and no ``OrderedDict`` hashing.  An
:class:`LruLists` instance owns the head/tail/size cursors and holds
the slab columns it reads in slots; hot methods bind those columns to
locals at their top.  Every operation takes page ids.

Orientation matches the previous ``OrderedDict`` implementation: the
**cold** end is the head (FIFO order of insertion), the hot end is the
tail.  Scans pop from the head and re-insert survivors at the tail, so
orderings — and therefore eviction choices and every downstream paper
metric — are bit-identical to the object-backed version.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.kernel.page import Page
from repro.kernel.slab import (
    KIND_FILE,
    LRU_ACTIVE_ANON,
    LRU_ACTIVE_FILE,
    LRU_INACTIVE_ANON,
    LRU_INACTIVE_FILE,
    REFERENCED,
    PageSlab,
)


class LruKind(enum.Enum):
    ACTIVE_ANON = "active_anon"
    INACTIVE_ANON = "inactive_anon"
    ACTIVE_FILE = "active_file"
    INACTIVE_FILE = "inactive_file"

    # Members are singletons, so identity hashing is equivalent to the
    # default name hash but skips a Python-level __hash__ frame on every
    # LRU-list dict operation.
    __hash__ = object.__hash__


# Slab ``lru`` column code <-> LruKind (index 0 = not on any list).
KIND_BY_LRU_CODE = (
    None,
    LruKind.ACTIVE_ANON,
    LruKind.INACTIVE_ANON,
    LruKind.ACTIVE_FILE,
    LruKind.INACTIVE_FILE,
)
LRU_CODE_BY_KIND = {
    LruKind.ACTIVE_ANON: LRU_ACTIVE_ANON,
    LruKind.INACTIVE_ANON: LRU_INACTIVE_ANON,
    LruKind.ACTIVE_FILE: LRU_ACTIVE_FILE,
    LruKind.INACTIVE_FILE: LRU_INACTIVE_FILE,
}

# List-kind checks on the reclaim path use these instead of member
# lookups such as ``LruKind.INACTIVE_ANON``, which are descriptor calls
# on CPython 3.11 (see repro.sched.task).
_INACTIVE_ANON = LruKind.INACTIVE_ANON
_INACTIVE_KINDS = (_INACTIVE_ANON, LruKind.INACTIVE_FILE)
_ACTIVE_KINDS = (LruKind.ACTIVE_ANON, LruKind.ACTIVE_FILE)


class LruLists:
    """The four Linux-style page LRU lists over one slab (id-indexed)."""

    __slots__ = (
        "slab", "_head", "_tail", "_size",
        "_kind", "_flags", "_lru", "_prev", "_next",
    )

    def __init__(self, slab: PageSlab) -> None:
        self.slab = slab
        # Indexed by lru code 1..4; slot 0 unused.
        self._head = [0, 0, 0, 0, 0]
        self._tail = [0, 0, 0, 0, 0]
        self._size = [0, 0, 0, 0, 0]
        # The slab's columns, held directly: the slab only ever grows
        # them in place, so these stay valid for its whole life.
        self._kind = slab.kind
        self._flags = slab.flags
        self._lru = slab.lru
        self._prev = slab.lru_prev
        self._next = slab.lru_next

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_id(self, i: int, active: bool = False) -> None:
        """Insert page ``i`` at the hot end of its (in)active list."""
        code = self._lru[i]
        if code:
            raise ValueError(f"page {i} already on {KIND_BY_LRU_CODE[code]}")
        # anon -> codes 1/2, file -> codes 3/4.  The append is inlined:
        # this is the single most-called LRU operation (every fault
        # funnels through it).
        code = (1 if active else 2) + (2 if self._kind[i] == KIND_FILE else 0)
        tail = self._tail[code]
        self._prev[i] = tail
        self._next[i] = 0
        if tail:
            self._next[tail] = i
        else:
            self._head[code] = i
        self._tail[code] = i
        self._lru[i] = code
        self._size[code] += 1

    def add_ids(self, ids: List[int], active: bool = False) -> None:
        """:meth:`add_id` for each id in order (bulk allocation, and
        reclaim's rotate-back); stops at the first id already on a list,
        with the ids before it added."""
        kind = self._kind
        lru = self._lru
        lru_prev = self._prev
        lru_next = self._next
        head_cur = self._head
        tail_cur = self._tail
        size_cur = self._size
        base = 1 if active else 2
        for i in ids:
            code = lru[i]
            if code:
                raise ValueError(f"page {i} already on {KIND_BY_LRU_CODE[code]}")
            code = base + (2 if kind[i] == KIND_FILE else 0)
            tail = tail_cur[code]
            lru_prev[i] = tail
            lru_next[i] = 0
            if tail:
                lru_next[tail] = i
            else:
                head_cur[code] = i
            tail_cur[code] = i
            lru[i] = code
            size_cur[code] += 1

    def discard_id(self, i: int) -> None:
        """Take page ``i`` off its list; no-op when it is on none."""
        lru = self._lru
        code = lru[i]
        if not code:
            return
        lru_prev = self._prev
        lru_next = self._next
        prev = lru_prev[i]
        nxt = lru_next[i]
        if prev:
            lru_next[prev] = nxt
        else:
            self._head[code] = nxt
        if nxt:
            lru_prev[nxt] = prev
        else:
            self._tail[code] = prev
        lru[i] = 0
        self._size[code] -= 1

    def discard_ids(self, ids: Iterable[int]) -> None:
        """:meth:`discard_id` for each id in order (bulk page release)."""
        lru = self._lru
        lru_prev = self._prev
        lru_next = self._next
        head_cur = self._head
        tail_cur = self._tail
        size_cur = self._size
        for i in ids:
            code = lru[i]
            if not code:
                continue
            prev = lru_prev[i]
            nxt = lru_next[i]
            if prev:
                lru_next[prev] = nxt
            else:
                head_cur[code] = nxt
            if nxt:
                lru_prev[nxt] = prev
            else:
                tail_cur[code] = prev
            lru[i] = 0
            size_cur[code] -= 1

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------
    def scan_inactive_ids(
        self,
        kind: LruKind,
        budget: int,
        protect: Optional[Callable[[Page], bool]] = None,
    ) -> Tuple[List[int], int]:
        """Scan up to ``budget`` cold inactive pages; return eviction victims.

        Implements second chance: referenced pages are activated instead
        of evicted.  ``protect`` is the policy hook (Acclaim's FAE): it
        receives a read-only :class:`~repro.kernel.page.Page` view, and
        a protected page is rotated back rather than selected.  Victims
        are *removed* from the list; the caller must either evict them
        or re-add them.

        Returns ``(victim_ids, scanned)`` — ``scanned`` is the number of
        pages actually examined, which is less than ``budget`` when the
        list runs dry (callers charge scan CPU from it).

        Pops from the cold end with inline link surgery; survivors are
        re-appended at the tail, exactly matching the ``OrderedDict``
        pop-front/insert-back order of the reference implementation.
        """
        if kind not in _INACTIVE_KINDS:
            raise ValueError(f"scan_inactive on non-inactive list {kind}")
        code = LRU_CODE_BY_KIND[kind]
        active_code = code - 1
        victims: List[int] = []
        scanned = 0
        flags = self._flags
        lru_next = self._next
        lru_prev = self._prev
        lru_col = self._lru
        head_cur = self._head
        tail_cur = self._tail
        size_cur = self._size
        append = victims.append
        view = self.slab.view
        while scanned < budget:
            i = head_cur[code]
            if not i:
                break
            # Inline pop-head.
            nxt = lru_next[i]
            head_cur[code] = nxt
            if nxt:
                lru_prev[nxt] = 0
            else:
                tail_cur[code] = 0
            size_cur[code] -= 1
            scanned += 1
            f = flags[i]
            if f & REFERENCED:
                # Second chance: promote to the hot end of the active
                # list (inline append — this loop is the reclaim core).
                flags[i] = f & ~REFERENCED & 0xFF
                tail = tail_cur[active_code]
                lru_prev[i] = tail
                lru_next[i] = 0
                if tail:
                    lru_next[tail] = i
                else:
                    head_cur[active_code] = i
                tail_cur[active_code] = i
                lru_col[i] = active_code
                size_cur[active_code] += 1
                continue
            if protect is not None and protect(view(i)):
                # Rotate back to the hot end of this list (inline append).
                tail = tail_cur[code]
                lru_prev[i] = tail
                lru_next[i] = 0
                if tail:
                    lru_next[tail] = i
                else:
                    head_cur[code] = i
                tail_cur[code] = i
                lru_col[i] = code
                size_cur[code] += 1
                continue
            lru_col[i] = 0
            append(i)
        return victims, scanned

    def age_active(self, kind: LruKind, budget: int) -> int:
        """Move up to ``budget`` cold unreferenced active pages to inactive.

        Referenced pages get their young bit cleared and rotate to the
        hot end (they survive this aging round).  Returns the number of
        pages demoted.
        """
        if kind not in _ACTIVE_KINDS:
            raise ValueError(f"age_active on non-active list {kind}")
        code = LRU_CODE_BY_KIND[kind]
        inactive_code = code + 1
        demoted = 0
        scanned = 0
        flags = self._flags
        lru_next = self._next
        lru_prev = self._prev
        lru_col = self._lru
        head_cur = self._head
        tail_cur = self._tail
        size_cur = self._size
        while scanned < budget:
            i = head_cur[code]
            if not i:
                break
            nxt = lru_next[i]
            head_cur[code] = nxt
            if nxt:
                lru_prev[nxt] = 0
            else:
                tail_cur[code] = 0
            size_cur[code] -= 1
            scanned += 1
            f = flags[i]
            if f & REFERENCED:
                flags[i] = f & ~REFERENCED & 0xFF
                dest = code  # rotate back (survives this aging round)
            else:
                dest = inactive_code
                demoted += 1
            # Inline append at the hot end of ``dest``.
            tail = tail_cur[dest]
            lru_prev[i] = tail
            lru_next[i] = 0
            if tail:
                lru_next[tail] = i
            else:
                head_cur[dest] = i
            tail_cur[dest] = i
            lru_col[i] = dest
            size_cur[dest] += 1
        return demoted

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    def size(self, kind: LruKind) -> int:
        return self._size[LRU_CODE_BY_KIND[kind]]

    @property
    def inactive_anon(self) -> int:
        return self._size[LRU_INACTIVE_ANON]

    @property
    def active_anon(self) -> int:
        return self._size[LRU_ACTIVE_ANON]

    @property
    def inactive_file(self) -> int:
        return self._size[LRU_INACTIVE_FILE]

    @property
    def active_file(self) -> int:
        return self._size[LRU_ACTIVE_FILE]

    @property
    def total(self) -> int:
        sizes = self._size
        return sizes[1] + sizes[2] + sizes[3] + sizes[4]

    def iter_ids(self, kind: LruKind) -> Iterator[int]:
        """Cold-to-hot ids; do not mutate the list while iterating."""
        lru_next = self._next
        i = self._head[LRU_CODE_BY_KIND[kind]]
        while i:
            yield i
            i = lru_next[i]

    def needs_aging(self, kind_inactive: LruKind) -> bool:
        """Linux keeps inactive:active near 1:2 for anon and 1:1 for file;
        we age the active list when inactive falls below that share."""
        sizes = self._size
        if kind_inactive is _INACTIVE_ANON:
            return sizes[LRU_INACTIVE_ANON] * 2 < sizes[LRU_ACTIVE_ANON]
        return sizes[LRU_INACTIVE_FILE] < sizes[LRU_ACTIVE_FILE]
