"""Property-based equivalence: slab-backed kernel state vs a reference.

The slab refactor's contract is that the array-backed LRU lists and
workingset produce *bit-identical* behaviour to the old object-backed
implementation.  This module keeps an executable spec of that old
implementation — ``OrderedDict`` LRU lists (cold end = front) and a
dict of shadow entries — and drives both through identical random
sequences of the list and workingset operations the simulator performs
(single and bulk adds, single and bulk discards, reclaim's scan with
evict-and-rotate-back, active aging, the fault path's refault-then-add),
derived from a seed.  After every sequence the two must agree on:

* the cold-to-hot ordering of all four LRU lists,
* every victim list returned by an inactive scan,
* every refault distance, in order,
* the workingset counters (eviction clock, live shadow entries, shed
  totals) and the refault vmstat counters.

Any divergence — a list linked in the wrong order, a scan that rotates
instead of promoting, a shadow entry cleared at the wrong time — fails
with the first differing step, which is exactly the regression the
bench determinism gate would otherwise only catch downstream.
"""

import random
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.lru import LruKind, LruLists
from repro.kernel.slab import (
    HEAP_NATIVE,
    HEAP_NONE,
    KIND_ANON,
    KIND_FILE,
    REFERENCED,
    PageSlab,
)
from repro.kernel.workingset import (
    DEFAULT_SHADOW_BUDGET_BYTES,
    SHADOW_ENTRY_BYTES,
    WorkingSet,
)


# ----------------------------------------------------------------------
# Reference implementation (the pre-slab object-backed semantics)
# ----------------------------------------------------------------------
class RefState:
    """Executable spec: OrderedDict lists + dict shadow entries.

    Operates on logical page indices; the caller keeps the index ->
    slab-id mapping.  ``referenced`` mirrors the young bit, which the
    slab implementation stores in the flags column.
    """

    ACTIVE_ANON, INACTIVE_ANON, ACTIVE_FILE, INACTIVE_FILE = 1, 2, 3, 4

    def __init__(self, is_file, shadow_budget_entries=None):
        self.is_file = list(is_file)
        # code -> OrderedDict of indices; front = cold end.
        self.lists = {code: OrderedDict() for code in (1, 2, 3, 4)}
        self.referenced = [False] * len(self.is_file)
        self.shadow = {}  # index -> eviction clock
        self.clock = 0
        self.shed_total = 0
        self.budget_entries = shadow_budget_entries
        self.refault_total = 0
        self.refault_anon = 0
        self.refault_file = 0

    def _code_of(self, index):
        for code, entries in self.lists.items():
            if index in entries:
                return code
        return None

    def add(self, index, active):
        assert self._code_of(index) is None
        code = (1 if active else 2) + (2 if self.is_file[index] else 0)
        self.lists[code][index] = True

    def remove(self, index):
        code = self._code_of(index)
        if code is not None:
            del self.lists[code][index]

    def scan_inactive(self, code, budget, protected):
        """Pop-front scan with second chance; returns victim indices."""
        entries = self.lists[code]
        active_code = code - 1
        victims = []
        scanned = 0
        while scanned < budget and entries:
            index, _ = entries.popitem(last=False)
            scanned += 1
            if self.referenced[index]:
                self.referenced[index] = False
                self.lists[active_code][index] = True
            elif index in protected:
                entries[index] = True
            else:
                victims.append(index)
        return victims, scanned

    def age_active(self, code, budget):
        entries = self.lists[code]
        inactive_code = code + 1
        demoted = 0
        scanned = 0
        while scanned < budget and entries:
            index, _ = entries.popitem(last=False)
            scanned += 1
            if self.referenced[index]:
                self.referenced[index] = False
                entries[index] = True
            else:
                self.lists[inactive_code][index] = True
                demoted += 1
        return demoted

    def record_eviction(self, index):
        self.clock += 1
        self.shadow[index] = self.clock
        if (
            self.budget_entries is not None
            and len(self.shadow) > self.budget_entries
        ):
            self._shed_oldest()

    def _shed_oldest(self):
        target = self.budget_entries * 7 // 8
        excess = len(self.shadow) - target
        if excess <= 0:
            return
        # Oldest clocks first; ties cannot happen (clocks are unique).
        oldest = sorted(self.shadow.items(), key=lambda kv: kv[1])[:excess]
        for index, _ in oldest:
            del self.shadow[index]
        self.shed_total += len(oldest)

    def refault(self, index):
        """Returns the refault distance, or -1 for first touch."""
        clock = self.shadow.pop(index, None)
        if clock is None:
            return -1
        self.refault_total += 1
        if self.is_file[index]:
            self.refault_file += 1
        else:
            self.refault_anon += 1
        return self.clock - clock

    def order(self, code):
        return list(self.lists[code])


CODE_TO_KIND = {
    1: LruKind.ACTIVE_ANON,
    2: LruKind.INACTIVE_ANON,
    3: LruKind.ACTIVE_FILE,
    4: LruKind.INACTIVE_FILE,
}


def _make_world(is_file, shadow_budget_bytes=None):
    """A private slab with one page per ``is_file`` flag, plus the LRU
    lists and workingset over it."""
    slab = PageSlab()
    ids = [
        slab.alloc(KIND_FILE if kf else KIND_ANON, HEAP_NONE if kf else HEAP_NATIVE)
        for kf in is_file
    ]
    lru = LruLists(slab)
    ws = WorkingSet(slab, shadow_budget_bytes=shadow_budget_bytes)
    return slab, ids, lru, ws


def _assert_orderings_match(lru, ref, ids):
    for code, kind in CODE_TO_KIND.items():
        slab_order = list(lru.iter_ids(kind))
        ref_order = [ids[index] for index in ref.order(code)]
        assert slab_order == ref_order, f"list {kind} diverged"
        assert lru.size(kind) == len(ref.order(code))


def _drive(seed, steps, page_count, shadow_budget_entries=None):
    """Run one random op sequence through both implementations."""
    rng = random.Random(seed)
    is_file = [rng.random() < 0.5 for _ in range(page_count)]
    slab, ids, lru, ws = _make_world(
        is_file,
        shadow_budget_bytes=(
            None
            if shadow_budget_entries is None
            else shadow_budget_entries * SHADOW_ENTRY_BYTES
        ),
    )
    ref = RefState(is_file, shadow_budget_entries=shadow_budget_entries)
    protected = set()
    distances_slab = []
    distances_ref = []

    def chunk():
        return [rng.randrange(page_count) for _ in range(rng.randrange(1, 6))]

    for _ in range(steps):
        op = rng.randrange(9)
        index = rng.randrange(page_count)
        on_list = ref._code_of(index) is not None
        if op == 0 and not on_list:
            active = rng.random() < 0.5
            lru.add_id(ids[index], active)
            ref.add(index, active)
        elif op == 1:
            # Bulk allocation: distinct pages that are on no list.
            active = rng.random() < 0.5
            picks = [j for j in dict.fromkeys(chunk())
                     if ref._code_of(j) is None]
            lru.add_ids([ids[j] for j in picks], active)
            for j in picks:
                ref.add(j, active)
        elif op == 2:
            # Per-process reclaim takes a page off whatever list it is on.
            lru.discard_id(ids[index])
            ref.remove(index)
        elif op == 3:
            # Bulk release (process teardown, frame-buffer retirement).
            picks = chunk()
            lru.discard_ids([ids[j] for j in picks])
            for j in picks:
                ref.remove(j)
        elif op == 4:
            # Touch: set the young bit in both worlds.
            slab.flags[ids[index]] |= REFERENCED
            ref.referenced[index] = True
        elif op == 5:
            # Flip protection (the reclaim_protect policy hook).
            if index in protected:
                protected.discard(index)
            else:
                protected.add(index)
        elif op == 6:
            # MemoryManager._evict_from: scan twice the target, evict
            # the first ``count`` victims (shadow entries), rotate the
            # rest back onto the inactive list.
            code = rng.choice((2, 4))
            count = rng.randrange(1, page_count)
            protected_ids = {ids[j] for j in protected}
            victims, scanned = lru.scan_inactive_ids(
                CODE_TO_KIND[code],
                budget=2 * count,
                protect=lambda p: p.page_id in protected_ids,
            )
            ref_victims, ref_scanned = ref.scan_inactive(
                code, 2 * count, protected
            )
            assert victims == [ids[j] for j in ref_victims]
            assert scanned == ref_scanned
            lru.add_ids(victims[count:], False)
            for j in ref_victims[count:]:
                ref.add(j, False)
            for i in victims[:count]:
                ws.record_eviction_id(i)
            for j in ref_victims[:count]:
                ref.record_eviction(j)
        elif op == 7:
            code = rng.choice((1, 3))
            budget = rng.randrange(1, 2 * page_count)
            demoted = lru.age_active(CODE_TO_KIND[code], budget=budget)
            assert demoted == ref.age_active(code, budget)
        elif op == 8 and not on_list:
            # A fault on a non-resident page: resolve the shadow entry
            # (refault distance, or first touch), then the page enters
            # the active list if it refaulted, the inactive one if not.
            distance = ws.check_refault_id(0.0, ids[index], pid=1, uid=1,
                                           foreground=False)
            distances_slab.append(distance)
            distances_ref.append(ref.refault(index))
            lru.add_id(ids[index], distance >= 0)
            ref.add(index, distances_ref[-1] >= 0)

    _assert_orderings_match(lru, ref, ids)
    assert distances_slab == distances_ref
    assert ws.eviction_clock == ref.clock
    assert ws.shadow_shed_total == ref.shed_total
    # Live shadow entries must agree; map ref indices to slab ids.
    slab_shadows = {i for i in ids if slab.shadow[i]}
    assert slab_shadows == {ids[j] for j in ref.shadow}
    assert ws.shadow_entries == len(ref.shadow)
    return ref, distances_ref


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_slab_matches_reference_implementation(seed):
    """Random op sequences: slab and reference stay in lockstep."""
    _drive(seed, steps=250, page_count=32)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_slab_matches_reference_under_shadow_shedding(seed):
    """Same lockstep with a tiny shadow budget so shedding fires."""
    _drive(seed, steps=250, page_count=32, shadow_budget_entries=8)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_refault_distances_match_reference(seed):
    """Evict-then-refault heavy mix: distances agree step for step."""
    rng = random.Random(seed)
    is_file = [rng.random() < 0.5 for _ in range(16)]
    _, ids, lru, ws = _make_world(is_file, DEFAULT_SHADOW_BUDGET_BYTES)
    ref = RefState(is_file)
    for _ in range(400):
        index = rng.randrange(16)
        if ref._code_of(index) is None:
            lru.add_id(ids[index])
            ref.add(index, False)
            continue
        # Evict it (pull off the list, install a shadow entry) ...
        lru.discard_id(ids[index])
        ref.remove(index)
        ws.record_eviction_id(ids[index])
        ref.record_eviction(index)
        # ... and refault it with probability 1/2, possibly much later.
        if rng.random() < 0.5:
            distance = ws.check_refault_id(
                0.0, ids[index], pid=1, uid=1, foreground=False
            )
            assert distance == ref.refault(index)
    assert ws.eviction_clock == ref.clock
    assert ws.shadow_entries == len(ref.shadow)
