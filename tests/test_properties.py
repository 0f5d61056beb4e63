"""Property-based tests (hypothesis) for core data-structure invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping_table import (
    MappingTable,
    PID_ENTRY_BYTES,
    SCORE_ENTRY_BYTES,
    STATE_ENTRY_BYTES,
    UID_ENTRY_BYTES,
)
from repro.kernel.lru import LruKind, LruLists
from repro.kernel.slab import (
    HEAP_JAVA,
    HEAP_NATIVE,
    HEAP_NONE,
    KIND_ANON,
    KIND_FILE,
    REFERENCED,
    PageSlab,
)
from repro.kernel.workingset import WorkingSet
from repro.metrics.stats import percentile
from repro.sim.engine import Simulator
from repro.storage.block import BlockQueue, IoDirection
from repro.storage.zram import ZramDevice, ZramFullError


# ----------------------------------------------------------------------
# LRU invariants under arbitrary operation sequences
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["add", "add_active", "discard", "scan",
                                   "age", "touch"]),
                  st.integers(min_value=0, max_value=19)),
        max_size=120,
    )
)
def test_lru_membership_invariants(ops):
    slab = PageSlab()
    lru = LruLists(slab)
    ids = [
        slab.alloc(KIND_ANON if i % 2 else KIND_FILE,
                   HEAP_NATIVE if i % 2 else HEAP_NONE)
        for i in range(20)
    ]
    on_list = set()
    for op, index in ops:
        i = ids[index]
        if op in ("add", "add_active") and i not in on_list:
            lru.add_id(i, active=op == "add_active")
            on_list.add(i)
        elif op == "discard":
            lru.discard_id(i)
            on_list.discard(i)
        elif op == "scan":
            kind = (LruKind.INACTIVE_ANON, LruKind.INACTIVE_FILE)[index % 2]
            victims, _ = lru.scan_inactive_ids(kind, budget=index + 1)
            on_list.difference_update(victims)
        elif op == "age":
            kind = (LruKind.ACTIVE_ANON, LruKind.ACTIVE_FILE)[index % 2]
            lru.age_active(kind, budget=index + 1)
        elif op == "touch":
            slab.flags[i] |= REFERENCED
    # Invariant 1: totals match tracked membership.
    assert lru.total == len(on_list)
    # Invariant 2: every on-list page knows its list, off-list pages don't.
    for i in ids:
        assert (slab.view(i).lru is not None) == (i in on_list)
    # Invariant 3: anon pages never sit on file lists and vice versa.
    for kind in (LruKind.ACTIVE_ANON, LruKind.INACTIVE_ANON):
        assert all(slab.view(i).is_anon for i in lru.iter_ids(kind))
    for kind in (LruKind.ACTIVE_FILE, LruKind.INACTIVE_FILE):
        assert all(slab.view(i).is_file for i in lru.iter_ids(kind))


@settings(max_examples=40, deadline=None)
@given(budget=st.integers(min_value=1, max_value=40),
       referenced=st.lists(st.booleans(), min_size=1, max_size=40))
def test_lru_scan_conserves_pages(budget, referenced):
    """Scanning never loses or duplicates pages."""
    slab = PageSlab()
    lru = LruLists(slab)
    ids = []
    for flag in referenced:
        i = slab.alloc(KIND_ANON, HEAP_JAVA, REFERENCED if flag else 0)
        lru.add_id(i)
        ids.append(i)
    victims, scanned = lru.scan_inactive_ids(LruKind.INACTIVE_ANON, budget=budget)
    assert scanned == min(budget, len(ids))
    assert len(victims) + lru.total == len(ids)
    assert len(set(victims)) == len(victims)
    # Referenced pages are never evicted (second chance).
    assert not any(referenced[ids.index(i)] for i in victims)


# ----------------------------------------------------------------------
# ZRAM pool accounting
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(["store", "load", "discard"]),
                              st.integers(min_value=0, max_value=30)),
                    max_size=100))
def test_zram_pool_never_exceeds_capacity(ops):
    zram = ZramDevice(capacity_pages=16, compression_ratio=2.0)
    stored = set()
    for op, slot in ops:
        if op == "store" and slot not in stored:
            try:
                zram.store(slot)
                stored.add(slot)
            except ZramFullError:
                assert len(stored) == 16
        elif op == "load" and slot in stored:
            zram.load(slot)
            stored.discard(slot)
        elif op == "discard":
            zram.discard(slot)
            stored.discard(slot)
    assert zram.stored_pages == len(stored)
    assert 0 <= zram.pool_pages() <= zram.capacity_pages
    assert zram.free_slots == 16 - len(stored)


# ----------------------------------------------------------------------
# Block queue: completions are monotone and never precede issue
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(requests=st.lists(
    st.tuples(st.floats(min_value=0, max_value=100),
              st.integers(min_value=1, max_value=20),
              st.booleans()),
    min_size=1, max_size=40))
def test_block_queue_completion_order(requests):
    """Completions are FIFO within each lane and never precede issue."""
    queue = BlockQueue("q", read_ms_per_page=0.5, write_ms_per_page=1.0)
    now = 0.0
    last_completion = {IoDirection.READ: 0.0, IoDirection.WRITE: 0.0}
    for delay, pages, is_write in requests:
        now += delay
        direction = IoDirection.WRITE if is_write else IoDirection.READ
        complete = queue.submit(now, direction, pages)
        assert complete >= now + queue.service_time(direction, pages)
        assert complete >= last_completion[direction]
        last_completion[direction] = complete


# ----------------------------------------------------------------------
# Working set: refault distance is exact
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(interleaved=st.integers(min_value=0, max_value=200))
def test_refault_distance_exact(interleaved):
    slab = PageSlab()
    ws = WorkingSet(slab)
    target = slab.alloc(KIND_ANON, HEAP_JAVA)
    ws.record_eviction_id(target)
    for _ in range(interleaved):
        ws.record_eviction_id(slab.alloc(KIND_ANON, HEAP_JAVA))
    distance = ws.check_refault_id(0.0, target, pid=1, uid=1, foreground=False)
    assert distance == interleaved


# ----------------------------------------------------------------------
# Mapping table byte accounting matches the paper's formula exactly
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(layout=st.lists(st.integers(min_value=1, max_value=5),
                       min_size=0, max_size=12))
def test_mapping_table_bytes_formula(layout):
    table = MappingTable(capacity_bytes=10 ** 9)
    pid = 1
    for app_index, nprocs in enumerate(layout):
        pids = list(range(pid, pid + nprocs))
        pid += nprocs
        table.register_app(uid=20000 + app_index, package=f"a{app_index}",
                           pids=pids)
    total_procs = sum(layout)
    expected = len(layout) * UID_ENTRY_BYTES + total_procs * (
        PID_ENTRY_BYTES + STATE_ENTRY_BYTES + SCORE_ENTRY_BYTES
    )
    assert table.memory_bytes == expected


# ----------------------------------------------------------------------
# Simulator: events always execute in timestamp order
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=1000.0),
                       min_size=1, max_size=50))
def test_simulator_executes_in_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run_until(2000.0)
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# ----------------------------------------------------------------------
# Percentile: bounded by min/max and monotone in pct
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                 allow_nan=False), min_size=1, max_size=50),
       p=st.floats(min_value=0, max_value=100),
       q=st.floats(min_value=0, max_value=100))
def test_percentile_bounds_and_monotonicity(values, p, q):
    lo, hi = min(p, q), max(p, q)
    assert min(values) <= percentile(values, lo) <= max(values)
    # Allow float-interpolation noise at the 1e-9 scale.
    tolerance = 1e-9 * (1.0 + abs(percentile(values, hi)))
    assert percentile(values, lo) <= percentile(values, hi) + tolerance
