"""Equivalence tests for the bulk primitives of the quantum-dispatch path.

Each bulk call replaces a per-item loop and must leave exactly the state
the loop left:

* ``RngStream.biased_picks`` draws the same ids, and consumes the same
  random bits, as ``random()`` followed by ``choice()`` per pick;
* ``LruLists.add_ids`` equals repeated ``add_id``, including where it
  stops with "already on a list";
* retiring pages with ``MemoryManager.discard_ids`` plus
  ``PageSlab.free_ids`` equals the per-page discard and per-id slab
  free they replaced (kept below as executable references).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.behavior import PageSampler
from repro.kernel.lru import LruKind, LruLists
from repro.kernel.slab import (
    HEAP_NATIVE,
    HEAP_NONE,
    HOT,
    KIND_ANON,
    KIND_FILE,
    PRESENT,
    REFERENCED,
    PageSlab,
)
from repro.sim.rng import RngStream

from tests.conftest import FakeClock, make_small_spec

# Pool sizes around the powers of two where ``getrandbits(k)`` rejection
# changes, plus empty, tiny and large pools.
SIZES = [0, 1, 2, 3, 7, 8, 9, 31, 32, 33, 255, 256, 257, 4095, 4096, 4097, 50000]


# ----------------------------------------------------------------------
# RngStream.biased_picks
# ----------------------------------------------------------------------
def _reference_picks(rng, count, hot, pool, bias):
    picks = []
    for _ in range(count):
        if hot and rng.random() < bias:
            picks.append(rng.choice(hot))
        elif pool:
            picks.append(rng.choice(pool))
    return picks


@settings(max_examples=200, deadline=None)
@given(
    n_hot=st.sampled_from(SIZES),
    n_pool=st.sampled_from(SIZES),
    bias=st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.7, 0.75]),
                   st.floats(0.0, 1.0)),
    count=st.integers(0, 150),
    seed=st.integers(0, 2**32 - 1),
)
def test_biased_picks_matches_random_then_choice(n_hot, n_pool, bias, count, seed):
    stream = RngStream(seed, "bulk-test")
    ref = random.Random(stream.seed)
    hot = list(range(10**6, 10**6 + n_hot))
    pool = list(range(n_pool))
    assert stream.biased_picks(count, hot, pool, bias) == _reference_picks(
        ref, count, hot, pool, bias
    )
    # Same number of bits consumed: the streams stay in step afterwards.
    assert stream.random() == ref.random()


def test_biased_picks_edge_cases():
    stream = RngStream(5, "edges")
    ref = random.Random(stream.seed)
    cases = [
        (20, [], [4, 5, 6], 0.9),  # empty hot pool: no coin flips
        (10, [1], [2], 1.0),  # bias 1 never falls back
        (10, [1], [2], 0.0),  # bias 0 always does, but still flips
        (10, [1, 2], [], 0.5),  # empty pool: tails pick nothing
        (10, [], [], 0.5),  # nothing to draw from: no draws at all
    ]
    for count, hot, pool, bias in cases:
        expected = _reference_picks(ref, count, hot, pool, bias)
        assert stream.biased_picks(count, hot, pool, bias) == expected
    assert stream.biased_picks(10, [1], [2], 1.0) == [1] * 10
    assert stream.biased_picks(10, [1], [2], 0.0) == [2] * 10
    assert stream.biased_picks(10, [], [], 0.5) == []


class _Table:
    def __init__(self, segments, slab):
        self.segments = segments
        self.slab = slab

    def ids_of(self, name):
        return list(self.segments[name])


class _Process:
    def __init__(self, segments, slab):
        self.page_table = _Table(segments, slab)


def _old_sample_burst_ids(sampler, rng, count, hot_bias):
    """PageSampler.sample_burst_ids before the bulk sampler."""
    picks = []
    for name, weight in sampler.BURST_MIX:
        ids = sampler._segments[name]
        if not ids:
            continue
        hot = sampler._hot_segments[name]
        for _ in range(int(count * weight)):
            if hot and rng.random() < hot_bias:
                picks.append(hot[rng._randbelow(len(hot))])
            else:
                picks.append(ids[rng._randbelow(len(ids))])
    return picks


@pytest.mark.parametrize("java,native,files", [(40, 25, 60), (0, 9, 33), (17, 0, 0)])
def test_page_sampler_draws_match_the_per_pick_loops(java, native, files):
    slab = PageSlab()
    segments = {}
    for name, size in (("java_heap", java), ("native_heap", native),
                       ("file_map", files)):
        block = slab.alloc_block(size, KIND_ANON, HEAP_NATIVE)
        for k, i in enumerate(block):
            if k % 3 == 0:
                slab.flags[i] |= HOT
        segments[name] = block
    stream = RngStream(11, f"sampler:{java}:{native}:{files}")
    ref = random.Random(stream.seed)
    sampler = PageSampler(_Process(segments, slab), stream)
    for count in (0, 1, 30, 97):
        assert sampler.sample_burst_ids(count) == _old_sample_burst_ids(
            sampler, ref, count, 0.70
        )
        assert sampler.sample_ids(count, hot_bias=0.5) == _reference_picks(
            ref, count, sampler.hot_ids, sampler.all_ids, 0.5
        )
    assert stream.random() == ref.random()


# ----------------------------------------------------------------------
# LruLists.add_ids
# ----------------------------------------------------------------------
def _orders(lru, ids):
    index = {i: k for k, i in enumerate(ids)}
    return {
        kind: [index[i] for i in lru.iter_ids(kind)] for kind in LruKind
    }, [lru.size(kind) for kind in LruKind]


@settings(max_examples=100, deadline=None)
@given(
    is_file=st.lists(st.booleans(), min_size=1, max_size=24),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["add", "add", "remove"]),
            st.lists(st.integers(0, 23), max_size=8),
            st.booleans(),
        ),
        max_size=30,
    ),
)
def test_add_ids_equals_repeated_add_id(is_file, ops):
    worlds = []
    for _ in range(2):
        slab = PageSlab()
        ids = [
            slab.alloc(KIND_FILE if f else KIND_ANON,
                       HEAP_NONE if f else HEAP_NATIVE)
            for f in is_file
        ]
        worlds.append((LruLists(slab), ids))
    (bulk, bulk_ids), (loop, loop_ids) = worlds
    n = len(is_file)
    for op, picks, active in ops:
        chunk = [k % n for k in picks]
        if op == "remove":
            for k in chunk:
                bulk.discard_id(bulk_ids[k])
                loop.discard_id(loop_ids[k])
            continue
        errors = []
        try:
            bulk.add_ids([bulk_ids[k] for k in chunk], active)
        except ValueError as exc:
            errors.append(str(exc).replace(str(bulk_ids[0]), "<id0>"))
        try:
            for k in chunk:
                loop.add_id(loop_ids[k], active)
        except ValueError as exc:
            errors.append(str(exc).replace(str(loop_ids[0]), "<id0>"))
        assert len(errors) in (0, 2)
        if errors:
            assert "already on" in errors[0] and "already on" in errors[1]
        assert _orders(bulk, bulk_ids) == _orders(loop, loop_ids)


def test_add_ids_stops_at_first_listed_page():
    slab = PageSlab()
    lru = LruLists(slab)
    ids = list(slab.alloc_block(4, KIND_ANON, HEAP_NATIVE))
    lru.add_id(ids[2])
    with pytest.raises(ValueError, match=f"page {ids[2]} already on"):
        lru.add_ids(ids, active=True)
    # The ids before the listed one went on; the one after did not.
    assert list(lru.iter_ids(LruKind.ACTIVE_ANON)) == ids[:2]
    assert list(lru.iter_ids(LruKind.INACTIVE_ANON)) == [ids[2]]
    assert not slab.lru[ids[3]]


# ----------------------------------------------------------------------
# Bulk retirement: discard_ids + free_ids
# ----------------------------------------------------------------------
def _make_mm():
    from repro.kernel.mm import MemoryManager
    from repro.storage.flash import FlashDevice
    from repro.storage.zram import ZramDevice

    spec = make_small_spec()
    zram = ZramDevice(
        capacity_pages=spec.zram_pages,
        compression_ratio=spec.zram_compression_ratio,
        compress_ms=spec.zram_compress_ms,
        decompress_ms=spec.zram_decompress_ms,
    )
    return MemoryManager(spec, zram, FlashDevice(spec.storage), clock=FakeClock())


def _build(kinds, evict, touch, release):
    """One memory manager with pages in every state a retired id can
    be in: resident on each list, compressed in zram, evicted file
    pages with a shadow entry, released, and never resident."""
    mm = _make_mm()
    slab = mm.slab
    ids = list(slab.alloc_block(len(kinds), KIND_ANON, HEAP_NATIVE, owner="o"))
    for i, is_file in zip(ids, kinds):
        if is_file:
            slab.kind[i] = KIND_FILE
    resident = ids[: len(ids) * 3 // 4]
    mm.make_resident_bulk_ids(resident)
    for k in touch:
        slab.flags[ids[k % len(ids)]] |= REFERENCED
    if evict:
        mm.shrink(evict)
    for k in release:
        i = ids[k % len(ids)]
        if slab.flags[i] & PRESENT:
            mm.discard_ids([i])
    return mm, ids


def _state(mm, ids):
    slab = mm.slab
    index = {i: k for k, i in enumerate(ids)}
    index[0] = None

    def col(column):
        return [column[i] for i in ids]

    return {
        "lists": _orders(mm.lru, ids),
        "flags": col(slab.flags),
        "lru": col(slab.lru),
        "prev": [index.get(slab.lru_prev[i], "x") for i in ids],
        "next": [index.get(slab.lru_next[i], "x") for i in ids],
        "shadow": col(slab.shadow),
        "evictions": col(slab.evictions),
        "refaults": col(slab.refaults),
        "owner": col(slab.owner),
        "free_list": list(slab.free_list),
        "zram": sorted(index[i] for i in mm.zram._slots),
        "counters": (
            mm.resident_pages, mm.free_pages, mm._pool_charge,
            mm._recompute_free_pages(), mm.zram.stored_pages,
            mm.workingset.shadow_entries, mm.workingset.eviction_clock,
        ),
        "vmstat": mm.vmstat.snapshot(),
    }


def _discard_one(mm, i):
    """The per-page release or zram/shadow drop that ``discard_ids``
    replaced."""
    slab = mm.slab
    if slab.flags[i] & PRESENT:
        slab.flags[i] &= ~PRESENT & 0xFF
        mm.lru.discard_id(i)
        mm.resident_pages -= 1
        mm.vmstat.pgfree += 1
    elif slab.shadow[i]:
        if slab.kind[i] != KIND_FILE:
            mm.zram.discard(i)
        slab.shadow[i] = 0
        ws = mm.workingset
        if ws.shadow_entries:
            ws.shadow_entries -= 1


def _free_one(slab, i):
    """The per-id ``PageSlab.free`` that ``free_ids`` replaced."""
    slab.flags[i] = 0
    slab.shadow[i] = 0
    slab.evictions[i] = 0
    slab.refaults[i] = 0
    slab.owner[i] = None
    slab.free_list.append(i)


@settings(max_examples=80, deadline=None)
@given(
    kinds=st.lists(st.booleans(), min_size=1, max_size=40),
    evict=st.integers(0, 30),
    touch=st.lists(st.integers(0, 39), max_size=10),
    release=st.lists(st.integers(0, 39), max_size=4),
    retire=st.lists(st.integers(0, 39), max_size=40, unique=True),
)
def test_bulk_retirement_equals_per_page_discard_and_free(
    kinds, evict, touch, release, retire
):
    ref_mm, ref_ids = _build(kinds, evict, touch, release)
    bulk_mm, bulk_ids = _build(kinds, evict, touch, release)
    assert _state(ref_mm, ref_ids) == _state(bulk_mm, bulk_ids)
    order = [k for k in retire if k < len(kinds)]

    for k in order:
        _discard_one(ref_mm, ref_ids[k])
        _free_one(ref_mm.slab, ref_ids[k])
    ref_freed = [ref_ids.index(i) for i in ref_mm.slab.free_list]

    retired = [bulk_ids[k] for k in order]
    bulk_mm.discard_ids(retired)
    bulk_mm.slab.free_ids(retired)
    bulk_freed = [bulk_ids.index(i) for i in bulk_mm.slab.free_list]

    assert bulk_freed == ref_freed == order
    assert _state(bulk_mm, bulk_ids) == _state(ref_mm, ref_ids)


def test_discard_ids_counts_freed_resident_pages():
    """Process teardown: the bulk discard returns the resident pages it
    freed and leaves no zram slot or shadow entry behind."""
    mm, ids = _build([False, True] * 10, evict=6, touch=[], release=[1])
    resident = mm.resident_pages
    assert mm.discard_ids(ids) == resident
    assert mm.resident_pages == 0
    assert mm.zram.stored_pages == 0
    assert mm.workingset.shadow_entries == 0
    assert not any(mm.slab.shadow[i] for i in ids)
    assert mm.free_pages == mm._recompute_free_pages()
