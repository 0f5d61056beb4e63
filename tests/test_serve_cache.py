"""Tests for the content-addressed result cache (`repro.serve.cache`)."""

import json
import os

from repro.serve.cache import CACHE_SCHEMA_VERSION, ResultCache
from repro.serve.spec import RunRequest

KEY = RunRequest(scenario="S-A", seconds=2.0, seed=7).cache_key()
RESULT = {"fps": 45.75, "refault": 0}


def test_memory_round_trip_and_counters():
    cache = ResultCache()
    assert cache.get(KEY) is None
    cache.put(KEY, RESULT)
    assert KEY in cache
    assert cache.get(KEY) == RESULT
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["hit_rate"] == 0.5
    assert stats["entries"] == 1


def test_contains_does_not_move_counters():
    cache = ResultCache()
    cache.put(KEY, RESULT)
    assert KEY in cache
    assert "0" * 64 not in cache
    stats = cache.stats()
    assert stats["hits"] == 0 and stats["misses"] == 0


def test_disk_tier_survives_restart(tmp_path):
    first = ResultCache(cache_dir=str(tmp_path))
    first.put(KEY, RESULT)
    # A second instance (fresh memory tier) warms itself from disk.
    second = ResultCache(cache_dir=str(tmp_path))
    assert second.get(KEY) == RESULT
    assert second.stats()["disk_loads"] == 1
    # Now in memory: a second get doesn't re-read the file.
    assert second.get(KEY) == RESULT
    assert second.stats()["disk_loads"] == 1


def test_corrupt_disk_entry_is_a_miss(tmp_path):
    cache = ResultCache(cache_dir=str(tmp_path))
    path = os.path.join(str(tmp_path), f"{KEY}.json")
    with open(path, "w") as handle:
        handle.write("{torn json")
    assert cache.get(KEY) is None
    assert cache.stats()["misses"] == 1


def test_wrong_schema_version_is_a_miss(tmp_path):
    cache = ResultCache(cache_dir=str(tmp_path))
    path = os.path.join(str(tmp_path), f"{KEY}.json")
    with open(path, "w") as handle:
        json.dump({
            "schema_version": CACHE_SCHEMA_VERSION + 1,
            "result": RESULT,
        }, handle)
    assert cache.get(KEY) is None


def test_disk_entry_shape(tmp_path):
    cache = ResultCache(cache_dir=str(tmp_path))
    request_doc = {"scenario": "S-A"}
    cache.put(KEY, RESULT, request=request_doc)
    with open(os.path.join(str(tmp_path), f"{KEY}.json")) as handle:
        entry = json.load(handle)
    assert entry["schema_version"] == CACHE_SCHEMA_VERSION
    assert entry["key"] == KEY
    assert entry["result"] == RESULT
    assert entry["request"] == request_doc
    assert "cached_at" in entry
    # No temp files left behind.
    assert [p for p in os.listdir(str(tmp_path)) if p.endswith(".tmp")] == []


# ----------------------------------------------------------------------
# Memory-tier byte budget (size-aware LRU)
# ----------------------------------------------------------------------
def _key(i):
    return RunRequest(scenario="S-A", seconds=2.0, seed=i).cache_key()


# Entries carry a `cached_at` wall-clock stamp whose JSON length can
# jitter by a few bytes between puts, so budgets measured from a probe
# entry need a little slack to hold exactly N entries.
_SLACK = 64


def test_budget_evicts_least_recently_used_first():
    # Measure one entry's canonical cost, then budget for three.
    probe = ResultCache()
    probe.put(_key(0), RESULT)
    cost = probe.memory_bytes
    cache = ResultCache(memory_budget_bytes=3 * cost + _SLACK)
    for i in range(3):
        cache.put(_key(i), RESULT)
    assert cache.stats()["evictions"] == 0
    cache.put(_key(3), RESULT)  # over budget: coldest (_key(0)) goes
    assert cache.stats()["evictions"] == 1
    assert cache.get(_key(0)) is None
    assert cache.get(_key(1)) == RESULT
    assert cache.stats()["misses"] == 1


def test_get_refreshes_lru_recency():
    probe = ResultCache()
    probe.put(_key(0), RESULT)
    cost = probe.memory_bytes
    cache = ResultCache(memory_budget_bytes=2 * cost + _SLACK)
    cache.put(_key(0), RESULT)
    cache.put(_key(1), RESULT)
    cache.get(_key(0))  # now _key(1) is coldest
    cache.put(_key(2), RESULT)
    assert cache.get(_key(0)) == RESULT
    assert cache.get(_key(1)) is None


def test_memory_bytes_never_exceeds_budget():
    cache = ResultCache(memory_budget_bytes=1024)
    for i in range(50):
        cache.put(_key(i), {"fps": 45.75, "refault": i})
        assert cache.memory_bytes <= 1024
    assert cache.stats()["evictions"] > 0
    assert cache.stats()["memory_budget_bytes"] == 1024


def test_oversize_entry_is_never_admitted_to_memory(tmp_path):
    cache = ResultCache(cache_dir=str(tmp_path), memory_budget_bytes=64)
    big = {"trace": "x" * 4096}
    cache.put(KEY, big)
    assert cache.entries == 0
    assert cache.memory_bytes == 0
    assert cache.stats()["evictions"] == 1
    # Still served — from the disk tier.
    assert cache.get(KEY) == big
    assert cache.stats()["disk_hits"] == 1


def test_evicted_entry_reloads_from_disk_as_disk_hit(tmp_path):
    probe = ResultCache()
    probe.put(_key(0), RESULT)
    cost = probe.memory_bytes
    cache = ResultCache(cache_dir=str(tmp_path),
                        memory_budget_bytes=cost + _SLACK)
    cache.put(_key(0), RESULT)
    cache.put(_key(1), RESULT)  # evicts _key(0) from memory
    assert cache.stats()["evictions"] == 1
    assert cache.get(_key(0)) == RESULT  # disk tier recovers it
    stats = cache.stats()
    assert stats["disk_hits"] == 1
    assert stats["memory_hits"] == 0
    assert stats["hits"] == 1  # blended back-compat view


def test_tier_split_counters_in_stats(tmp_path):
    cache = ResultCache(cache_dir=str(tmp_path))
    cache.put(KEY, RESULT)
    cache.get(KEY)                       # memory hit
    fresh = ResultCache(cache_dir=str(tmp_path))
    fresh.get(KEY)                       # disk hit
    fresh.get("0" * 64)                  # miss
    assert cache.stats()["memory_hits"] == 1
    stats = fresh.stats()
    assert stats["disk_hits"] == 1
    assert stats["memory_hits"] == 0
    assert stats["misses"] == 1
    assert stats["hits"] == 1


def test_unbounded_cache_never_evicts():
    cache = ResultCache()  # memory_budget_bytes=None
    for i in range(200):
        cache.put(_key(i % 100), RESULT)
    assert cache.stats()["evictions"] == 0
    assert cache.entries == 100


def test_registry_mirrors_cache_counters():
    from repro.obs.metrics import MetricsRegistry, validate_exposition

    registry = MetricsRegistry()
    cache = ResultCache(memory_budget_bytes=1024, registry=registry)
    cache.put(KEY, RESULT)
    cache.get(KEY)
    cache.get("0" * 64)
    text = registry.render()
    validate_exposition(text)
    assert 'repro_serve_cache_hits_total{tier="memory"} 1' in text
    assert 'repro_serve_cache_hits_total{tier="disk"} 0' in text
    assert "repro_serve_cache_misses_total 1" in text
    assert "repro_serve_cache_evictions_total 0" in text
    assert "repro_serve_cache_entries 1" in text


def test_soak_thousand_runs_stays_under_budget(tmp_path):
    """ISSUE acceptance: >= 1,000 served results against a small budget
    keep the memory tier under its cap, evictions advance, and every
    result read back (memory, disk, or recompute path) is bit-identical
    to what was stored."""
    budget = 16 * 1024
    cache = ResultCache(cache_dir=str(tmp_path), memory_budget_bytes=budget)
    docs = {}
    for i in range(1000):
        key = _key(i)
        doc = {"fps": 45.75 + i, "refault": i, "events": list(range(10))}
        docs[key] = doc
        cache.put(key, doc, request={"seed": i})
        assert cache.memory_bytes <= budget
    assert cache.stats()["evictions"] > 0
    assert cache.entries < 1000  # the budget actually bit
    # Every one of the 1,000 results is still served bit-identically.
    for key, doc in docs.items():
        got = cache.get(key)
        assert got == doc
        assert json.dumps(got, sort_keys=True) == json.dumps(
            doc, sort_keys=True
        )
    assert cache.memory_bytes <= budget
    stats = cache.stats()
    assert stats["memory_hits"] + stats["disk_hits"] == 1000
    assert stats["misses"] == 0
