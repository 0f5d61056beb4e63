"""Content-addressed result store: budgeted memory tier + disk tier.

Results are keyed by :meth:`RunRequest.cache_key` — a hash of the
request's canonical form — so the key *is* the proof that a stored
result answers the incoming request: the simulator is deterministic,
equal inputs hash equally, and unequal inputs cannot collide into each
other's entries (modulo sha256).  Duplicate submissions are therefore
served without spawning a worker at all.

The memory tier is a size-aware LRU under a byte budget.  An unbounded
dict here is the classic slow leak — tens of entries can quietly cost
hundreds of MB of RSS on a long-lived server — so every entry is
charged its canonical-JSON size on admission, reads refresh recency,
and admission evicts from the cold end until the budget holds again.
The budget is a hard cap: an entry larger than the entire budget is
never admitted to memory (it still lands on disk).  Eviction only
forgets the *memory* copy; the content address makes that safe — an
evicted result is either re-read from the disk tier or deterministically
recomputed.

The disk tier is optional (``cache_dir``): one JSON file per key,
written atomically (temp file + ``os.replace``) so a killed server
never leaves a torn entry, and re-read lazily so a restarted server
warms itself from disk as requests arrive.

Hit/miss counters are split by tier — a single blended ``hits`` number
hides whether the disk tier is earning its I/O — and live only in a
:class:`~repro.obs.metrics.MetricsRegistry` (the server's, or a private
one): ``GET /metrics`` renders them and :meth:`ResultCache.stats` reads
them.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections import OrderedDict
from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.serve.spec import canonical_size_bytes

CACHE_SCHEMA_VERSION = 1

# Default memory-tier budget used by the serve plane (overridable via
# `repro serve --cache-budget-mb`).  Direct constructions default to
# unbounded for backward compatibility.
DEFAULT_MEMORY_BUDGET_BYTES = 64 * 1024 * 1024


class ResultCache:
    """Two-tier (budgeted-LRU memory + optional JSON-on-disk) store."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        memory_budget_bytes: Optional[int] = None,
        registry=None,
    ):
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive or None")
        self.cache_dir = cache_dir
        self.memory_budget_bytes = memory_budget_bytes
        self._memory: "OrderedDict[str, dict]" = OrderedDict()
        self._sizes: Dict[str, int] = {}
        self.memory_bytes = 0
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
        registry = registry or MetricsRegistry()
        hits = registry.counter(
            "repro_serve_cache_hits_total",
            "Result-cache hits by tier", labelnames=("tier",),
        )
        # Both tier series exist from the start, so the scrape shows
        # them at 0.
        self._memory_hits = hits.labels("memory")
        self._disk_hits = hits.labels("disk")
        self._misses = registry.counter(
            "repro_serve_cache_misses_total", "Result-cache misses",
        )
        self._evictions = registry.counter(
            "repro_serve_cache_evictions_total",
            "Memory-tier entries evicted to honor the byte budget",
        )
        registry.gauge(
            "repro_serve_cache_memory_bytes",
            "Canonical-JSON bytes held by the memory tier",
            fn=lambda: self.memory_bytes,
        )
        registry.gauge(
            "repro_serve_cache_entries",
            "Entries resident in the memory tier",
            fn=lambda: len(self._memory),
        )

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.json")

    def get(self, key: str) -> Optional[dict]:
        """The cached result document, or None (counts a hit/miss)."""
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)  # refresh LRU recency
            self._memory_hits.inc()
            return entry["result"]
        if self.cache_dir:
            entry = self._load_from_disk(key)
            if entry is not None:
                self._admit(key, entry)
                self._disk_hits.inc()
                return entry["result"]
        self._misses.inc()
        return None

    def _load_from_disk(self, key: str) -> Optional[dict]:
        try:
            with open(self._path(key)) as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            # Missing or torn/corrupt file: treat as a miss; a fresh
            # run will overwrite it atomically.
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema_version") != CACHE_SCHEMA_VERSION
            or "result" not in entry
        ):
            return None
        return entry

    def put(self, key: str, result: dict, request: Optional[dict] = None) -> None:
        """Store a result under its content address (idempotent)."""
        entry = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "key": key,
            "cached_at": time.time(),
            "request": request,
            "result": result,
        }
        self._admit(key, entry)
        if self.cache_dir:
            self._write_to_disk(key, entry)

    # ------------------------------------------------------------------
    # Memory tier: size-aware LRU under the byte budget
    # ------------------------------------------------------------------
    def _admit(self, key: str, entry: dict) -> None:
        cost = canonical_size_bytes(entry)
        if key in self._memory:
            self.memory_bytes -= self._sizes.pop(key)
            del self._memory[key]
        budget = self.memory_budget_bytes
        if budget is not None and cost > budget:
            # Larger than the whole budget: admitting it would evict
            # everything *and* still bust the cap, so it lives on disk
            # (or gets recomputed) instead.
            self._evictions.inc()
            return
        self._memory[key] = entry
        self._sizes[key] = cost
        self.memory_bytes += cost
        if budget is not None:
            while self.memory_bytes > budget and len(self._memory) > 1:
                cold_key, _ = self._memory.popitem(last=False)
                self.memory_bytes -= self._sizes.pop(cold_key)
                self._evictions.inc()

    def _write_to_disk(self, key: str, entry: dict) -> None:
        fd, tmp_path = tempfile.mkstemp(
            dir=self.cache_dir, prefix=f".{key[:16]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle)
            os.replace(tmp_path, self._path(key))
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        """Presence probe that does NOT move the hit/miss counters."""
        if key in self._memory:
            return True
        return bool(self.cache_dir) and os.path.exists(self._path(key))

    @property
    def entries(self) -> int:
        return len(self._memory)

    def stats(self) -> dict:
        memory_hits = int(self._memory_hits.value)
        disk_hits = int(self._disk_hits.value)
        misses = int(self._misses.value)
        hits = memory_hits + disk_hits
        lookups = hits + misses
        return {
            "entries": self.entries,
            "memory_bytes": self.memory_bytes,
            "memory_budget_bytes": self.memory_budget_bytes,
            "hits": hits,
            "memory_hits": memory_hits,
            "disk_hits": disk_hits,
            "misses": misses,
            "hit_rate": round(hits / lookups if lookups else 0.0, 4),
            "evictions": int(self._evictions.value),
            # Every disk hit is one load from disk.
            "disk_loads": disk_hits,
            "disk_dir": self.cache_dir,
        }
