"""Consistent-hash routing of content addresses onto serve nodes.

The coordinator must send equal requests to the same node (so the
node's *memory* cache tier earns hits; the shared disk store already
makes any node able to answer) while spreading distinct requests
evenly — and it must keep both properties as nodes join and leave.

A consistent-hash ring does exactly that: each node owns ``vnodes``
pseudo-random points on a 64-bit circle, a key routes to the first
point clockwise of its own hash, and adding or removing one node only
remaps the keys that land in that node's arcs (~1/n of the keyspace)
instead of reshuffling everything the way ``hash(key) % n`` would.

The alternative — routing each request to the shortest queue — is
discussed in DESIGN.md: it wins on instantaneous balance but destroys
cache affinity, which for a content-addressed workload is the whole
point.  Queue imbalance is handled one layer up: per-node
backpressure sheds it.

Hashes are :mod:`hashlib` sha256, *not* Python's ``hash()``: routing
must be identical across processes and interpreter runs (PYTHONHASHSEED
randomizes ``hash()``), because a node restarting must rebuild the
same ring every other fleet member computed.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Optional

DEFAULT_VNODES = 64


def stable_hash(key: str) -> int:
    """64-bit position on the ring, identical across processes."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """A consistent-hash ring of named nodes.

    ``route(key)`` is O(log(nodes * vnodes)); ``add``/``remove`` are
    O(n) rebuilds of the sorted point list, which is fine at control
    plane rates (membership changes per minute, not per request).
    """

    def __init__(self, vnodes: int = DEFAULT_VNODES):
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        self.vnodes = vnodes
        self._points: List[int] = []       # sorted ring positions
        self._owners: List[str] = []       # owner node per position
        self._nodes: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    @property
    def node_ids(self) -> List[str]:
        return sorted(self._nodes)

    # ------------------------------------------------------------------
    def add(self, node_id: str) -> None:
        """Add a node (idempotent) and claim its vnode arcs."""
        if not node_id:
            raise ValueError("node_id must be a non-empty string")
        if node_id in self._nodes:
            return
        points = [
            stable_hash(f"{node_id}#{i}") for i in range(self.vnodes)
        ]
        self._nodes[node_id] = points
        self._rebuild()

    def remove(self, node_id: str) -> bool:
        """Drop a node; returns False if it was not on the ring."""
        if self._nodes.pop(node_id, None) is None:
            return False
        self._rebuild()
        return True

    def _rebuild(self) -> None:
        pairs = sorted(
            (point, node_id)
            for node_id, points in self._nodes.items()
            for point in points
        )
        self._points = [point for point, _ in pairs]
        self._owners = [node_id for _, node_id in pairs]

    # ------------------------------------------------------------------
    def route(self, key: str) -> Optional[str]:
        """The node owning ``key``, or None on an empty ring."""
        if not self._points:
            return None
        index = bisect.bisect_right(self._points, stable_hash(key))
        if index == len(self._points):
            index = 0  # wrap: past the last point is the first owner
        return self._owners[index]

    def spread(self, keys: Iterable[str]) -> Dict[str, int]:
        """How many of ``keys`` each node owns (balance diagnostics)."""
        counts: Dict[str, int] = {node_id: 0 for node_id in self._nodes}
        for key in keys:
            owner = self.route(key)
            if owner is not None:
                counts[owner] += 1
        return counts

    def stats(self) -> dict:
        return {
            "nodes": self.node_ids,
            "vnodes_per_node": self.vnodes,
            "points": len(self._points),
        }
