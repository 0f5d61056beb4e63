"""``repro.fleet`` — the sharded multi-node control plane.

Where :mod:`repro.serve` is one process (one queue, one worker fleet,
one cache), this package scales it out:

* :mod:`repro.fleet.routing` — a consistent-hash ring that maps
  ``RunRequest.cache_key``\\ s onto serve nodes, stable under node
  join/leave.
* :mod:`repro.fleet.ratelimit` — per-tenant token buckets with
  priority-class costs, enforced at admission (HTTP 429 +
  ``Retry-After``).
* :mod:`repro.fleet.coordinator` — the process serve nodes register
  with and heartbeat to; it tracks liveness, evicts dead nodes,
  routes submissions by content address, and resubmits the in-flight
  jobs of an evicted node.  The per-tenant limiter runs here only.
* :mod:`repro.fleet.node` — a :class:`~repro.serve.http.SimulationServer`
  plus the registration/heartbeat loop that makes it a fleet member.
* :mod:`repro.fleet.loadtest` — ``repro loadtest``, the one load
  generator: replays synthetic ``RunRequest`` mixes against a
  coordinator or single node, or soaks a node it boots in-process
  (RSS, accounting and worker-kill checks between submissions), and
  emits a schema-versioned ``LOADTEST_<date>.json`` artifact.

Everything is stdlib-only, like the serve plane it grows out of.
Submodules are imported lazily by their users so ``import repro.fleet``
stays cheap and cycle-free (the coordinator reuses the serve plane's
HTTP plumbing).
"""
