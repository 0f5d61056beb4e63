"""`repro.serve` — simulation-as-a-service control plane.

Turns one-shot CLI runs into addressable, deduplicated requests:

* :mod:`repro.serve.spec`    — canonical :class:`RunRequest` + cache key
* :mod:`repro.serve.queue`   — bounded priority queue (backpressure,
  deadlines, cancellation, FIFO fairness)
* :mod:`repro.serve.workers` — supervised process-pool fleet with crash
  retry and sampler-fed progress streaming
* :mod:`repro.serve.cache`   — content-addressed result store
* :mod:`repro.serve.retention` — byte-budgeted terminal-job table with
  eviction tombstones (410 Gone)
* :mod:`repro.serve.httpbase` — request parsing and response encoding
  shared with the fleet coordinator
* :mod:`repro.serve.http`    — asyncio HTTP/JSON + SSE API
* :mod:`repro.serve.client`  — blocking client (`repro submit`)
* :mod:`repro.serve.testing` — in-process server harness

The package imports none of them, so a client (``repro submit``) loads
only the client and the request spec.  No module here imports the
simulator; a node loads it once, just before it forks its worker pool.
"""
