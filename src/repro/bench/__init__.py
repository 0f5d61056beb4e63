"""Self-profiling benchmark harness (``python -m repro.bench``).

Runs a fixed scenario matrix — serially or across a process pool
(``--jobs N``) — and reports, per cell, both *simulator* performance
(wall-clock seconds, simulated events per wall second, peak RSS) and
*paper-facing* results (FPS mean/p5/p95, refault counts, launch
latency, LMK kills), into a schema-versioned ``BENCH_<date>.json``
artifact that CI uploads and humans diff across commits.

Companion tools:

* ``--profile`` embeds a per-cell cProfile top-N table in the artifact
  (:mod:`repro.bench.profile`).
* ``python -m repro bench compare OLD NEW`` diffs two artifacts and
  exits nonzero on regression (:mod:`repro.bench.compare`) — the CI
  perf gate.
* ``--soak SECONDS`` boots a live serve-plane server and holds it under
  sustained mixed-tenant traffic, sampling RSS and stats/metrics
  consistency into a ``SOAK_<date>.json`` artifact
  (:mod:`repro.bench.soak`) — the CI leak gate.
"""
