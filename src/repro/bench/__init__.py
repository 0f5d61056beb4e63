"""Benchmark harness (``repro bench``).

Runs a fixed scenario matrix — serially or across a process pool
(``--jobs N``) — and reports, per cell, both *simulator* performance
(wall-clock seconds, simulated events per wall second, peak RSS) and
*paper-facing* results (FPS mean/p5/p95, refault counts, launch
latency, LMK kills), into a schema-versioned ``BENCH_<date>.json``
artifact that CI uploads and humans diff across commits.  Each cell
also runs once under the work ledger (:mod:`repro.bench.ledger`),
whose exact call counts per package go into the same artifact.

``repro bench compare OLD NEW`` diffs two artifacts: paper metrics must
match exactly, and perf drift and call-count deltas are printed as
information (:mod:`repro.bench.compare`).

The serve plane's leak gate is a soak run by
``repro loadtest --soak SECONDS`` (:mod:`repro.fleet.loadtest`).
"""
