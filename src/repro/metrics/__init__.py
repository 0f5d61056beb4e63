"""Measurement utilities shared by experiments and benchmarks.

Small, typed helpers for summary statistics (:mod:`repro.metrics.stats`)
and plain-text table rendering (:mod:`repro.metrics.tables`); the
benchmarks print paper-style tables through these.  The per-subsystem
stat carriers live with their subsystems (``FrameStats`` in
:mod:`repro.android.render`, ``VmStat`` in :mod:`repro.kernel.vmstat`,
``CpuStats`` in :mod:`repro.sched.cfs`, ``IoStats`` in
:mod:`repro.storage.block`).
"""
