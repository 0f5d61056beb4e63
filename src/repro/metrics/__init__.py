"""Summary statistics for the harnesses.

Small, typed helpers (:mod:`repro.metrics.stats`): ``repro bench`` takes
its FPS percentiles and ``repro loadtest`` its latency percentiles
through them.  The per-subsystem
stat carriers live with their subsystems (``FrameStats`` in
:mod:`repro.android.render`, ``VmStat`` in :mod:`repro.kernel.vmstat`,
``CpuStats`` in :mod:`repro.sched.cfs`, ``IoStats`` in
:mod:`repro.storage.block`).
"""
