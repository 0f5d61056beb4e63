"""Observability: pressure-stall information and procfs-style introspection.

``repro.obs`` is the simulator's "one queryable source of truth":

* :mod:`repro.obs.psi` — Linux-faithful Pressure Stall Information for
  the memory, io, and cpu resources, fed by the kernel/sched/storage
  stall sites and exposed as ``avg10``/``avg60``/``avg300`` windows plus
  total stall clocks, with per-app (memcg-style) breakdowns and
  threshold triggers policies can subscribe to.
* :mod:`repro.obs.procfs` — a virtual ``/proc`` registry rendering live
  ``meminfo``, ``vmstat``, ``pressure/{memory,io,cpu}``, per-app memcg
  stat files and the freezer cgroup state from the authoritative kernel
  objects, as text or JSON.
* :mod:`repro.obs.metrics` — a process-wide metrics registry (monotonic
  counters, gauges, log-bucketed latency histograms) with Prometheus
  text exposition, used by the serve control plane's ``GET /metrics``
  endpoint, plus RSS/tracemalloc memory-accounting helpers.

The package imports none of them: the simulator needs only ``psi``
(and ``procfs``), the control plane only ``metrics``, and each imports
the submodule it uses.
"""
