"""Memory/process management policies: the paper's four evaluated schemes.

* ``lru_cfs`` — the stock kernel baseline (LRU reclaim + CFS).
* ``ucsg`` — user-centric scheduling: FG tasks get priority (DAC'14).
* ``acclaim`` — FG-aware eviction: BG pages reclaimed preferentially
  (USENIX ATC'20).
* ``ice`` — the paper's contribution (:mod:`repro.core.ice`):
  refault-driven freezing + memory-aware thawing.
* ``power_freezer`` — power-manager-style freezing for Table 5.

:mod:`repro.policies.registry` maps the paper names to these and
imports a policy's module only when :func:`make_policy` first needs it,
so validating a policy name costs no simulator import.
"""
