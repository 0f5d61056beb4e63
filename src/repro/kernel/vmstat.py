"""Kernel memory-management counters (``/proc/vmstat`` analogue).

All the quantities the paper measures come from here: reclaimed pages
(split by kswapd vs direct reclaim and by page kind), refaults (split
FG vs BG, anon vs file, java vs native heap), page-ins/outs, and
direct-reclaim stall time.  Snapshots support windowed measurements
(the paper's 30-second time slices in Figure 2(b)).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict


@dataclass
class VmStat:
    """Cumulative MM counters; all page counts are simulated pages."""

    # Reclaim
    pgsteal_kswapd: int = 0
    pgsteal_direct: int = 0
    pgsteal_anon: int = 0
    pgsteal_file: int = 0
    pgsteal_file_dirty: int = 0
    pgscan: int = 0
    kswapd_wakeups: int = 0
    direct_reclaim_entries: int = 0
    direct_reclaim_stall_ms: float = 0.0

    # Faults
    pgfault: int = 0
    pgmajfault: int = 0
    refault_total: int = 0
    refault_fg: int = 0
    refault_bg: int = 0
    refault_anon: int = 0
    refault_file: int = 0
    refault_java_heap: int = 0
    refault_native_heap: int = 0

    # Swap traffic
    pswpout: int = 0  # pages compressed into zram
    pswpin: int = 0  # pages decompressed out of zram
    fileback_writeout: int = 0  # dirty file pages written to flash
    filein: int = 0  # file pages re-read from flash

    # Allocation
    pgalloc: int = 0
    pgfree: int = 0
    alloc_stall_ms: float = 0.0
    oom_kills: int = 0

    # Workingset shadow-entry bookkeeping: entries shed to stay under
    # the byte budget (see repro.kernel.workingset.SHADOW_ENTRY_BYTES).
    workingset_shadow_shed: int = 0

    @property
    def pgsteal(self) -> int:
        """Total reclaimed pages (the paper's 'reclaim' count)."""
        return self.pgsteal_kswapd + self.pgsteal_direct

    @property
    def refault_ratio(self) -> float:
        """Fraction of evicted pages that were demanded back (§3.1)."""
        if self.pgsteal == 0:
            return 0.0
        return self.refault_total / self.pgsteal

    @property
    def bg_refault_share(self) -> float:
        """Fraction of refaults caused by BG processes (§3.1: ~65%)."""
        if self.refault_total == 0:
            return 0.0
        return self.refault_bg / self.refault_total

    def snapshot(self) -> Dict[str, float]:
        """Copy all counters into a plain dict (cheap, for windowing)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def copy(self) -> "VmStat":
        """An independent typed snapshot (for later :meth:`delta`)."""
        return replace(self)

    def delta(self, prev: "VmStat") -> "VmStat":
        """Typed counter increments since ``prev`` (a :meth:`copy`).

        The result is itself a ``VmStat``, so windowed measurements keep
        the derived properties (``pgsteal``, ``refault_ratio``,
        ``bg_refault_share``).
        """
        out = VmStat()
        for f in fields(self):
            setattr(out, f.name, getattr(self, f.name) - getattr(prev, f.name))
        return out

    def reset(self) -> None:
        for f in fields(self):
            current = getattr(self, f.name)
            setattr(self, f.name, type(current)())
