"""Pressure Stall Information (PSI) on the simulated clock.

Android's real memory-management stack reads its pressure signal from
Linux PSI (``/proc/pressure/memory``): lmkd polls the ``some``/``full``
stall clocks and their ``avg10``/``avg60``/``avg300`` exponentially
weighted averages to decide when to kill.  This module rebuilds that
facility for the simulator so policies and operators get the same
standardized signal instead of raw vmstat counters.

Semantics
---------
Per resource (``memory``, ``io``, ``cpu``) two stall clocks run:

* ``some`` — wall-clock time during which **at least one** task was
  stalled on the resource.  Overlapping stalls from different tasks are
  merged (coverage, not a sum), so ``some`` can never exceed wall-clock
  time — exactly the Linux invariant.
* ``full`` — wall-clock time during which productive work was entirely
  blocked.  Linux defines this as "all non-idle tasks stalled
  simultaneously"; the simulator uses the *foreground-blocked*
  approximation: a stall is ``full`` when the task the user is
  interacting with (the foreground app's allocation/fault path) is the
  one stalled, since that is precisely the wasted time the paper's user
  experience metrics measure.  ``cpu`` has no system-level ``full``
  time, as in Linux (the line is rendered but stays zero).

Stall *sites* feed the monitor: direct-reclaim entry and allocator
contention (:mod:`repro.kernel.mm` via its callers), refault-driven
swap-ins and flash read waits (:mod:`repro.kernel.page_fault`), kswapd
reclaim quanta (:mod:`repro.kernel.reclaim`), and runnable-but-not-
running time (:mod:`repro.sched.cfs`).

Averages follow the kernel's ``update_averages``: every update period
(2 s wall time in Linux; configurable simulated ms here) the per-period
stall ratio is folded into three EWMA windows with
``alpha = 1 - exp(-period / window)``.

Per-app (memcg-style) groups keyed by UID receive the same accounting
for stalls attributable to one application.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

# Resources (Linux /proc/pressure file names).
MEMORY = "memory"
IO = "io"
CPU = "cpu"
RESOURCES = (MEMORY, IO, CPU)

# Stall kinds.
SOME = "some"
FULL = "full"

# Averaging windows (simulated ms) and the update period.  Linux updates
# every 2 s; the simulator defaults to 1 s so short scenario runs still
# chart a usable avg10.
PSI_WINDOWS_MS = (10_000.0, 60_000.0, 300_000.0)
PSI_UPDATE_MS = 1_000.0

MS_TO_US = 1000.0


class StallClock:
    """Merged-interval stall clock (coverage, not a sum).

    Stall sites report intervals ``[start, end)`` whose *starts* are
    non-decreasing (they are always "now" on a monotone simulated
    clock); ends may extend into the future (an I/O completion time).
    Overlapping intervals are merged so the total counts wall-clock
    coverage, and :meth:`total` clips the still-open tail at the query
    time so a stall scheduled to end in the future accrues gradually.
    """

    __slots__ = ("_closed", "_open_start", "_open_end")

    def __init__(self) -> None:
        self._closed = 0.0  # total of fully-closed merged intervals
        self._open_start = 0.0
        self._open_end = 0.0  # open interval is empty while start >= end

    def add(self, start: float, end: float) -> None:
        """Record one stall interval; overlap with prior stalls merges."""
        if end <= start:
            return
        # Defensive clamp: a start before the open interval's start would
        # double-count already-covered time.
        if start < self._open_start:
            start = self._open_start
        if start <= self._open_end:
            self._open_end = max(self._open_end, end)
        else:
            self._closed += self._open_end - self._open_start
            self._open_start = start
            self._open_end = end

    def total(self, now: float) -> float:
        """Stall ms accrued up to ``now`` (open tail clipped at ``now``)."""
        total = self._closed
        if self._open_end > self._open_start and now > self._open_start:
            total += min(self._open_end, now) - self._open_start
        return total


class PsiWindowSet:
    """The avg10/avg60/avg300 EWMAs of one stall line.

    Each update folds the period's stall *ratio* (stall time / period,
    in [0, 1]) into every window with ``alpha = 1 - exp(-period/window)``
    — the kernel's ``calc_avgs``.
    """

    __slots__ = ("avgs", "_alphas")

    def __init__(self, update_ms: float, windows_ms=PSI_WINDOWS_MS):
        self.avgs: List[float] = [0.0 for _ in windows_ms]
        self._alphas = tuple(
            1.0 - math.exp(-update_ms / window) for window in windows_ms
        )

    def update(self, ratio: float) -> None:
        for i, alpha in enumerate(self._alphas):
            self.avgs[i] += alpha * (ratio - self.avgs[i])

    @property
    def avg10(self) -> float:
        return self.avgs[0]

    @property
    def avg60(self) -> float:
        return self.avgs[1]

    @property
    def avg300(self) -> float:
        return self.avgs[2]


class PsiLine:
    """One ``some`` or ``full`` line: a stall clock plus its averages."""

    __slots__ = ("clock", "windows", "_last_total")

    def __init__(self, update_ms: float):
        self.clock = StallClock()
        self.windows = PsiWindowSet(update_ms)
        self._last_total = 0.0

    def update(self, now: float, period_ms: float) -> float:
        """Fold the last period into the averages; returns the ratio."""
        total = self.clock.total(now)
        delta = max(0.0, total - self._last_total)
        self._last_total = total
        ratio = min(1.0, delta / period_ms) if period_ms > 0 else 0.0
        self.windows.update(ratio)
        return ratio

    def total_us(self, now: float) -> int:
        return int(round(self.clock.total(now) * MS_TO_US))

    def format(self, now: float) -> str:
        w = self.windows
        return (
            f"avg10={w.avg10 * 100.0:.2f} avg60={w.avg60 * 100.0:.2f} "
            f"avg300={w.avg300 * 100.0:.2f} total={self.total_us(now)}"
        )

    def as_dict(self, now: float) -> Dict[str, float]:
        w = self.windows
        return {
            "avg10": round(w.avg10 * 100.0, 4),
            "avg60": round(w.avg60 * 100.0, 4),
            "avg300": round(w.avg300 * 100.0, 4),
            "total_us": self.total_us(now),
        }


class PsiGroup:
    """One pressure domain: the whole system or one app (memcg-style)."""

    def __init__(self, update_ms: float = PSI_UPDATE_MS):
        self.lines: Dict[Tuple[str, str], PsiLine] = {
            (resource, kind): PsiLine(update_ms)
            for resource in RESOURCES
            for kind in (SOME, FULL)
        }
        # Per-resource (some, full) stall-clock pairs: record() runs on
        # every stall site and this skips the tuple-key dict lookups.
        self._clock_pairs = {
            resource: (
                self.lines[(resource, SOME)].clock,
                self.lines[(resource, FULL)].clock,
            )
            for resource in RESOURCES
        }

    def record(
        self, resource: str, start: float, dur_ms: float, full: bool = False
    ) -> None:
        if dur_ms <= 0.0:
            return
        end = start + dur_ms
        some_clock, full_clock = self._clock_pairs[resource]
        some_clock.add(start, end)
        # System-level cpu has no full time (Linux renders the line as
        # zeros); group-level cpu full is accepted, as in cgroup2.
        if full:
            full_clock.add(start, end)

    def update(self, now: float, period_ms: float) -> None:
        for line in self.lines.values():
            line.update(now, period_ms)

    # ------------------------------------------------------------------
    def line(self, resource: str, kind: str = SOME) -> PsiLine:
        return self.lines[(resource, kind)]

    def avg10(self, resource: str, kind: str = SOME) -> float:
        """Latest 10 s EWMA as a fraction in [0, 1]."""
        return self.lines[(resource, kind)].windows.avg10

    def pressure_file(self, resource: str, now: float) -> str:
        """The two-line ``/proc/pressure/<resource>`` rendering."""
        return (
            f"some {self.lines[(resource, SOME)].format(now)}\n"
            f"full {self.lines[(resource, FULL)].format(now)}\n"
        )

    def pressure_dict(self, resource: str, now: float) -> Dict[str, Dict[str, float]]:
        return {
            SOME: self.lines[(resource, SOME)].as_dict(now),
            FULL: self.lines[(resource, FULL)].as_dict(now),
        }


class PsiMonitor:
    """System-wide + per-app PSI accounting on the simulated clock.

    The monitor is always on — recording a stall is a couple of float
    compares — and is advanced by a periodic :meth:`tick` the system
    layer schedules every ``update_ms`` simulated milliseconds.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        update_ms: float = PSI_UPDATE_MS,
    ):
        if update_ms <= 0:
            raise ValueError(f"PSI update period must be positive, got {update_ms}")
        self.clock = clock
        self.update_ms = update_ms
        self.system = PsiGroup(update_ms)
        self.groups: Dict[int, PsiGroup] = {}  # uid → per-app group
        self.updates = 0

    # ------------------------------------------------------------------
    # Recording (called from the stall sites)
    # ------------------------------------------------------------------
    def record(
        self,
        resource: str,
        dur_ms: float,
        start: Optional[float] = None,
        uid: Optional[int] = None,
        full: bool = False,
    ) -> None:
        """Record one stall of ``dur_ms`` on ``resource``.

        ``start`` defaults to the current simulated time; ``uid``
        additionally charges the stall to that app's group; ``full``
        marks it as blocking all productive (user-visible) work.
        """
        if dur_ms <= 0.0:
            return
        if start is None:
            start = self.clock()
        end = start + dur_ms
        # Inlined PsiGroup.record *and* StallClock.add: this is the
        # hottest call in the PSI layer (every stall site funnels
        # through it, several clocks per stall), so the merged-interval
        # update runs here as straight-line attribute ops.  The merge
        # semantics mirror StallClock.add exactly.
        if end <= start:
            return
        some_clock, full_clock = self.system._clock_pairs[resource]
        if uid is None:
            clocks = (some_clock, full_clock) if full else (some_clock,)
        else:
            group = self.groups.get(uid)
            if group is None:
                group = self.groups[uid] = PsiGroup(self.update_ms)
            group_some, group_full = group._clock_pairs[resource]
            if full:
                clocks = (some_clock, full_clock, group_some, group_full)
            else:
                clocks = (some_clock, group_some)
        for clock in clocks:
            s = start
            if s < clock._open_start:
                s = clock._open_start
            if s <= clock._open_end:
                if end > clock._open_end:
                    clock._open_end = end
            else:
                clock._closed += clock._open_end - clock._open_start
                clock._open_start = s
                clock._open_end = end

    def group(self, uid: int) -> PsiGroup:
        """The per-app group for ``uid`` (created on first stall)."""
        existing = self.groups.get(uid)
        if existing is None:
            existing = self.groups[uid] = PsiGroup(self.update_ms)
        return existing

    # ------------------------------------------------------------------
    # Periodic update
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Fold the last period into every group's averages."""
        now = self.clock()
        self.system.update(now, self.update_ms)
        for group in self.groups.values():
            group.update(now, self.update_ms)
        self.updates += 1

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def pressure_file(self, resource: str) -> str:
        return self.system.pressure_file(resource, self.clock())

    def as_dict(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """``{resource: {some: {...}, full: {...}}}`` for the system."""
        now = self.clock()
        return {
            resource: self.system.pressure_dict(resource, now)
            for resource in RESOURCES
        }
