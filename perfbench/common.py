"""Arithmetic and host readings shared by every workload.

Everything here is pure or reads only ``/proc`` and the platform, so
``test_common.py`` can check it without a simulator or a server.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# Percentiles tried for the tail, highest first.  A percentile is only
# reported when at least TAIL_MIN_BEYOND samples lie beyond it, so a
# short run never passes p50 (or its maximum) off as a tail.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default) of ``values``.

    Kept apart from ``repro.metrics.stats`` so a change to the program
    under test cannot change how the benchmark measures it.
    """
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``{"percentile", "value", "samples"}`` or ``None`` when even
    the lowest rung has fewer than :data:`TAIL_MIN_BEYOND` samples past
    it; the caller records the omission instead of printing p50 twice.
    """
    n = len(values)
    for pct in TAIL_LADDER:
        # Rounded: 1 - 0.9 is 0.0999..., which would lose exactly ten.
        if round(n * (100.0 - pct) / 100.0, 6) >= TAIL_MIN_BEYOND:
            return {"percentile": pct, "value": percentile(values, pct),
                    "samples": n}
    return None


def tail_record(values: Sequence[float]) -> Dict[str, object]:
    """:func:`tail` for the run record, saying why when it is omitted."""
    return tail(values) or {"omitted": "fewer than ten samples beyond p90",
                            "samples": len(values)}


def throughput(*groups: Iterable[Tuple[float, float]]) -> float:
    """Operations per second over the operations' own time spans.

    Each group holds one ``(start, end)`` per completed operation.  A
    group's span runs from its earliest start to its latest end, so idle
    time before, between or after the groups is not counted.
    """
    count = 0
    busy = 0.0
    for group in groups:
        spans = list(group)
        if not spans:
            continue
        first = min(start for start, _ in spans)
        last = max(end for _, end in spans)
        if last <= first:
            raise ValueError("operations span no time")
        count += len(spans)
        busy += last - first
    return count / busy if count else 0.0


def self_times(
    start: Sequence[float], end: Sequence[float], parent: Sequence[int]
) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Spans are indexed in the order they were opened, so a parent comes
    before its children and each parent's children arrive sorted by
    start.  Children may overlap each other (concurrent tasks under one
    request) and are clipped to their parent's interval; the covered
    union is merged in one pass.  An unclosed span (``end`` is NaN)
    counts neither itself nor as a child.
    """
    n = len(start)
    covered = [0.0] * n
    seg_start = [0.0] * n
    seg_end = [-math.inf] * n
    for i in range(n):
        p = parent[i]
        if p < 0 or math.isnan(end[i]) or math.isnan(end[p]):
            continue
        lo = max(start[i], start[p])
        hi = min(end[i], end[p])
        if hi <= lo:
            continue
        if lo > seg_end[p]:
            if seg_end[p] > seg_start[p]:
                covered[p] += seg_end[p] - seg_start[p]
            seg_start[p], seg_end[p] = lo, hi
        elif hi > seg_end[p]:
            seg_end[p] = hi
    out = [0.0] * n
    for i in range(n):
        if math.isnan(end[i]):
            out[i] = math.nan
            continue
        if seg_end[i] > seg_start[i]:
            covered[i] += seg_end[i] - seg_start[i]
        out[i] = (end[i] - start[i]) - covered[i]
    return out


# ----------------------------------------------------------------------
# /proc readings
# ----------------------------------------------------------------------
CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def parse_cpu_seconds(stat_line: str, ticks_per_s: int = CLOCK_TICKS) -> float:
    """utime + stime of one ``/proc/<pid>/stat`` line, in seconds.

    The command name (field 2) is parenthesised and may hold spaces or
    parentheses, so fields are counted from the last ``)``.
    """
    rest = stat_line[stat_line.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    return (int(rest[11]) + int(rest[12])) / ticks_per_s


def cpu_seconds(pid) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        return parse_cpu_seconds(handle.read())


def cpu_ms_per_op(before: float, after: float, ops: int) -> float:
    """CPU milliseconds per operation between two readings."""
    if ops <= 0:
        raise ValueError("no operations")
    if after < before:
        raise ValueError("CPU time went backwards; was the pid reused?")
    return (after - before) * 1000.0 / ops


def vm_hwm_mb(pid) -> float:
    """Peak resident set (VmHWM) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"/proc/{pid}/status has no VmHWM")


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            line = handle.read()
    except FileNotFoundError:
        return False
    return line[line.rindex(")") + 2] != "Z"


def children_of(pid: int) -> List[int]:
    """Live child pids of ``pid`` (scans /proc, no extra kernel config)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                line = handle.read()
        except OSError:
            continue
        fields = line[line.rindex(")") + 2:].split()
        if int(fields[1]) == pid and fields[0] != "Z":
            found.append(int(entry))
    return sorted(found)


# ----------------------------------------------------------------------
# Run record
# ----------------------------------------------------------------------
def host_fingerprint() -> Dict[str, object]:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


def ref_loop_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a host-speed reading.

    Recorded at the start and end of every run so a slow host shows in
    the record; it never adjusts a metric.
    """
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        samples.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(samples)
