"""§6.2.2: reduction of I/O and CPU pressure.

The paper counts I/O over a long mixed period (ten rounds of the four
scenarios): Ice reduces the I/O volume by ~9.2% (senseless
read-discard-read cycles of file pages disappear) and CPU utilization
drops from ~55.8% to ~47.3% (frozen BG tasks plus fewer
compression/decompression cycles).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PressureResult:
    policy: str
    io_pages: int
    io_read_pages: int
    io_write_pages: int
    zram_ops: int
    cpu_avg: float


def format_pressure(outcome: dict) -> str:
    baseline: PressureResult = outcome["baseline"]
    ice: PressureResult = outcome["ice"]
    return "\n".join(
        [
            "§6.2.2: I/O and CPU pressure (four scenarios, repeated rounds)",
            f"{'':>10} | {'I/O pages':>10} | {'reads':>8} | {'writes':>8} | "
            f"{'zram ops':>9} | {'CPU avg':>8}",
            "-" * 66,
            f"{'LRU+CFS':>10} | {baseline.io_pages:>10} | {baseline.io_read_pages:>8} | "
            f"{baseline.io_write_pages:>8} | {baseline.zram_ops:>9} | {baseline.cpu_avg:>7.1%}",
            f"{'Ice':>10} | {ice.io_pages:>10} | {ice.io_read_pages:>8} | "
            f"{ice.io_write_pages:>8} | {ice.zram_ops:>9} | {ice.cpu_avg:>7.1%}",
            "-" * 66,
            f"I/O reduced by {outcome['io_reduction']:.1%}; CPU "
            f"{outcome['cpu_baseline']:.1%} -> {outcome['cpu_ice']:.1%}",
        ]
    )
