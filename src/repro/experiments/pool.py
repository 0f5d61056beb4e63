"""The ordered process-pool map behind `repro bench` and `repro figures`.

Their cells are independent seeded runs: each builds its own system and
derives its randomness from its own seed, so a cell's result does not
depend on the process that runs it or on what ran there before.
Workers are spawned, not forked: the caller may have threads (a test
process, a server), and a forked child can inherit a lock one of them
held.
"""

from __future__ import annotations

import concurrent.futures
import os
from typing import Callable, Iterator, Sequence


def pool_width() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn: Callable, payloads: Sequence, jobs: int) -> Iterator:
    """``fn`` over ``payloads``, yielding results in submission order.

    Runs in this process when ``jobs`` is 1 or less, else over a pool of
    ``min(jobs, len(payloads))`` processes; ``executor.map`` keeps the
    order whichever worker finishes first.
    """
    if jobs <= 1:
        yield from map(fn, payloads)
        return
    import multiprocessing  # only a pool needs it

    with concurrent.futures.ProcessPoolExecutor(
        max_workers=min(jobs, len(payloads)),
        mp_context=multiprocessing.get_context("spawn"),
    ) as pool:
        yield from pool.map(fn, payloads)
