"""Flash storage device (UFS / eMMC) behind a block queue.

File-backed pages live here: clean pages are re-read on refault, dirty
pages are written back during reclaim.  Cold application launches also
stream code/resource pages from flash.  The device wraps a
:class:`~repro.storage.block.BlockQueue`, so read and write traffic
share one FIFO and congest each other — the mechanism behind the
paper's §2.2.3 observation that BG refaults raise I/O pressure on the
foreground app.
"""

from __future__ import annotations

from typing import Optional

from repro.devices.specs import StorageSpec
from repro.storage.block import BlockQueue, IoDirection


class FlashDevice:
    """UFS or eMMC secondary storage."""

    def __init__(self, spec: StorageSpec, name: Optional[str] = None):
        self.spec = spec
        self.name = name or spec.kind
        self.queue = BlockQueue(
            name=self.name,
            read_ms_per_page=spec.read_ms,
            write_ms_per_page=spec.write_ms,
        )

    @property
    def stats(self):
        return self.queue.stats

    def read(self, now: float, pages: int) -> float:
        """Synchronous page-in: the caller blocks until the returned
        completion time."""
        return self.queue.submit(now, IoDirection.READ, pages)

    def write(self, now: float, pages: int) -> float:
        """Write-back: asynchronous from the caller's point of view, but
        still occupies the device and delays subsequent reads; returns
        the completion time."""
        return self.queue.submit(now, IoDirection.WRITE, pages)

    def queue_delay(self, now: float) -> float:
        return self.queue.queue_delay(now)

    def reset_stats(self) -> None:
        self.queue.reset_stats()
