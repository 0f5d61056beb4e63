"""Block-layer and storage-device substrate.

Reclaimed anonymous pages travel to :class:`~repro.storage.zram.ZramDevice`
(a compressed RAM disk, as in the paper's §2.1); dirty file-backed pages
are written back to :class:`~repro.storage.flash.FlashDevice` (UFS/eMMC);
clean file pages are dropped and re-read from flash on refault.  Both
devices sit behind a FIFO :class:`~repro.storage.block.BlockQueue`, which
models I/O congestion: a burst of background refaults lengthens the queue
and thereby delays the foreground application's own faults.
"""

from repro.storage.block import BlockQueue, IoDirection, IoStats
from repro.storage.flash import FlashDevice
from repro.storage.zram import ZramDevice, ZramFullError

__all__ = [
    "BlockQueue",
    "IoDirection",
    "IoStats",
    "FlashDevice",
    "ZramDevice",
    "ZramFullError",
]
