"""Shared fixtures: a miniature device and kernel stack for unit tests."""

import pytest

from repro.devices.specs import DeviceSpec, StorageSpec
from repro.kernel.mm import MemoryManager
from repro.kernel.page import HEAP_CODE, HeapKind, PageKind
from repro.kernel.page_fault import PageFaultHandler
from repro.kernel.slab import DIRTY, KIND_ANON, KIND_FILE
from repro.storage.flash import FlashDevice
from repro.storage.zram import ZramDevice

MIB = 1024 * 1024
GIB = 1024 * MIB


def make_small_spec(**overrides) -> DeviceSpec:
    """A tiny device: ~1024 managed pages, fast to exhaust in tests."""
    params = dict(
        name="TestPhone",
        soc="TestSoC",
        ram_bytes=128 * MIB,  # 2048 simulated pages at scale 16
        cores=4,
        android_version=10,
        storage=StorageSpec(kind="UFS", read_ms=0.5, write_ms=1.0),
        zram_bytes=32 * MIB,  # 512 simulated pages
        high_watermark_pages=96,
        memory_scale=16,
        system_reserved_frac=0.5,  # managed = 1024 pages
    )
    params.update(overrides)
    return DeviceSpec(**params)


class FakeClock:
    """Mutable simulated clock for kernel-level unit tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, ms: float) -> None:
        self.now += ms


@pytest.fixture
def small_spec() -> DeviceSpec:
    return make_small_spec()


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def mm(small_spec, clock) -> MemoryManager:
    zram = ZramDevice(
        capacity_pages=small_spec.zram_pages,
        compression_ratio=small_spec.zram_compression_ratio,
        compress_ms=small_spec.zram_compress_ms,
        decompress_ms=small_spec.zram_decompress_ms,
    )
    flash = FlashDevice(small_spec.storage)
    return MemoryManager(small_spec, zram, flash, clock=clock)


@pytest.fixture
def fault_handler(mm) -> PageFaultHandler:
    return PageFaultHandler(mm)


def make_ids(slab, count: int, kind=PageKind.ANON, heap=HeapKind.NATIVE,
             owner=None, dirty=False):
    """Allocate ``count`` pages in ``slab``; returns their ids."""
    if kind is PageKind.FILE:
        kind_code, heap = KIND_FILE, HeapKind.NONE
    else:
        kind_code = KIND_ANON
    block = slab.alloc_block(count, kind_code, HEAP_CODE[heap], owner=owner,
                             flag_bits=DIRTY if dirty else 0)
    return list(block)
