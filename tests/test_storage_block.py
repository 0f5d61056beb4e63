"""Tests for the block layer queue."""

import pytest

from repro.storage.block import BlockQueue, IoDirection


def make_queue():
    return BlockQueue("dev", read_ms_per_page=1.0, write_ms_per_page=2.0)


def test_invalid_latencies_rejected():
    with pytest.raises(ValueError):
        BlockQueue("bad", read_ms_per_page=0.0, write_ms_per_page=1.0)


def test_empty_bio_rejected():
    with pytest.raises(ValueError):
        make_queue().submit(0.0, IoDirection.READ, 0)


def test_single_read_latency():
    queue = make_queue()
    assert queue.submit(10.0, IoDirection.READ, 4) == 10.0 + 4.0


def test_writes_cost_more():
    queue = make_queue()
    assert queue.submit(0.0, IoDirection.WRITE, 3) == 6.0


def test_fifo_congestion_delays_later_requests():
    queue = make_queue()
    queue.submit(0.0, IoDirection.READ, 10)  # busy until 10
    assert queue.submit(0.0, IoDirection.READ, 1) == 11.0


def test_idle_gap_resets_queue():
    queue = make_queue()
    queue.submit(0.0, IoDirection.READ, 5)
    assert queue.submit(100.0, IoDirection.READ, 1) == 101.0


def test_queue_delay_reflects_read_backlog():
    queue = make_queue()
    queue.submit(0.0, IoDirection.READ, 10)  # read lane busy until 10
    assert queue.queue_delay(4.0) == 6.0
    assert queue.queue_delay(25.0) == 0.0


def test_write_backlog_delays_reads_only_up_to_cap():
    queue = make_queue()
    queue.submit(0.0, IoDirection.WRITE, 100)  # write lane busy until 200
    assert queue.queue_delay(0.0) == queue.WRITE_INTERFERENCE_CAP_MS
    complete = queue.submit(0.0, IoDirection.READ, 1)
    assert complete == queue.WRITE_INTERFERENCE_CAP_MS + 1.0


def test_reads_do_not_delay_writes():
    queue = make_queue()
    queue.submit(0.0, IoDirection.READ, 50)  # read lane busy until 50
    assert queue.submit(0.0, IoDirection.WRITE, 2) == 4.0


def test_stats_accumulate_by_direction():
    queue = make_queue()
    queue.submit(0.0, IoDirection.READ, 3)
    queue.submit(0.0, IoDirection.WRITE, 2)
    stats = queue.stats
    assert stats.read_requests == 1
    assert stats.read_pages == 3
    assert stats.write_requests == 1
    assert stats.write_pages == 2
    assert stats.total_pages == 5
    assert stats.total_requests == 2


def test_stats_wait_time_recorded():
    queue = make_queue()
    queue.submit(0.0, IoDirection.READ, 10)
    queue.submit(0.0, IoDirection.READ, 1)
    assert queue.stats.total_wait_ms == 10.0  # second read waited 10 ms


def test_reset_stats():
    queue = make_queue()
    queue.submit(0.0, IoDirection.READ, 1)
    queue.reset_stats()
    assert queue.stats.total_requests == 0
