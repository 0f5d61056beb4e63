"""Tests for the bounded priority job queue (`repro.serve.queue`)."""

import asyncio

import pytest

from repro.serve.queue import (
    Job,
    JobQueue,
    JobState,
    QueueFull,
    priority_class,
)
from repro.serve.spec import RunRequest


def _job(job_id, priority=10, deadline_at=None, submitted_at=0.0):
    return Job(
        id=job_id,
        request=RunRequest(scenario="S-A", seconds=2.0),
        priority=priority,
        submitted_at=submitted_at,
        deadline_at=deadline_at,
    )


def _run(coro):
    return asyncio.run(coro)


def test_push_beyond_capacity_raises_queue_full():
    async def scenario():
        queue = JobQueue(maxsize=2)
        queue.push(_job("a"))
        queue.push(_job("b"))
        with pytest.raises(QueueFull, match="2/2"):
            queue.push(_job("c"))
        assert queue.stats()["depth"] == 2

    _run(scenario())


def test_pop_orders_by_priority_then_fifo():
    async def scenario():
        queue = JobQueue(maxsize=8)
        queue.push(_job("low-1", priority=20))
        queue.push(_job("high-1", priority=1))
        queue.push(_job("low-2", priority=20))
        queue.push(_job("high-2", priority=1))
        order = [(await queue.pop()).id for _ in range(4)]
        assert order == ["high-1", "high-2", "low-1", "low-2"]

    _run(scenario())


def test_cancel_queued_job_never_pops():
    async def scenario():
        queue = JobQueue(maxsize=8)
        queue.push(_job("keep"))
        victim = _job("drop")
        queue.push(victim)
        assert queue.cancel("drop") is True
        assert victim.state == JobState.CANCELLED
        assert queue.cancel("drop") is False  # already gone
        assert (await queue.pop()).id == "keep"
        queue.close()
        assert await queue.pop() is None
        assert queue.stats()["cancelled_total"] == 1

    _run(scenario())


def test_deadline_passed_jobs_expire_at_dequeue():
    fake_now = [100.0]

    async def scenario():
        queue = JobQueue(maxsize=8, clock=lambda: fake_now[0])
        stale = _job("stale", deadline_at=105.0, submitted_at=100.0)
        fresh = _job("fresh", deadline_at=200.0, submitted_at=100.0)
        queue.push(stale)
        queue.push(fresh)
        fake_now[0] = 110.0  # past stale's deadline, before fresh's
        popped = await queue.pop()
        assert popped.id == "fresh"
        assert stale.state == JobState.EXPIRED
        assert "deadline exceeded" in stale.error
        assert queue.stats()["expired_total"] == 1

    _run(scenario())


def test_pop_waits_for_push():
    async def scenario():
        queue = JobQueue(maxsize=8)

        async def pusher():
            await asyncio.sleep(0.01)
            queue.push(_job("late"))

        task = asyncio.ensure_future(pusher())
        job = await asyncio.wait_for(queue.pop(), timeout=2.0)
        await task
        return job.id

    assert _run(scenario()) == "late"


def test_close_drains_then_returns_none():
    async def scenario():
        queue = JobQueue(maxsize=8)
        queue.push(_job("last"))
        queue.close()
        assert (await queue.pop()).id == "last"
        assert await queue.pop() is None

    _run(scenario())


def test_cancel_all_sweeps_the_queue():
    async def scenario():
        queue = JobQueue(maxsize=8)
        for i in range(3):
            queue.push(_job(f"j{i}"))
        swept = queue.cancel_all()
        assert len(swept) == 3
        assert all(job.state == JobState.CANCELLED for job in swept)
        assert queue.stats()["cancelled_total"] == 3
        queue.close()
        assert await queue.pop() is None

    _run(scenario())


def test_queue_rejects_nonpositive_maxsize():
    with pytest.raises(ValueError):
        JobQueue(maxsize=0)


def test_job_snapshot_shape():
    job = _job("snap", priority=5)
    doc = job.snapshot()
    assert doc["id"] == "snap"
    assert doc["state"] == JobState.QUEUED
    assert doc["priority"] == 5
    assert doc["cache_key"] == job.request.cache_key()
    assert doc["request"]["scenario"] == "S-A"
    assert not job.terminal


# ----------------------------------------------------------------------
# Request-lifecycle spans and per-class latency accounting
# ----------------------------------------------------------------------
def test_priority_class_boundaries():
    assert priority_class(0) == "high"
    assert priority_class(9) == "high"
    assert priority_class(10) == "normal"
    assert priority_class(11) == "low"
    assert _job("j", priority=3).priority_class == "high"


def test_queue_wait_span_is_dispatch_minus_enqueue():
    fake_now = [100.0]

    async def scenario():
        queue = JobQueue(maxsize=8, clock=lambda: fake_now[0])
        job = _job("spanned", submitted_at=100.0)
        queue.push(job)
        assert job.enqueued_at == 100.0
        assert job.spans()["queue_wait_s"] is None  # still open
        fake_now[0] = 102.5
        popped = await queue.pop()
        assert popped is job
        assert job.dispatched_at == 102.5
        assert job.spans()["queue_wait_s"] == pytest.approx(2.5)
        # Snapshot carries the raw timestamps and derived spans.
        doc = job.snapshot()
        assert doc["enqueued_at"] == 100.0
        assert doc["dispatched_at"] == 102.5
        assert doc["spans"]["queue_wait_s"] == pytest.approx(2.5)
        assert doc["spans"]["exec_s"] is None

    _run(scenario())


def test_stats_reports_wait_percentiles_per_priority_class():
    fake_now = [0.0]

    async def scenario():
        queue = JobQueue(maxsize=16, clock=lambda: fake_now[0])
        queue.push(_job("h", priority=1))
        queue.push(_job("n", priority=10))
        fake_now[0] = 1.0
        await queue.pop()  # "h" waited 1s
        fake_now[0] = 4.0
        await queue.pop()  # "n" waited 4s
        stats = queue.stats()
        wait = stats["queue_wait_s"]
        assert set(wait) == {"high", "normal"}
        assert wait["high"]["count"] == 1
        assert wait["high"]["p50"] == pytest.approx(1.0, rel=0.1)
        assert wait["normal"]["p50"] == pytest.approx(4.0, rel=0.1)

    _run(scenario())


def test_cancelled_tombstones_do_not_pollute_wait_histogram():
    fake_now = [0.0]

    async def scenario():
        queue = JobQueue(maxsize=8, clock=lambda: fake_now[0])
        queue.push(_job("victim"))
        queue.push(_job("runner"))
        assert queue.cancel("victim") is True
        fake_now[0] = 1000.0  # a tombstone wait this long would wreck p99
        popped = await queue.pop()
        assert popped.id == "runner"
        wait = queue.stats()["queue_wait_s"]
        # Only the genuinely dispatched job was observed.
        assert wait["normal"]["count"] == 1
        assert wait["normal"]["max"] == pytest.approx(1000.0, rel=0.1)
        cancelled = queue._queued.get("victim")
        assert cancelled is None

    _run(scenario())


def test_expired_jobs_do_not_pollute_wait_histogram():
    fake_now = [0.0]

    async def scenario():
        queue = JobQueue(maxsize=8, clock=lambda: fake_now[0])
        queue.push(_job("stale", deadline_at=5.0))
        queue.push(_job("fresh"))
        fake_now[0] = 50.0
        popped = await queue.pop()
        assert popped.id == "fresh"
        assert queue.stats()["expired_total"] == 1
        wait = queue.stats()["queue_wait_s"]
        assert wait["normal"]["count"] == 1  # only "fresh"

    _run(scenario())


def test_queue_metrics_flow_into_shared_registry():
    from repro.obs.metrics import MetricsRegistry

    fake_now = [0.0]

    async def scenario():
        registry = MetricsRegistry()
        queue = JobQueue(maxsize=4, clock=lambda: fake_now[0],
                         registry=registry)
        queue.push(_job("a", priority=1))
        fake_now[0] = 0.25
        await queue.pop()
        text = registry.render()
        assert (
            'repro_serve_queue_enqueued_total{priority_class="high"} 1'
            in text
        )
        assert "repro_serve_queue_wait_seconds_bucket" in text
        assert "repro_serve_queue_depth 0" in text
        assert "repro_serve_queue_capacity 4" in text

    _run(scenario())


def test_expire_moves_stats_and_prometheus_counter_together():
    """One accounting path: every expiry bumps both ledgers equally."""
    from repro.obs.metrics import MetricsRegistry, family_total, parse_samples

    fake_now = [0.0]

    async def scenario():
        registry = MetricsRegistry()
        queue = JobQueue(maxsize=8, clock=lambda: fake_now[0],
                         registry=registry)
        # One dequeue-time expiry...
        queue.push(_job("stale", deadline_at=5.0))
        queue.push(_job("fresh"))
        fake_now[0] = 50.0
        assert (await queue.pop()).id == "fresh"
        # ...and one explicit expire() (the pre-dispatch path).
        late = _job("late", deadline_at=40.0)
        queue.expire(late, reason="deadline exceeded before dispatch")
        assert late.state == JobState.EXPIRED
        assert "before dispatch" in late.error
        samples = parse_samples(registry.render())
        assert queue.stats()["expired_total"] == 2
        assert family_total(samples, "repro_serve_queue_expired_total") == 2

    _run(scenario())


def test_expire_fires_on_expired_callback():
    fake_now = [0.0]
    seen = []

    async def scenario():
        queue = JobQueue(maxsize=8, clock=lambda: fake_now[0])
        queue.on_expired = seen.append
        queue.push(_job("stale", deadline_at=5.0))
        queue.push(_job("fresh"))
        fake_now[0] = 50.0
        await queue.pop()
        assert [job.id for job in seen] == ["stale"]
        assert seen[0].state == JobState.EXPIRED

    _run(scenario())


def test_expire_is_idempotent():
    async def scenario():
        queue = JobQueue(maxsize=8)
        job = _job("once", deadline_at=0.0)
        queue.expire(job)
        queue.expire(job)  # second arrival must not double-count
        assert queue.stats()["expired_total"] == 1

    _run(scenario())
