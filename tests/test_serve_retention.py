"""Tests for terminal-job retention (`repro.serve.retention`)."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.queue import Job, JobState
from repro.serve.retention import JobTable
from repro.serve.spec import RunRequest


def _job(job_id, state=JobState.DONE, events=0, **kwargs):
    job = Job(
        id=job_id,
        request=RunRequest(scenario="S-A", seconds=2.0),
        priority=10,
        submitted_at=0.0,
        **kwargs,
    )
    for i in range(events):
        job.add_event("sample", {"i": i})
    job.state = state
    if job.terminal:
        job.finished_at = 1.0
    return job


def _table(**kwargs):
    clock = kwargs.pop("clock", None) or (lambda: 100.0)
    return JobTable(clock=clock, **kwargs)


# ----------------------------------------------------------------------
# Basic registry behavior
# ----------------------------------------------------------------------
def test_lookup_distinguishes_live_evicted_unknown():
    table = _table(budget_bytes=1, min_retention_s=0.0)
    live = _job("live", state=JobState.RUNNING)
    table.add(live)
    done = _job("done")
    table.add(done)
    table.note_terminal(done)  # budget of 1 byte evicts immediately

    job, tombstone = table.lookup("live")
    assert job is live and tombstone is None
    job, tombstone = table.lookup("done")
    assert job is None and tombstone["id"] == "done"
    assert tombstone["evicted"] is True
    job, tombstone = table.lookup("never-seen")
    assert job is None and tombstone is None


def test_running_jobs_are_never_evicted():
    table = _table(budget_bytes=1, min_retention_s=0.0)
    running = _job("running", state=JobState.RUNNING)
    table.add(running)
    table.note_terminal(running)  # not terminal: must be a no-op
    assert table.terminal_bytes == 0
    assert table.gc() == 0
    assert table.get("running") is running


def test_note_terminal_is_idempotent():
    table = _table(budget_bytes=None)
    job = _job("once")
    table.add(job)
    table.note_terminal(job)
    cost = table.terminal_bytes
    assert cost > 0
    table.note_terminal(job)
    assert table.terminal_bytes == cost


# ----------------------------------------------------------------------
# Budgeted GC
# ----------------------------------------------------------------------
def test_gc_evicts_oldest_terminal_jobs_until_budget_holds():
    table = _table(budget_bytes=10_000, min_retention_s=0.0)
    jobs = [_job(f"j{i}") for i in range(50)]
    for job in jobs:
        table.add(job)
        table.note_terminal(job)
    assert table.terminal_bytes <= 10_000
    assert table.stats()["evicted_total"] > 0
    # Eviction is strictly oldest-first: the survivors are a suffix.
    survivors = [job.id for job in jobs if job.id in table]
    assert survivors == [f"j{i}" for i in range(50 - len(survivors), 50)]
    # Every evicted job answers via its tombstone.
    for job in jobs:
        if job.id not in table:
            _, tombstone = table.lookup(job.id)
            assert tombstone is not None
            assert tombstone["state"] == JobState.DONE


def test_min_retention_window_defers_eviction():
    now = [100.0]
    table = JobTable(
        budget_bytes=1, min_retention_s=30.0, clock=lambda: now[0]
    )
    job = _job("fresh")
    table.add(job)
    table.note_terminal(job)
    # Over budget but inside the window: retained.
    assert table.gc() == 0
    assert "fresh" in table
    now[0] = 131.0  # window passed; the next tick may evict
    assert table.gc() == 1
    assert "fresh" not in table
    _, tombstone = table.lookup("fresh")
    assert tombstone is not None


def test_unbounded_table_never_evicts():
    table = _table(budget_bytes=None)
    for i in range(20):
        job = _job(f"j{i}")
        table.add(job)
        table.note_terminal(job)
    assert table.gc() == 0
    assert len(table) == 20
    assert table.stats()["evicted_total"] == 0


def test_event_heavy_jobs_cost_more():
    table = _table(budget_bytes=None)
    small = _job("small")
    table.add(small)
    table.note_terminal(small)
    small_cost = table.terminal_bytes
    noisy = _job("noisy", events=200)
    table.add(noisy)
    table.note_terminal(noisy)
    assert table.terminal_bytes - small_cost > small_cost


def test_tombstones_are_bounded():
    table = _table(budget_bytes=1, min_retention_s=0.0, tombstone_limit=3)
    for i in range(10):
        job = _job(f"j{i}")
        table.add(job)
        table.note_terminal(job)
    assert table.stats()["tombstones"] <= 3
    assert table.tombstones_dropped_total >= 6
    # The newest tombstones survive; the oldest were dropped.
    assert table.lookup("j9")[1] is not None
    assert table.lookup("j0")[1] is None


def test_metrics_registry_integration():
    registry = MetricsRegistry()
    table = JobTable(
        budget_bytes=1, min_retention_s=0.0, clock=lambda: 5.0,
        registry=registry,
    )
    job = _job("gone")
    table.add(job)
    table.note_terminal(job)
    text = registry.render()
    assert "repro_serve_jobs_evicted_total 1" in text
    assert "repro_serve_job_tombstones 1" in text


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        JobTable(budget_bytes=0)
    with pytest.raises(ValueError):
        JobTable(min_retention_s=-1.0)
    with pytest.raises(ValueError):
        JobTable(tombstone_limit=-1)


# ----------------------------------------------------------------------
# Per-job event cap
# ----------------------------------------------------------------------
def test_job_event_cap_drops_oldest_and_tracks_base():
    dropped_ticks = []
    job = Job(
        id="capped",
        request=RunRequest(scenario="S-A", seconds=2.0),
        priority=10,
        submitted_at=0.0,
        max_events=3,
        on_event_dropped=lambda: dropped_ticks.append(1),
    )
    for i in range(7):
        job.add_event("sample", {"i": i})
    assert len(job.events) == 3
    assert [e["data"]["i"] for e in job.events] == [4, 5, 6]
    assert job.events_base == 4
    assert job.events_dropped == 4
    assert len(dropped_ticks) == 4
    assert job.snapshot()["events_dropped"] == 4


def test_job_without_cap_keeps_every_event():
    job = _job("uncapped", state=JobState.QUEUED, events=100)
    assert len(job.events) == 100
    assert job.events_base == 0
    assert job.events_dropped == 0
