"""`/v1/stats` counts are a view over the `/metrics` counters.

Each counter leaf of a stats document is read from one registry
family, so bumping that family (and nothing else) moves the leaf by
exactly one and leaves every other counter leaf where it was.  The
tables below name the family behind every leaf, and a completeness
check fails when a new ``*_total`` leaf appears without being mapped
here or listed as a plain count that no family mirrors.
"""

import asyncio

import pytest

from repro.fleet.coordinator import Coordinator, CoordinatorConfig
from repro.fleet.loadtest import CONSISTENCY_PAIRS
from repro.serve.http import ServeConfig
from repro.serve.state import ServerState

TENANT = "t"

# (family, label values, stats leaves the family moves)
NODE_FAMILIES = (
    ("repro_serve_jobs_submitted_total", (), ("jobs.submitted_total",)),
    ("repro_serve_cache_hit_jobs_total", (), ("jobs.cache_hits",)),
    ("repro_serve_job_events_dropped_total", (),
     ("jobs.events_dropped_total",)),
    ("repro_serve_queue_enqueued_total", ("normal",),
     ("queue.enqueued_total",)),
    ("repro_serve_queue_expired_total", (), ("queue.expired_total",)),
    ("repro_serve_queue_cancelled_total", (), ("queue.cancelled_total",)),
    ("repro_serve_cache_hits_total", ("memory",),
     ("cache.hits", "cache.memory_hits")),
    ("repro_serve_cache_hits_total", ("disk",),
     ("cache.hits", "cache.disk_hits", "cache.disk_loads")),
    ("repro_serve_cache_misses_total", (), ("cache.misses",)),
    ("repro_serve_cache_evictions_total", (), ("cache.evictions",)),
    ("repro_serve_worker_started_total", (), ("workers.started_total",)),
    ("repro_serve_worker_completed_total", (),
     ("workers.completed_total",)),
    ("repro_serve_worker_failed_total", (), ("workers.failed_total",)),
    ("repro_serve_worker_retries_total", (), ("workers.retries_total",)),
    ("repro_serve_worker_crashes_total", (), ("workers.crashes_total",)),
    ("repro_serve_worker_abandoned_total", (),
     ("workers.abandoned_total",)),
    ("repro_serve_jobs_evicted_total", (), ("retention.evicted_total",)),
    ("repro_fleet_misrouted_total", (), ("fleet.misrouted_total",)),
)

COORDINATOR_FAMILIES = (
    ("repro_fleet_submissions_total", (), ("jobs.submitted_total",)),
    ("repro_fleet_resubmitted_jobs_total", (), ("jobs.resubmitted_total",)),
    ("repro_fleet_nodes_evicted_total", (),
     ("evictions.nodes_evicted_total",)),
    ("repro_serve_jobs_evicted_total", (), ("retention.evicted_total",)),
    ("repro_fleet_ratelimited_total", (TENANT,),
     ("ratelimit.rejected_total", f"ratelimit.tenants.{TENANT}.rejected")),
)

# Counts that no family mirrors, so they stay plain attributes.
PLAIN_TOTALS = {
    "retention.tombstones_dropped_total", "ratelimit.admitted_total",
}


def _dig(doc, dotted):
    for part in dotted.split("."):
        doc = doc[part]
    return doc


def _totals(doc, prefix=""):
    """Every ``*_total`` leaf of a stats document, by dotted path."""
    for key, value in doc.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _totals(value, path + ".")
        elif key.endswith("_total"):
            yield path


def _node_state():
    return ServerState(ServeConfig(port=0, workers=1, node_id="n1"))


def _coordinator():
    coordinator = Coordinator(CoordinatorConfig(port=0, ratelimit_rps=1.0))
    coordinator.limiter.admit(TENANT)  # the tenant's ratelimit block exists
    return coordinator


def _check_view(owner, families):
    leaves = sorted({leaf for _, _, moved in families for leaf in moved})

    def read():
        doc = owner.stats()
        return {leaf: _dig(doc, leaf) for leaf in leaves}

    for name, labels, moved in families:
        family = owner.registry.get(name)
        assert family is not None, f"{name} is not registered"
        before = read()
        family.labels(*labels).inc()
        after = read()
        for leaf in leaves:
            step = 1 if leaf in moved else 0
            assert after[leaf] == before[leaf] + step, (name, leaf)
            assert type(after[leaf]) is int, (name, leaf)


def test_node_stats_counts_are_read_from_the_registry():
    async def scenario():
        state = _node_state()
        _check_view(state, NODE_FAMILIES)
        cache = state.stats()["cache"]
        assert cache["disk_loads"] == cache["disk_hits"] == 1

    asyncio.run(scenario())


def test_coordinator_stats_counts_are_read_from_the_registry():
    async def scenario():
        _check_view(_coordinator(), COORDINATOR_FAMILIES)

    asyncio.run(scenario())


@pytest.mark.parametrize("build, families", [
    (_node_state, NODE_FAMILIES),
    (_coordinator, COORDINATOR_FAMILIES),
], ids=["node", "coordinator"])
def test_every_total_leaf_is_mapped_or_plain(build, families):
    async def scenario():
        return set(_totals(build().stats()))

    mapped = {leaf for _, _, moved in families for leaf in moved}
    totals = asyncio.run(scenario())
    assert totals - PLAIN_TOTALS <= mapped
    assert {leaf for leaf in mapped if leaf.endswith("_total")} <= totals


def test_soak_pairs_are_covered_by_the_node_table():
    node_pairs = {
        (leaf, name)
        for name, _, moved in NODE_FAMILIES for leaf in moved
    }
    assert set(CONSISTENCY_PAIRS) <= node_pairs
    assert len(CONSISTENCY_PAIRS) == 16


def test_reading_ratelimit_stats_creates_no_series():
    # The limiter is the coordinator's: a node registers no family, and
    # reading the coordinator's stats adds no series to it.
    async def scenario():
        node = _node_state()
        node.stats()
        assert "repro_fleet_ratelimited_total" not in node.registry.render()
        coordinator = _coordinator()
        coordinator.stats()
        text = coordinator.registry.render()
        assert "# TYPE repro_fleet_ratelimited_total counter" in text
        assert "repro_fleet_ratelimited_total{" not in text

    asyncio.run(scenario())


def test_coordinator_without_limiter_has_no_ratelimit_family():
    async def scenario():
        coordinator = Coordinator(CoordinatorConfig(port=0))
        assert "ratelimit" not in coordinator.stats()
        return coordinator.registry.render()

    assert "repro_fleet_ratelimited_total" not in asyncio.run(scenario())


def test_fleet_node_buffers_finished_runs_for_its_heartbeat(monkeypatch):
    # The one finalize path also queues the run's terminal state for the
    # coordinator, on a fleet node only, and the queue is bounded.
    from repro.serve import state as state_module
    from repro.serve.queue import Job, JobState
    from repro.serve.spec import RunRequest

    monkeypatch.setattr(state_module, "DEFAULT_TOMBSTONE_LIMIT", 3)

    async def scenario():
        node = ServerState(ServeConfig(port=0, workers=1, node_id="n1"))
        solo = ServerState(ServeConfig(port=0, workers=1))
        for i in range(5):
            for owner in (node, solo):
                job = Job(
                    id=f"run-{i}",
                    request=RunRequest(scenario="S-A", seconds=2.0),
                    state=JobState.FAILED if i % 2 else JobState.DONE,
                )
                owner.table.add(job)
                owner._finalize_job(job)
                owner._finalize_job(job)  # a second arrival is a no-op
        return node.finished, solo.finished

    finished, solo = asyncio.run(scenario())
    assert list(finished.items()) == [
        ("run-2", "done"), ("run-3", "failed"), ("run-4", "done"),
    ]
    assert not solo
