"""In-process end-to-end tests for the serve control plane.

A real :class:`SimulationServer` runs on an ephemeral port in a
background thread; a real :class:`ServeClient` talks to it over TCP.
The central claim under test is the ISSUE's acceptance bar: a served
result is bit-identical to the same request run directly through
``run_scenario``, and a duplicate submission is answered from the
content-addressed cache without touching a worker.
"""

import pytest

from repro.devices.specs import get_device
from repro.experiments.scenarios import BgCase, run_scenario
from repro.serve.client import QueueFullError, ServeClient, ServeError
from repro.serve.http import ServeConfig
from repro.serve.testing import ServerThread

# Short but non-trivial: ~75 ms of wall clock per simulation.
REQUEST = {
    "scenario": "S-A",
    "policy": "LRU+CFS",
    "bg_case": "bg-null",
    "seconds": 2.0,
    "seed": 7,
}


@pytest.fixture(scope="module")
def server():
    with ServerThread(ServeConfig(port=0, workers=1)) as thread:
        yield thread


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(server.base_url)


def _direct_result() -> dict:
    return run_scenario(
        REQUEST["scenario"],
        policy=REQUEST["policy"],
        spec=get_device("P20"),
        bg_case=BgCase.NULL,
        seconds=REQUEST["seconds"],
        seed=REQUEST["seed"],
    ).to_dict()


def test_duplicate_pair_is_bit_identical_and_cache_served(client):
    first = client.run(REQUEST, timeout_s=120.0)
    assert first["state"] == "done", first.get("error")
    assert first["cache_hit"] is False

    second = client.run(REQUEST, timeout_s=120.0)
    assert second["state"] == "done"
    assert second["cache_hit"] is True
    assert second["cache_key"] == first["cache_key"]

    # Bit-identical: served == served == direct CLI-style run.
    direct = _direct_result()
    assert first["result"] == direct
    assert second["result"] == direct

    # The counters prove the second answer skipped the workers: two
    # submissions, one cache hit, exactly one simulation executed.
    stats = client.stats()
    assert stats["jobs"]["submitted_total"] >= 2
    assert stats["jobs"]["cache_hits"] >= 1
    assert stats["cache"]["hits"] >= 1
    assert stats["workers"]["completed_total"] == 1
    assert stats["workers"]["pool_size"] == 1


def test_get_returns_terminal_snapshot(client):
    job = client.run(REQUEST, timeout_s=120.0)
    again = client.get(job["id"])
    assert again["state"] == "done"
    assert again["result"] == job["result"]


def test_events_stream_replays_to_terminal(client):
    job = client.run(REQUEST, timeout_s=120.0)  # cached by now
    kinds = [event for event, _ in client.events(job["id"], timeout_s=30.0)]
    assert kinds[-1] == "done"


def test_unknown_policy_rejected_with_400(client):
    with pytest.raises(ServeError) as excinfo:
        client.submit({"scenario": "S-A", "policy": "SmartSwap",
                       "seconds": 2.0})
    assert excinfo.value.status == 400
    assert "SmartSwap" in str(excinfo.value)


def test_unknown_scenario_rejected_with_400(client):
    with pytest.raises(ServeError) as excinfo:
        client.submit({"scenario": "no-such-scenario", "seconds": 2.0})
    assert excinfo.value.status == 400


def test_unknown_field_rejected_with_400(client):
    with pytest.raises(ServeError) as excinfo:
        client.submit({"scenario": "S-A", "secnds": 2.0})
    assert excinfo.value.status == 400
    assert "unknown request field" in str(excinfo.value)


def test_unknown_job_id_is_404(client):
    with pytest.raises(ServeError) as excinfo:
        client.get("run-does-not-exist")
    assert excinfo.value.status == 404


def test_healthz_reports_ok(client):
    doc = client.healthz()
    assert doc["status"] == "ok"
    assert doc["uptime_s"] >= 0


def test_metrics_scrape_is_valid_prometheus(client):
    from repro.obs.metrics import validate_exposition

    client.run(REQUEST, timeout_s=120.0)  # ensure at least one job ran
    text = client.metrics_text()
    types = validate_exposition(text)
    # The core serve families, with correct types.
    assert types["repro_serve_jobs_submitted_total"] == "counter"
    assert types["repro_serve_cache_evictions_total"] == "counter"
    assert types["repro_serve_queue_wait_seconds"] == "histogram"
    assert types["repro_serve_exec_seconds"] == "histogram"
    assert types["repro_serve_e2e_seconds"] == "histogram"
    assert types["repro_process_rss_bytes"] == "gauge"
    # Histograms carry the full _bucket/_sum/_count shape with labels.
    assert 'repro_serve_e2e_seconds_bucket{priority_class="normal",le="+Inf"}' in text
    assert 'repro_serve_cache_hits_total{tier="memory"}' in text
    assert 'repro_serve_cache_hits_total{tier="disk"}' in text
    # A live RSS sample made it into the scrape.
    rss_line = next(
        line for line in text.splitlines()
        if line.startswith("repro_process_rss_bytes ")
    )
    assert float(rss_line.split()[1]) > 0


def test_stats_reports_latency_memory_tenants_recent(client):
    client.run(REQUEST, timeout_s=120.0)
    stats = client.stats()

    latency = stats["latency"]
    assert set(latency) == {"queue_wait_s", "exec_s", "e2e_s"}
    for name in ("queue_wait_s", "exec_s", "e2e_s"):
        assert latency[name]["normal"]["count"] >= 1
        doc = latency[name]["normal"]
        assert doc["p50"] <= doc["p95"] <= doc["p99"] <= doc["max"] * 1.001

    memory = stats["memory"]
    assert memory["rss_bytes"] > 0
    assert "tracemalloc" in memory
    assert memory["cache_memory_bytes"] >= 0
    assert memory["cache_budget_bytes"] is None or (
        memory["cache_memory_bytes"] <= memory["cache_budget_bytes"]
    )

    # Tier-split cache counters surface in /v1/stats.
    cache = stats["cache"]
    assert {"memory_hits", "disk_hits", "evictions",
            "memory_bytes"} <= set(cache)
    assert cache["hits"] == cache["memory_hits"] + cache["disk_hits"]

    tenants = stats["tenants"]
    assert "default" in tenants
    doc = tenants["default"]
    assert {"rogue_score", "queue_share", "exec_share", "submit_share",
            "failure_rate", "submitted"} <= set(doc)
    assert 0.0 <= doc["rogue_score"] <= 1.0

    recent = stats["recent"]
    assert recent, "recent runs list is empty"
    assert {"id", "state", "tenant", "priority", "scenario"} <= set(recent[0])


def test_completed_job_snapshot_carries_closed_spans(client):
    job = client.submit({**REQUEST, "seed": 31})
    final = client.wait(job["id"], timeout_s=120.0)
    assert final["state"] == "done"
    spans = final["spans"]
    assert spans["queue_wait_s"] >= 0
    assert spans["exec_s"] > 0
    assert spans["store_s"] >= 0
    assert spans["e2e_s"] >= spans["exec_s"]
    # Raw timestamps are ordered: enqueue <= dispatch <= start <= finish.
    assert (final["enqueued_at"] <= final["dispatched_at"]
            <= final["started_at"] <= final["finished_at"])


def test_tenant_label_flows_into_stats(client):
    client.run({**REQUEST, "seed": 32}, timeout_s=120.0, tenant="team-red")
    stats = client.stats()
    assert stats["tenants"]["team-red"]["submitted"] >= 1
    tenant_of = {doc["id"]: doc["tenant"] for doc in stats["recent"]}
    assert "team-red" in tenant_of.values()


def test_bad_tenant_rejected_with_400(client):
    with pytest.raises(ServeError) as excinfo:
        client.submit({**REQUEST, "seed": 33}, tenant="x" * 65)
    assert excinfo.value.status == 400


async def _hold_worker_slot(state):
    """Take the server's one worker slot and keep it.

    The supervisor holds the free slot while it waits for a job, so this
    queues for the slot first and then submits a short run: when that
    run finishes and releases the slot, this waiter is ahead of the
    supervisor's next acquire and gets it.
    """
    import asyncio

    acquired = asyncio.ensure_future(state._slots.acquire())
    await asyncio.sleep(0)  # queued for the slot before the run starts
    _, primer = state.submit({**REQUEST, "seed": 40})
    await acquired
    assert primer.state == "done"


def test_sse_keepalive_comment_frames():
    """An idle follower receives `: ping` comment frames (satellite 2)."""
    import asyncio
    import http.client as http_client

    config = ServeConfig(port=0, workers=1, sse_keepalive_s=0.2)
    with ServerThread(config) as thread:
        client = ServeClient(thread.base_url)
        state = thread.server.state
        loop = thread._loop
        # The test holds the single worker slot, so the watched job stays
        # queued and its stream stays quiet — every frame after "queued"
        # must be a keepalive, however fast the simulator runs.
        asyncio.run_coroutine_threadsafe(
            _hold_worker_slot(state), loop
        ).result(timeout=120.0)
        try:
            job = client.submit({
                "scenario": "S-A", "bg_case": "bg-null",
                "seconds": 2.0, "seed": 41,
            })
            conn = http_client.HTTPConnection(
                client.host, client.port, timeout=30.0
            )
            try:
                conn.request("GET", f"/v1/runs/{job['id']}/events")
                response = conn.getresponse()
                assert response.status == 200
                pings = 0
                for _ in range(200):
                    line = response.readline().decode("utf-8").rstrip("\n")
                    if line.startswith(": ping"):
                        pings += 1
                        if pings >= 2:
                            break
                assert pings >= 2, "no keepalive comment frames seen"
            finally:
                conn.close()
            assert client.get(job["id"])["state"] == "queued"
            client.cancel(job["id"])
        finally:
            loop.call_soon_threadsafe(state._slots.release)
        scrape = client.metrics_text()
        keepalive_line = next(
            line for line in scrape.splitlines()
            if line.startswith("repro_serve_sse_keepalives_total")
        )
        assert float(keepalive_line.split()[1]) >= 2


def test_progress_rows_all_arrive_before_done(monkeypatch):
    """A streaming run delivers every progress row before ``done``, even
    when its result reaches the server ahead of the rows."""
    import time

    from repro.serve.workers import WorkerFleet

    drain = WorkerFleet._drain_progress

    def held_drain(self):
        # Forward no row until the fleet holds the job's result, so the
        # result always overtakes the rows.
        deadline = time.monotonic() + 120.0
        while not self.completed_total and time.monotonic() < deadline:
            time.sleep(0.005)
        drain(self)

    monkeypatch.setattr(WorkerFleet, "_drain_progress", held_drain)
    request = {**REQUEST, "seed": 74}
    rows = []
    run_scenario(
        request["scenario"], policy=request["policy"],
        spec=get_device("P20"), bg_case=BgCase.NULL,
        seconds=request["seconds"], seed=request["seed"],
        sample_interval_ms=250.0,
        on_sample=lambda now_ms, row: rows.append(now_ms),
    )
    with ServerThread(ServeConfig(port=0, workers=1)) as thread:
        client = ServeClient(thread.base_url)
        job = client.submit(request, progress_interval_ms=250.0)
        final = client.wait(job["id"], timeout_s=120.0)
        assert final["state"] == "done", final.get("error")
        events = list(client.events(job["id"], timeout_s=30.0))
    kinds = [kind for kind, _ in events]
    assert kinds[-1] == "done"
    samples = [data["now_ms"] for kind, data in events if kind == "sample"]
    assert samples == rows and rows


def test_late_progress_row_of_a_dead_attempt_is_dropped():
    """A row that the first attempt's worker sent before it died, and
    that arrives after the retry began, does not count as a row of the
    retry, whose rows then all stream."""
    from repro.serve.queue import Job
    from repro.serve.spec import RunRequest
    from repro.serve.state import ServerState

    state = ServerState(ServeConfig(port=0, workers=1))
    job = Job(
        id="j1", request=RunRequest(scenario="S-A", seconds=2.0),
        priority=10, submitted_at=0.0,
    )
    state.table.add(job)

    def row(index):
        return {
            "job_id": job.id, "event": "sample", "row": index,
            "data": {"now_ms": 250.0 * (index + 1)},
        }

    for index in range(3):  # the first attempt, before its worker died
        state._on_progress(row(index))
    job.progress_rows = 0  # the fleet starts the retry
    state._on_progress(row(3))  # late row of the dead attempt
    for index in range(2):
        state._on_progress(row(index))
    assert job.progress_rows == 2
    samples = [e["data"]["now_ms"] for e in job.events if e["event"] == "sample"]
    assert samples == [250.0, 500.0, 750.0, 250.0, 500.0]


def test_sse_follower_receives_done_within_ms_of_finish(client):
    """Followers park on the job's own events instead of polling: the
    `done` frame reaches a live follower a few ms after the run's
    ``finished_at`` (the server loop's clock is ``time.monotonic``)."""
    import statistics
    import time

    lags = []
    for seed in range(6):
        job = client.submit({
            "scenario": "S-A", "bg_case": "bg-null",
            "seconds": 8.0, "seed": 900 + seed,
        })
        received = None
        for kind, _ in client.events(job["id"], timeout_s=60.0):
            if kind == "done":
                received = time.monotonic()
        assert received is not None
        finished_at = client.get(job["id"])["finished_at"]
        lags.append(received - finished_at)
    assert min(lags) > 0, lags
    # A 50 ms poll would put the median near 25 ms.
    assert statistics.median(lags) < 0.010, lags


def test_cache_budget_enforced_end_to_end():
    """A tiny budget forces evictions while answers stay correct."""
    config = ServeConfig(port=0, workers=1, cache_budget_bytes=2048)
    with ServerThread(config) as thread:
        client = ServeClient(thread.base_url)
        results = {}
        for seed in range(50, 56):
            final = client.run({
                "scenario": "S-A", "bg_case": "bg-null",
                "seconds": 2.0, "seed": seed,
            }, timeout_s=120.0)
            assert final["state"] == "done", final.get("error")
            results[seed] = final["result"]
        stats = client.stats()
        cache = stats["cache"]
        assert cache["memory_budget_bytes"] == 2048
        assert cache["memory_bytes"] <= 2048
        assert cache["evictions"] > 0
        # Resubmitting an evicted request still returns the identical
        # result (disk tier or recompute — content address guarantees it).
        final = client.run({
            "scenario": "S-A", "bg_case": "bg-null",
            "seconds": 2.0, "seed": 50,
        }, timeout_s=120.0)
        assert final["result"] == results[50]


def test_queue_backpressure_returns_429():
    # A dedicated tiny server: depth 1 plus one busy worker means the
    # third concurrent submission must be told to back off.
    config = ServeConfig(port=0, workers=1, queue_depth=1)
    with ServerThread(config) as thread:
        client = ServeClient(thread.base_url)
        # Distinct seeds so nothing is answered from cache; long enough
        # that the first is still running when the burst lands.
        jobs, rejected = [], 0
        for seed in range(100, 112):
            try:
                jobs.append(client.submit({
                    "scenario": "S-A", "bg_case": "bg-null",
                    "seconds": 8.0, "seed": seed,
                }))
            except QueueFullError:
                rejected += 1
        assert rejected >= 1, "burst never hit the depth bound"
        stats = client.stats()
        assert stats["queue"]["capacity"] == 1
        # Admitted jobs still complete.
        for job in jobs:
            final = client.wait(job["id"], timeout_s=120.0)
            assert final["state"] == "done", final.get("error")


# ----------------------------------------------------------------------
# HTTP hardening: method/status correctness on malformed traffic
# ----------------------------------------------------------------------
def test_non_get_on_events_route_is_405(client):
    import http.client as http_client

    job = client.run(REQUEST, timeout_s=120.0)
    for method in ("POST", "DELETE", "PUT"):
        conn = http_client.HTTPConnection(client.host, client.port, timeout=10.0)
        try:
            conn.request(method, f"/v1/runs/{job['id']}/events")
            response = conn.getresponse()
            response.read()
            assert response.status == 405, method
        finally:
            conn.close()


def _raw_exchange(client, payload: bytes) -> bytes:
    import socket

    with socket.create_connection((client.host, client.port), timeout=10.0) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def test_malformed_content_length_is_400_not_500(client):
    raw = _raw_exchange(
        client,
        b"POST /v1/runs HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
    )
    assert raw.startswith(b"HTTP/1.1 400 "), raw[:60]
    assert b"Content-Length" in raw


def test_negative_content_length_is_400(client):
    raw = _raw_exchange(
        client,
        b"POST /v1/runs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
    )
    assert raw.startswith(b"HTTP/1.1 400 "), raw[:60]


def test_over_long_header_line_is_400_not_500(client):
    raw = _raw_exchange(
        client,
        b"GET /v1/healthz HTTP/1.1\r\nX-Junk: " + b"a" * 200_000 + b"\r\n\r\n",
    )
    assert raw.startswith(b"HTTP/1.1 400 "), raw[:60]


def test_truncated_body_is_400(client):
    raw = _raw_exchange(
        client,
        b"POST /v1/runs HTTP/1.1\r\nContent-Length: 50\r\n\r\n{}",
    )
    assert raw.startswith(b"HTTP/1.1 400 "), raw[:60]


def test_oversized_body_is_413(client):
    raw = _raw_exchange(
        client,
        b"POST /v1/runs HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n",
    )
    assert raw.startswith(b"HTTP/1.1 413 "), raw[:60]


def test_out_of_range_priority_is_400(client):
    for bad in (-1, 100, 10**9):
        with pytest.raises(ServeError) as excinfo:
            client.submit({**REQUEST}, priority=bad)
        assert excinfo.value.status == 400
        assert "priority" in str(excinfo.value)
    # The bounds themselves are valid.
    for ok in (0, 99):
        job = client.submit({**REQUEST}, priority=ok)
        assert job["priority"] == ok


# ----------------------------------------------------------------------
# Stats/metrics consistency (one accounting path)
# ----------------------------------------------------------------------
def test_stats_totals_exactly_match_metrics_counters(client):
    import time

    from repro.bench.soak import check_consistency

    client.run(REQUEST, timeout_s=120.0)
    client.run({**REQUEST, "seed": 61}, timeout_s=120.0)
    # Quiesce so both scrapes read settled ledgers.
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        stats = client.stats()
        if stats["queue"]["depth"] == 0 and stats["jobs"]["running"] == 0:
            break
        time.sleep(0.05)
    failures = check_consistency(client.stats(), client.metrics_text())
    assert failures == [], failures


# ----------------------------------------------------------------------
# Retention: tombstones, 410s, and the recent ring
# ----------------------------------------------------------------------
def test_evicted_job_answers_410_with_tombstone_summary():
    config = ServeConfig(
        port=0, workers=1,
        job_budget_bytes=1,       # evict every terminal job immediately
        job_min_retention_s=0.0,
    )
    with ServerThread(config) as thread:
        client = ServeClient(thread.base_url)
        # A 1-byte budget can evict the run before a poll ever sees the
        # terminal snapshot, so completion is observed via the SSE
        # stream (opened while the job is still live) instead of run().
        job = client.submit({**REQUEST, "seconds": 20.0, "seed": 70})
        kinds = [kind for kind, _ in client.events(job["id"], timeout_s=120.0)]
        assert kinds[-1] == "done"

        # GET: 410 Gone carrying the tombstone, never 404.
        with pytest.raises(ServeError) as excinfo:
            client.get(job["id"])
        assert excinfo.value.status == 410
        doc = excinfo.value.body
        assert doc["id"] == job["id"]
        assert doc["evicted"] is True
        assert doc["state"] == "done"
        assert doc["cache_key"] == job["cache_key"]
        assert "evicted from the retention window" in doc["error"]

        # DELETE and the SSE route see the same 410.
        with pytest.raises(ServeError) as excinfo:
            client.cancel(job["id"])
        assert excinfo.value.status == 410
        with pytest.raises(ServeError) as excinfo:
            list(client.events(job["id"], timeout_s=10.0))
        assert excinfo.value.status == 410

        # A genuinely unknown id is still 404.
        with pytest.raises(ServeError) as excinfo:
            client.get("run-never-existed")
        assert excinfo.value.status == 404

        # The fleet console's recent ring tolerates evicted entries.
        stats = client.stats()
        assert stats["retention"]["evicted_total"] >= 1
        recent = {doc["id"]: doc for doc in stats["recent"]}
        assert recent[job["id"]]["evicted"] is True
        assert recent[job["id"]]["state"] == "done"


def test_job_table_budget_bounds_retained_bytes():
    config = ServeConfig(
        port=0, workers=1,
        job_budget_bytes=16 * 1024,
        job_min_retention_s=0.0,
    )
    with ServerThread(config) as thread:
        client = ServeClient(thread.base_url)
        client.run({**REQUEST, "seed": 71}, timeout_s=120.0)
        for _ in range(40):  # cache hits: cheap terminal jobs
            client.submit({**REQUEST, "seed": 71})
        stats = client.stats()
        retention = stats["retention"]
        assert retention["budget_bytes"] == 16 * 1024
        assert retention["terminal_bytes"] <= 16 * 1024
        assert retention["evicted_total"] > 0
        # Tombstone gauges flow into /metrics too.
        from repro.obs.metrics import family_total, parse_samples
        samples = parse_samples(client.metrics_text())
        assert (
            family_total(samples, "repro_serve_jobs_evicted_total")
            == retention["evicted_total"]
        )
        assert (
            samples["repro_serve_job_table_bytes"]
            == retention["terminal_bytes"]
        )


# ----------------------------------------------------------------------
# Event-list cap + SSE dropped_events marker
# ----------------------------------------------------------------------
def test_sse_follower_sees_dropped_events_marker():
    config = ServeConfig(port=0, workers=1, max_events_per_job=4)
    with ServerThread(config) as thread:
        client = ServeClient(thread.base_url)
        # Dense progress sampling emits far more than 4 events.
        job = client.submit(
            {**REQUEST, "seed": 72}, progress_interval_ms=10.0
        )
        final = client.wait(job["id"], timeout_s=120.0)
        assert final["state"] == "done"
        assert final["events_dropped"] > 0

        events = list(client.events(job["id"], timeout_s=30.0))
        kinds = [kind for kind, _ in events]
        assert kinds[0] == "dropped_events"
        assert kinds[-1] == "done"
        marker = events[0][1]
        assert marker["dropped"] > 0
        assert marker["total_dropped"] >= marker["dropped"]
        # The replayed tail fits the cap: marker + at most 4 retained.
        assert len(events) <= 5

        stats = client.stats()
        assert stats["jobs"]["events_dropped_total"] > 0


# ----------------------------------------------------------------------
# Worker-slot accounting across deadline timeouts
# ----------------------------------------------------------------------
def test_timed_out_job_cannot_oversubscribe_the_worker():
    import time

    config = ServeConfig(port=0, workers=1)
    with ServerThread(config) as thread:
        client = ServeClient(thread.base_url)
        # Several seconds of wall clock (~260 sim-s/wall-s), but a 0.5s
        # deadline: the await is cancelled while the pool process keeps
        # simulating.
        doomed = client.submit({
            "scenario": "S-A", "bg_case": "bg-null",
            "seconds": 2000.0, "seed": 80,
        }, timeout_s=0.5)
        follower = client.submit({
            "scenario": "S-A", "bg_case": "bg-null",
            "seconds": 2.0, "seed": 81,
        })
        final = client.wait(doomed["id"], timeout_s=30.0)
        assert final["state"] in ("failed", "expired")
        assert "deadline exceeded" in final["error"]

        # While the abandoned attempt still occupies the pool, the slot
        # stays held: the follower must not be running.
        stats = client.stats()
        if stats["workers"]["abandoned"] == 1:
            assert stats["workers"]["busy"] == 1
            assert client.get(follower["id"])["state"] == "queued"

        # Once the attempt returns, the slot frees and the follower runs.
        final = client.wait(follower["id"], timeout_s=120.0)
        assert final["state"] == "done", final.get("error")
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            stats = client.stats()
            if stats["workers"]["abandoned"] == 0:
                break
            time.sleep(0.1)
        assert stats["workers"]["abandoned"] == 0
        assert stats["workers"]["abandoned_total"] >= 1
        assert stats["workers"]["busy"] == 0
