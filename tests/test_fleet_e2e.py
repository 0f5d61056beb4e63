"""End-to-end fleet tests: coordinator + real nodes over real sockets.

Everything here runs in-process (daemon-thread event loops via
repro.fleet.testing) but over genuine HTTP: registration, heartbeats,
consistent-hash proxying, shared-store cache answers, rate limiting,
heartbeat-timeout eviction with in-flight resubmission, and the SSE
cursor-reconnect protocol.
"""

import http.client
import json
import time

import pytest

from repro.fleet.coordinator import CoordinatorConfig
from repro.fleet.loadtest import LoadtestConfig, generate_mix, run_level
from repro.fleet.testing import CoordinatorThread, FleetNodeThread
from repro.obs.metrics import family_total, parse_samples
from repro.serve.client import QueueFullError, ServeClient
from repro.serve.http import ServeConfig
from repro.serve.queue import DEFAULT_TENANT
from repro.serve.testing import ServerThread


def _node_config(store, node_id, **overrides):
    base = dict(
        port=0, workers=1, cache_dir=str(store), node_id=node_id,
        drain_grace_s=5.0,
    )
    base.update(overrides)
    return ServeConfig(**base)


def _wait_for_nodes(client, count, timeout_s=15.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if client.healthz()["nodes_alive"] == count:
            return
        time.sleep(0.05)
    raise TimeoutError(f"fleet never reached {count} live nodes")


@pytest.fixture
def fleet(tmp_path):
    """Coordinator + 2 nodes sharing one content-addressed store."""
    store = tmp_path / "store"
    store.mkdir()
    coord = CoordinatorThread(CoordinatorConfig(
        port=0, heartbeat_timeout_s=1.0, sweep_interval_s=0.2,
    ))
    coord.start()
    nodes = [
        FleetNodeThread(
            _node_config(store, f"n{i}"), coord.base_url,
            heartbeat_interval_s=0.2,
        ).start()
        for i in (1, 2)
    ]
    client = ServeClient(coord.base_url)
    _wait_for_nodes(client, 2)
    try:
        yield coord, nodes, client, store
    finally:
        for node in nodes:
            node.stop(timeout_s=15.0)
        coord.stop(timeout_s=15.0)


# ----------------------------------------------------------------------
# Routing + shared store
# ----------------------------------------------------------------------
def test_fleet_serves_mixed_tenant_mix_without_loss(fleet, tmp_path):
    coord, nodes, client, store = fleet
    config = LoadtestConfig(
        base_url=coord.base_url, requests=24, concurrency=4, seed=11,
        duplicate_fraction=0.3, wait_timeout_s=120.0,
    )
    mix = generate_mix(config)
    # Shrink the work so the whole mix clears in seconds.
    for payload in mix:
        payload["seconds"] = 20.0
    level = run_level(config, mix, config.concurrency)
    records = level.pop("_records")
    assert level["lost"] == 0
    assert level["duplicated"] == 0
    assert level["errors"] == 0
    assert level["completed"] == 24
    assert level["cache_hits"] > 0  # the duplicate fraction did its job

    # Zero lost also from the fleet's own accounting.
    stats = client.stats()
    assert stats["jobs"]["submitted_total"] == 24
    assert stats["jobs"]["in_flight"] == 0

    # Both nodes actually served traffic (consistent-hash spread).
    owners = {client.get(r.job_id)["node"] for r in records}
    assert owners == {"n1", "n2"}

    # Results are bit-identical to a standalone single-node serve.
    probe = dict(records[0].payload)
    fleet_result = client.get(records[0].job_id)["result"]
    solo_store = tmp_path / "solo"
    solo_store.mkdir()
    with ServerThread(ServeConfig(
        port=0, workers=1, cache_dir=str(solo_store)
    )) as solo:
        solo_result = ServeClient(solo.base_url).run(
            probe, timeout_s=120.0
        )["result"]
    assert solo_result == fleet_result


def test_cache_hit_answered_by_non_originating_node(fleet):
    coord, nodes, client, store = fleet
    payload = {
        "scenario": "S-A", "bg_case": "bg-null",
        "seconds": 20.0, "seed": 901, "tenant": "cross",
    }
    job = client.submit(payload)
    final = client.wait(job["id"], timeout_s=120.0)
    assert final["state"] == "done"
    origin = final["node"]
    other = next(n for n in nodes if n.config.node_id != origin)

    # The other node never ran this request, yet answers it terminally
    # from the shared store on submission.
    cross = ServeClient(other.base_url).submit(payload)
    assert cross["state"] == "done"
    assert cross["cache_hit"] is True
    assert cross["result"] == final["result"]

    # Same submission through the coordinator routes to the origin and
    # is a cache hit there too.
    again = client.submit(payload)
    assert again["state"] == "done"
    assert again["cache_hit"] is True
    assert again["node"] == origin


def test_killed_node_is_evicted_and_inflight_jobs_resubmitted(fleet):
    coord, nodes, client, store = fleet
    # Submit slow jobs until both nodes hold an in-flight one, so the
    # kill below is guaranteed to orphan something (routing is by
    # content, so which node gets which seed isn't ours to pick).
    placed = {}
    seed = 5000
    while len(placed) < 2:
        job = client.submit({
            "scenario": "S-A", "bg_case": "bg-null",
            "seconds": 1500.0, "seed": seed, "tenant": "failover",
        })
        placed.setdefault(job["node"], job["id"])
        seed += 1
    victim = next(n for n in nodes if n.config.node_id in placed)
    victim_id = victim.config.node_id
    orphan = placed[victim_id]

    victim.kill()
    deadline = time.monotonic() + 15.0
    while time.monotonic() < deadline:
        stats = client.stats()
        if (
            stats["evictions"]["nodes_evicted_total"] >= 1
            and stats["jobs"]["resubmitted_total"] >= 1
        ):
            break
        time.sleep(0.1)
    stats = client.stats()
    assert stats["evictions"]["nodes_evicted_total"] >= 1
    assert stats["jobs"]["resubmitted_total"] >= 1
    assert client.healthz()["nodes_alive"] == 1

    # The orphaned job id keeps resolving and completes on a survivor.
    final = client.wait(orphan, timeout_s=120.0)
    assert final["state"] == "done"
    assert final["id"] == orphan
    assert final["node"] != victim_id

    # Eviction removed the dead node's up-series but kept the
    # survivor's.
    samples = parse_samples(client.metrics_text())
    ups = [
        key for key in samples
        if key.startswith("repro_fleet_node_up{")
    ]
    assert f'repro_fleet_node_up{{node="{victim_id}"}}' not in samples
    assert len(ups) == 1


# ----------------------------------------------------------------------
# Rate limiting
# ----------------------------------------------------------------------
def test_coordinator_ratelimits_with_retry_after(tmp_path):
    store = tmp_path / "store"
    store.mkdir()
    with CoordinatorThread(CoordinatorConfig(
        port=0, heartbeat_timeout_s=5.0, sweep_interval_s=1.0,
        ratelimit_rps=0.5, ratelimit_burst=2.0,
    )) as coord:
        node = FleetNodeThread(
            _node_config(store, "n1"), coord.base_url,
            heartbeat_interval_s=0.2,
        ).start()
        try:
            client = ServeClient(coord.base_url)
            _wait_for_nodes(client, 1)
            payload = {
                "scenario": "S-A", "bg_case": "bg-null",
                "seconds": 20.0, "seed": 31, "tenant": "greedy",
            }
            assert client.submit(payload)["id"]
            assert client.submit(payload)["id"]  # burst of 2 spent
            with pytest.raises(QueueFullError) as exc_info:
                client.submit(payload)
            body = exc_info.value.body
            assert body["ratelimited"] is True
            assert body["tenant"] == "greedy"
            assert exc_info.value.retry_after_s > 0

            # The Retry-After header is on the wire, not just the body.
            conn = http.client.HTTPConnection(
                client.host, client.port, timeout=10.0
            )
            try:
                conn.request(
                    "POST", "/v1/runs", body=json.dumps(payload),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                response.read()
                assert response.status == 429
                assert int(response.getheader("Retry-After")) >= 1
            finally:
                conn.close()

            # stats <-> metrics agreement for the new families.
            stats = client.stats()
            assert stats["ratelimit"]["rejected_total"] == 2
            assert (
                stats["ratelimit"]["tenants"]["greedy"]["rejected"] == 2
            )
            text = client.metrics_text()
            assert family_total(
                parse_samples(text), "repro_fleet_ratelimited_total"
            ) == 2
        finally:
            node.stop(timeout_s=15.0)


def test_untagged_submission_is_one_tenant_fleet_wide(tmp_path):
    # The coordinator's limiter and the node's accounting must name an
    # untagged submission alike, or one client's traffic shows up as two
    # tenants in the two /v1/stats documents.
    store = tmp_path / "store"
    store.mkdir()
    with CoordinatorThread(CoordinatorConfig(
        port=0, heartbeat_timeout_s=5.0, sweep_interval_s=1.0,
        ratelimit_rps=50.0,
    )) as coord:
        node = FleetNodeThread(
            _node_config(store, "n1"), coord.base_url,
            heartbeat_interval_s=0.2,
        ).start()
        try:
            client = ServeClient(coord.base_url)
            _wait_for_nodes(client, 1)
            job = client.submit({
                "scenario": "S-A", "bg_case": "bg-null",
                "seconds": 1.0, "seed": 41,
            })
            client.wait(job["id"], timeout_s=120.0)
            coordinator_tenants = set(client.stats()["ratelimit"]["tenants"])
            node_tenants = set(ServeClient(node.base_url).stats()["tenants"])
            assert coordinator_tenants == node_tenants == {DEFAULT_TENANT}
        finally:
            node.stop(timeout_s=15.0)


def test_node_side_ratelimit_and_misroute_counter(tmp_path):
    config = ServeConfig(
        port=0, workers=1, cache_dir=str(tmp_path), node_id="lonely",
        ratelimit_rps=0.5, ratelimit_burst=1.0,
    )
    with ServerThread(config) as thread:
        client = ServeClient(thread.base_url)
        payload = {
            "scenario": "S-A", "bg_case": "bg-null",
            "seconds": 20.0, "seed": 77, "tenant": "t",
        }
        assert client.submit(payload)["id"]
        with pytest.raises(QueueFullError) as exc_info:
            client.submit(payload)
        body = exc_info.value.body
        assert body["ratelimited"] is True
        assert body["tenant"] == "t"
        assert exc_info.value.retry_after_s > 0

        # A submission stamped for a different node still serves, but
        # bumps the misroute counter.  (Sleep past the rate limit.)
        time.sleep(2.1)
        conn = http.client.HTTPConnection(
            client.host, client.port, timeout=10.0
        )
        try:
            conn.request(
                "POST", "/v1/runs", body=json.dumps(payload),
                headers={
                    "Content-Type": "application/json",
                    "X-Repro-Route-Node": "somebody-else",
                },
            )
            response = conn.getresponse()
            doc = json.loads(response.read())
            assert response.status in (200, 202)
            client.wait(doc["id"], timeout_s=120.0)
        finally:
            conn.close()

        stats = client.stats()
        assert stats["fleet"]["node_id"] == "lonely"
        assert stats["fleet"]["misrouted_total"] == 1
        assert stats["ratelimit"]["rejected_total"] == 1
        samples = parse_samples(client.metrics_text())
        assert family_total(samples, "repro_fleet_misrouted_total") == 1
        assert family_total(samples, "repro_fleet_ratelimited_total") == 1


def test_events_follow_through_coordinator_redirect(fleet):
    # The coordinator answers /events with a 307 to the owning node;
    # the client must chase it and stream the real history.
    coord, nodes, client, store = fleet
    job = client.submit({
        "scenario": "S-A", "bg_case": "bg-null",
        "seconds": 60.0, "seed": 402, "tenant": "sse",
    })
    events = list(client.follow(job["id"], timeout_s=120.0))
    kinds = [event for event, _ in events]
    assert kinds[-1] == "done"
    assert "queued" in kinds or "started" in kinds
    # Cursor resume rides through the redirect too (the coordinator
    # forwards ?cursor=N in the Location it hands back).
    tail = list(client.events(job["id"], timeout_s=60.0, cursor=1))
    assert [e for e, _ in tail] == kinds[1:]


# ----------------------------------------------------------------------
# SSE cursors + follow()
# ----------------------------------------------------------------------
def test_sse_cursor_resumes_mid_history(tmp_path):
    with ServerThread(ServeConfig(
        port=0, workers=1, cache_dir=str(tmp_path)
    )) as thread:
        client = ServeClient(thread.base_url)
        job = client.submit({
            "scenario": "S-A", "bg_case": "bg-null",
            "seconds": 60.0, "seed": 55,
        }, progress_interval_ms=5000.0)
        full = list(client.events(job["id"], timeout_s=120.0))
        assert len(full) >= 3  # queued, started, ..., done
        assert full[-1][0] == "done"

        # Resuming from cursor=2 replays exactly the tail.
        tail = list(client.events(job["id"], timeout_s=60.0, cursor=2))
        assert tail == full[2:]

        # A cursor past the end of a terminal job yields nothing and
        # closes (this is what a reconnect-after-terminal looks like).
        empty = list(
            client.events(job["id"], timeout_s=60.0, cursor=len(full))
        )
        assert empty == []


def test_follow_survives_a_dropped_connection(tmp_path):
    with ServerThread(ServeConfig(
        port=0, workers=1, cache_dir=str(tmp_path)
    )) as thread:
        class FlakyClient(ServeClient):
            """Kills the first stream after one event, like a mid-run
            socket reset; follow() must resume from its cursor."""

            drops_left = 1

            def _events_once(self, job_id, cursor, timeout_s):
                count = 0
                for item in super()._events_once(
                    job_id, cursor, timeout_s
                ):
                    yield item
                    count += 1
                    if count >= 1 and FlakyClient.drops_left > 0:
                        FlakyClient.drops_left -= 1
                        raise ConnectionResetError("injected drop")

        steady = ServeClient(thread.base_url)
        job = steady.submit({
            "scenario": "S-A", "bg_case": "bg-null",
            "seconds": 60.0, "seed": 56,
        }, progress_interval_ms=5000.0)
        expected = list(steady.events(job["id"], timeout_s=120.0))

        flaky = FlakyClient(thread.base_url)
        seen = list(flaky.follow(job["id"], timeout_s=120.0))
        # The drop cost a reconnect, not events: identical sequence,
        # nothing replayed, nothing missing.
        assert seen == expected
        assert FlakyClient.drops_left == 0
