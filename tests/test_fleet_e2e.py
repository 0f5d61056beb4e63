"""End-to-end fleet tests: coordinator + real nodes over real sockets.

Everything here runs in-process (daemon-thread event loops via
repro.fleet.testing) but over genuine HTTP: registration, heartbeats,
consistent-hash proxying, shared-store cache answers, rate limiting,
heartbeat-timeout eviction with in-flight resubmission, graceful and
SIGTERM leaves, and the SSE cursor-reconnect protocol.
"""

import http.client
import json
import time
from itertools import islice

import pytest

from repro.fleet.coordinator import CoordinatorConfig
from repro.fleet.loadtest import LoadtestConfig, generate_mix, run_level
from repro.fleet.testing import CoordinatorThread, FleetNodeThread
from repro.obs.metrics import family_total, parse_samples
from repro.serve.client import QueueFullError, ServeClient, ServeError
from repro.serve.http import ServeConfig
from repro.serve.queue import DEFAULT_TENANT, parse_submission
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


def _wait_for(predicate, timeout_s):
    """Poll ``predicate`` until it holds; False if it never did."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


def _in_flight(client):
    return client.stats()["jobs"]["in_flight"]


def _last_event(client, job_id):
    """Follow a run over SSE only (no GET) and return its last event."""
    return [kind for kind, _ in client.events(job_id, timeout_s=120.0)][-1]


def _routed_to(ring, node_id, seconds, seed):
    """The first payload from ``seed`` up that the ring sends to ``node_id``."""
    while True:
        payload = {"scenario": "S-A", "bg_case": "bg-null",
                   "seconds": seconds, "seed": seed}
        _, request = parse_submission(payload)
        if ring.route(request.cache_key()) == node_id:
            return payload
        seed += 1


def _raw_post(client, path, body: bytes):
    conn = http.client.HTTPConnection(client.host, client.port, timeout=10.0)
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


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
    mix = list(islice(generate_mix(config), config.requests))
    # Shrink the work so the whole mix clears in seconds.
    for payload in mix:
        payload["seconds"] = 20.0
    jobs = []
    level = run_level(config, mix, config.concurrency, between=jobs.append)
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
    owners = {client.get(job["id"])["node"] for job in jobs}
    assert owners == {"n1", "n2"}

    # Results are bit-identical to a standalone single-node serve.
    probe = jobs[0]["request"]
    fleet_result = client.get(jobs[0]["id"])["result"]
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


def test_reported_runs_are_not_replayed_when_their_node_dies(fleet):
    # A run its client followed over SSE on the node reaches the
    # coordinator's table on a heartbeat, so the failover after its
    # node dies replays only the run still in flight, and that run's
    # new owner reports it under its own id.
    coord, nodes, client, store = fleet
    victim, survivor = nodes
    victim_id = victim.config.node_id
    ring = coord.coordinator.ring

    finished = client.submit(_routed_to(ring, victim_id, 5.0, 6000))
    assert finished["node"] == victim_id
    assert _last_event(client, finished["id"]) == "done"
    assert _wait_for(lambda: _in_flight(client) == 0, timeout_s=2.0)

    orphan = client.submit(_routed_to(ring, victim_id, 600.0, 7000))
    assert orphan["node"] == victim_id
    victim.kill()
    assert _wait_for(
        lambda: client.stats()["jobs"]["resubmitted_total"] >= 1,
        timeout_s=15.0,
    )
    time.sleep(0.5)  # a second, wrong replay would land by now
    stats = client.stats()
    assert stats["evictions"]["nodes_evicted_total"] == 1
    assert stats["jobs"]["resubmitted_total"] == 1

    assert _last_event(client, orphan["id"]) == "done"
    assert _wait_for(lambda: _in_flight(client) == 0, timeout_s=2.0)
    final = client.get(orphan["id"])
    assert final["state"] == "done"
    assert final["id"] == orphan["id"]
    assert final["node"] == survivor.config.node_id


def test_orphan_waits_for_a_node_and_is_replayed_when_one_joins(tmp_path):
    # The only node dies with a run in flight, so its eviction finds no
    # node to replay the run on; the next sweeps must place it once a
    # node registers, instead of leaving it in flight for good.
    store = tmp_path / "store"
    store.mkdir()
    with CoordinatorThread(CoordinatorConfig(
        port=0, heartbeat_timeout_s=1.0, sweep_interval_s=0.2,
    )) as coord:
        client = ServeClient(coord.base_url)
        nodes = [FleetNodeThread(
            _node_config(store, "n1"), coord.base_url, heartbeat_interval_s=0.2,
        ).start()]
        try:
            _wait_for_nodes(client, 1)
            orphan = client.submit({"scenario": "S-A", "bg_case": "bg-null",
                                    "seconds": 300.0, "seed": 8100})
            assert orphan["node"] == "n1"
            nodes[0].kill()
            _wait_for_nodes(client, 0)
            assert client.stats()["jobs"]["resubmitted_total"] == 0
            nodes.append(FleetNodeThread(
                _node_config(store, "n2"), coord.base_url,
                heartbeat_interval_s=0.2,
            ).start())
            assert _wait_for(
                lambda: client.stats()["jobs"]["resubmitted_total"] >= 1,
                timeout_s=15.0,
            )
            final = client.wait(orphan["id"], timeout_s=120.0)
            assert final["state"] == "done"
            assert final["id"] == orphan["id"]
            assert final["node"] == "n2"
            assert client.stats()["jobs"]["resubmitted_total"] == 1
        finally:
            for node in nodes:
                node.stop(timeout_s=15.0)


# ----------------------------------------------------------------------
# Leaving the fleet: SIGTERM and stop() leave the ring, drain, report
# ----------------------------------------------------------------------
def test_sigterm_leaves_the_ring_then_reports_the_drained_run(tmp_path):
    # A `repro serve --coordinator` node that gets SIGTERM leaves the
    # ring before it drains, so the fleet stops routing to it, and
    # reports the run its drain finished before it exits.
    import os
    import signal
    import subprocess
    import sys
    from pathlib import Path

    store = tmp_path / "store"
    store.mkdir()
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    with CoordinatorThread(CoordinatorConfig(
        port=0, heartbeat_timeout_s=30.0, sweep_interval_s=0.2,
    )) as coord:
        client = ServeClient(coord.base_url)
        survivor = FleetNodeThread(
            _node_config(store, "n2"), coord.base_url,
            heartbeat_interval_s=0.2,
        ).start()
        leaver = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--node-id", "n1",
             "--coordinator", coord.base_url, "--cache-dir", str(store),
             "--heartbeat-every", "0.5"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            _wait_for_nodes(client, 2, timeout_s=60.0)
            ring = coord.coordinator.ring
            job = client.submit(_routed_to(ring, "n1", 600.0, 9000))
            assert job["node"] == "n1"
            assert _wait_for(
                lambda: client.get(job["id"])["state"] == "running",
                timeout_s=30.0,
            )
            later = _routed_to(ring, "n1", 5.0, 9100)
            leaver.send_signal(signal.SIGTERM)
            _wait_for_nodes(client, 1)
            assert leaver.poll() is None  # still draining the 600 s run
            # Routed by content to n1, served by the node left on the ring.
            served = client.submit(later)
            assert served["node"] == "n2"
            assert client.wait(served["id"], timeout_s=60.0)["state"] == "done"
            assert leaver.wait(timeout=60.0) == 0
            assert _in_flight(client) == 0
            # The drained run's node is gone; n2 answers from the store.
            final = client.get(job["id"])
            assert final["state"] == "done"
            assert final["id"] == job["id"]
            assert final["node"] == "n2"
            assert client.stats()["jobs"]["resubmitted_total"] == 0
        finally:
            if leaver.poll() is None:
                os.killpg(leaver.pid, signal.SIGKILL)
                leaver.wait()
            survivor.stop(timeout_s=15.0)


def test_graceful_leave_strands_no_run_in_flight(tmp_path):
    # stop() leaves the ring and drains; the run that finishes in the
    # drain is reported after it, and a node that joins later answers
    # for it from the shared store.
    store = tmp_path / "store"
    store.mkdir()
    with CoordinatorThread(CoordinatorConfig(
        port=0, heartbeat_timeout_s=30.0, sweep_interval_s=0.2,
    )) as coord:
        client = ServeClient(coord.base_url)
        nodes = [FleetNodeThread(
            _node_config(store, "n1"), coord.base_url,
            heartbeat_interval_s=0.2,
        ).start()]
        try:
            _wait_for_nodes(client, 1)
            job = client.submit({"scenario": "S-A", "bg_case": "bg-null",
                                 "seconds": 400.0, "seed": 11})
            assert _wait_for(
                lambda: client.get(job["id"])["state"] == "running",
                timeout_s=30.0,
            )
            nodes[0].stop(timeout_s=30.0)
            assert _in_flight(client) == 0
            nodes.append(FleetNodeThread(
                _node_config(store, "n2"), coord.base_url,
                heartbeat_interval_s=0.2,
            ).start())
            _wait_for_nodes(client, 1)
            final = client.get(job["id"])
            assert final["state"] == "done"
            assert final["id"] == job["id"]
            assert final["node"] == "n2"
            assert client.stats()["jobs"]["resubmitted_total"] == 0
        finally:
            for node in nodes:
                node.stop(timeout_s=15.0)


def test_run_of_a_node_that_left_then_died_is_replayed_unasked(tmp_path):
    # A node that left the ring and died before its last report leaves
    # its run in flight with no heartbeat to lapse; the sweep asks after
    # the run, finds no owner, and replays it with no client request.
    store = tmp_path / "store"
    store.mkdir()
    with CoordinatorThread(CoordinatorConfig(
        port=0, heartbeat_timeout_s=1.0, sweep_interval_s=0.2,
    )) as coord:
        client = ServeClient(coord.base_url)
        nodes = [
            FleetNodeThread(
                _node_config(store, node_id), coord.base_url,
                heartbeat_interval_s=0.2,
            ).start()
            for node_id in ("n1", "n2")
        ]
        try:
            _wait_for_nodes(client, 2)
            table = coord.coordinator.table
            job = client.submit(
                _routed_to(coord.coordinator.ring, "n1", 1500.0, 9400))
            assert job["node"] == "n1"
            # Killed first, so no heartbeat can re-register n1 after the
            # DELETE takes it off the ring.
            nodes[0].kill()
            conn = http.client.HTTPConnection(
                client.host, client.port, timeout=10.0)
            try:
                conn.request("DELETE", "/v1/nodes/n1")
                assert conn.getresponse().status == 200
            finally:
                conn.close()
            assert _wait_for(
                lambda: client.stats()["jobs"]["resubmitted_total"] == 1,
                timeout_s=15.0,
            )
            assert table.get(job["id"]).node_id == "n2"
            stats = client.stats()
            assert stats["evictions"]["nodes_evicted_total"] == 0
            assert stats["jobs"]["in_flight"] == 1
        finally:
            for node in nodes:
                node.stop(timeout_s=15.0)


def test_finished_run_stays_reachable_after_its_node_leaves(fleet):
    coord, nodes, client, store = fleet
    job = client.submit({"scenario": "S-A", "bg_case": "bg-null",
                         "seconds": 5.0, "seed": 9200})
    assert client.wait(job["id"], timeout_s=60.0)["state"] == "done"
    owner = next(n for n in nodes if n.config.node_id == job["node"])
    survivor = next(n for n in nodes if n is not owner)
    owner.stop(timeout_s=15.0)
    _wait_for_nodes(client, 1)
    stats = client.stats()["jobs"]
    assert stats["terminal"] == 1 and stats["in_flight"] == 0
    # A follower is sent to the survivor, which answers from the store.
    assert _last_event(client, job["id"]) == "done"
    final = client.get(job["id"])
    assert final["state"] == "done"
    assert final["id"] == job["id"]
    assert final["node"] == survivor.config.node_id
    assert client.stats()["jobs"]["resubmitted_total"] == 0


def test_run_stays_unreachable_with_no_node_alive(tmp_path):
    store = tmp_path / "store"
    store.mkdir()
    with CoordinatorThread(CoordinatorConfig(
        port=0, heartbeat_timeout_s=30.0, sweep_interval_s=0.2,
    )) as coord:
        client = ServeClient(coord.base_url)
        node = FleetNodeThread(
            _node_config(store, "n1"), coord.base_url,
            heartbeat_interval_s=0.2,
        ).start()
        _wait_for_nodes(client, 1)
        job = client.submit({"scenario": "S-A", "bg_case": "bg-null",
                             "seconds": 5.0, "seed": 9300})
        assert client.wait(job["id"], timeout_s=60.0)["state"] == "done"
        node.stop(timeout_s=15.0)
        with pytest.raises(ServeError) as exc_info:
            client.get(job["id"])
        assert exc_info.value.status == 503


# ----------------------------------------------------------------------
# One job table for both tiers
# ----------------------------------------------------------------------
@pytest.fixture
def tight_fleet(tmp_path):
    """Coordinator + one node with a 4 KB job budget and 0 s retention."""
    store = tmp_path / "store"
    store.mkdir()
    coord = CoordinatorThread(CoordinatorConfig(
        port=0, heartbeat_timeout_s=5.0, sweep_interval_s=0.2,
    ))
    coord.start()
    node = FleetNodeThread(
        _node_config(
            store, "n1", job_budget_bytes=4096, job_min_retention_s=0.0,
            mem_sample_interval_s=0.2,
        ),
        coord.base_url, heartbeat_interval_s=0.2,
    ).start()
    client = ServeClient(coord.base_url)
    _wait_for_nodes(client, 1)
    try:
        yield coord, node, client
    finally:
        node.stop(timeout_s=15.0)
        coord.stop(timeout_s=15.0)


def _followed_runs_then_duplicates(client, duplicates=60):
    """Three runs followed to ``done`` over SSE only, then cache hits."""
    ids = []
    for seed in (1, 2, 3):
        payload = {"scenario": "S-A", "bg_case": "bg-null",
                   "seconds": 5.0, "seed": seed}
        job = client.submit(payload)
        ids.append(job["id"])
        assert _last_event(client, job["id"]) == "done"
    for i in range(duplicates):
        job = client.submit({"scenario": "S-A", "bg_case": "bg-null",
                             "seconds": 5.0, "seed": 1 + i % 3})
        assert job["cache_hit"] is True
    return ids


def test_runs_followed_over_sse_leave_nothing_in_flight(tight_fleet):
    # The coordinator answers /events with a 307, so it never sees the
    # stream end; the node's heartbeat tells it instead, with no GET.
    coord, node, client = tight_fleet
    _followed_runs_then_duplicates(client)
    assert _wait_for(lambda: _in_flight(client) == 0, timeout_s=2 * 0.2 + 1.0)
    jobs = client.stats()["jobs"]
    assert jobs["submitted_total"] == 63
    assert jobs["tracked"] == jobs["terminal"] == 63


def test_coordinator_table_is_bounded_and_answers_410(tight_fleet):
    coord, node, client = tight_fleet
    table = coord.coordinator.table
    table.budget_bytes = 2048
    table.min_retention_s = 0.0
    first, *_ = _followed_runs_then_duplicates(client, duplicates=0)
    # The followed runs finish before any cache hit, so they go first.
    assert _wait_for(lambda: _in_flight(client) == 0, timeout_s=2.0)
    _followed_runs_then_duplicates(client)
    stats = client.stats()
    assert stats["jobs"]["submitted_total"] == 66
    assert stats["jobs"]["tracked"] <= 20
    assert stats["retention"]["evicted_total"] >= 66 - 20
    assert stats["jobs"]["in_flight"] == 0

    # The coordinator evicted the first run itself and answers from its
    # own tombstone, for a poll and for a follower alike.
    assert table.get(first) is None
    for read in (client.get, lambda job_id: list(client.events(job_id))):
        with pytest.raises(ServeError) as exc_info:
            read(first)
        assert exc_info.value.status == 410
        body = exc_info.value.body
        assert body["id"] == first
        assert body["evicted"] is True
        assert body["state"] == "done"
        assert body["node"] == "n1"


def test_node_410_through_the_coordinator_marks_the_run_terminal(tmp_path):
    # Heartbeats are slow here, so the coordinator can only learn that
    # the run ended from the node's 410 to a proxied GET.
    store = tmp_path / "store"
    store.mkdir()
    with CoordinatorThread(CoordinatorConfig(
        port=0, heartbeat_timeout_s=120.0, sweep_interval_s=1.0,
    )) as coord:
        node = FleetNodeThread(
            _node_config(
                store, "n1", job_budget_bytes=1, job_min_retention_s=0.0,
            ),
            coord.base_url, heartbeat_interval_s=60.0,
        ).start()
        try:
            client = ServeClient(coord.base_url)
            _wait_for_nodes(client, 1)
            job = client.submit({"scenario": "S-A", "bg_case": "bg-null",
                                 "seconds": 5.0, "seed": 61})
            direct = ServeClient(node.base_url)

            def evicted_on_node():
                try:
                    direct.get(job["id"])
                except ServeError as exc:
                    return exc.status == 410
                return False

            assert _wait_for(evicted_on_node, timeout_s=60.0)
            assert _in_flight(client) == 1
            with pytest.raises(ServeError) as exc_info:
                client.get(job["id"])
            assert exc_info.value.status == 410
            assert exc_info.value.body["id"] == job["id"]
            assert exc_info.value.body["node"] == "n1"
            jobs = client.stats()["jobs"]
            assert jobs["in_flight"] == 0
            assert jobs["terminal"] == 1
        finally:
            node.stop(timeout_s=15.0)


def test_heartbeat_body_is_validated():
    with CoordinatorThread(CoordinatorConfig(
        port=0, heartbeat_timeout_s=120.0, sweep_interval_s=1.0,
    )) as coord:
        client = ServeClient(coord.base_url)
        node = {"node_id": "n1", "url": "http://127.0.0.1:9"}
        registered = _raw_post(client, "/v1/nodes", json.dumps(node).encode())
        assert registered[0] == 200
        path = "/v1/nodes/n1/heartbeat"
        for bad in (b"not json", b"[1]", b'{"finished": []}',
                    b'{"finished": {"run-1": "running"}}',
                    b'{"finished": {"run-1": ["done"]}}'):
            status, body = _raw_post(client, path, bad)
            assert status == 400, bad
            assert body["error"], bad
        good = json.dumps({"node_id": "n1", "finished": {"run-1": "done"}})
        assert _raw_post(client, path, good.encode())[0] == 200
        assert _raw_post(client, path, b"")[0] == 200
        unknown = "/v1/nodes/nobody/heartbeat"
        assert _raw_post(client, unknown, good.encode())[0] == 404


def test_registration_body_is_validated():
    with CoordinatorThread(CoordinatorConfig(
        port=0, heartbeat_timeout_s=120.0, sweep_interval_s=1.0,
    )) as coord:
        client = ServeClient(coord.base_url)
        node = {"node_id": "n1", "url": "http://127.0.0.1:9"}
        bad_bodies = [b"[1]", b'"x"'] + [
            json.dumps({**node, "workers": workers}).encode()
            for workers in ("many", None, -3, 0, 2.5, True)
        ]
        for bad in bad_bodies:
            status, body = _raw_post(client, "/v1/nodes", bad)
            assert status == 400, bad
            assert body["error"], bad
        assert coord.coordinator.nodes == {}
        assert client.healthz()["nodes_alive"] == 0
        good = json.dumps({**node, "workers": 3}).encode()
        assert _raw_post(client, "/v1/nodes", good)[0] == 200
        assert coord.coordinator.nodes["n1"].workers == 3
        assert _raw_post(client, "/v1/nodes", json.dumps(node).encode())[0] == 200
        assert coord.coordinator.nodes["n1"].workers == 1


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


def test_malformed_submission_spends_no_token_at_the_coordinator(tmp_path):
    # The coordinator parses a submission as a node does, before it
    # admits it: a 400 costs the tenant nothing and reads the same from
    # either tier, so the third bad request cannot find the bucket empty.
    store = tmp_path / "store"
    store.mkdir()
    with CoordinatorThread(CoordinatorConfig(
        port=0, heartbeat_timeout_s=5.0, sweep_interval_s=1.0,
        ratelimit_rps=1.0, ratelimit_burst=2.0,
    )) as coord:
        node = FleetNodeThread(
            _node_config(store, "n1"), coord.base_url,
            heartbeat_interval_s=0.2,
        ).start()
        try:
            client = ServeClient(coord.base_url)
            _wait_for_nodes(client, 1)
            payload = {"scenario": "S-A", "bg_case": "bg-null",
                       "seconds": 1.0, "seed": 43}
            for bad in (dict(payload, secnds=5.0),
                        dict(payload, seconds=-1),
                        dict(payload, priority=500)):
                answers = []
                for base_url in (coord.base_url, node.base_url):
                    with pytest.raises(ServeError) as exc_info:
                        ServeClient(base_url).submit(bad)
                    answers.append((exc_info.value.status,
                                    exc_info.value.body))
                assert answers[0][0] == 400, answers
                assert answers[0] == answers[1]
            assert client.stats()["ratelimit"]["admitted_total"] == 0
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
    # The limiter is the coordinator's: a node admits without one.
    config = ServeConfig(
        port=0, workers=1, cache_dir=str(tmp_path), node_id="lonely",
    )
    with ServerThread(config) as thread:
        client = ServeClient(thread.base_url)
        payload = {
            "scenario": "S-A", "bg_case": "bg-null",
            "seconds": 20.0, "seed": 77, "tenant": "t",
        }
        # A submission stamped for a different node still serves, but
        # bumps the misroute counter.
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
        assert "ratelimit" not in stats
        text = client.metrics_text()
        assert family_total(parse_samples(text),
                            "repro_fleet_misrouted_total") == 1
        assert "repro_fleet_ratelimited_total" not in text


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
