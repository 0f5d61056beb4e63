"""The fleet coordinator: membership, liveness, routing, admission.

One :class:`Coordinator` process fronts any number of serve nodes.
Nodes announce themselves (``POST /v1/nodes``) and heartbeat
(``POST /v1/nodes/<id>/heartbeat``); a node that misses heartbeats for
``heartbeat_timeout_s`` is evicted from the consistent-hash ring and
its still-running jobs are resubmitted to the surviving nodes — the
content-addressed shared store makes that resubmission idempotent, so
a job is never lost *or* computed twice into different results.

Clients speak the exact same ``/v1/runs`` dialect to the coordinator
as to a single node; the coordinator admits each submission through
the per-tenant token-bucket limiter, routes it by
``RunRequest.cache_key`` on the ring (cache affinity — see
:mod:`repro.fleet.routing`), stamps it with the chosen node so the
node can count misroutes, and proxies asynchronously over
:mod:`repro.fleet.transport`.  Job ids returned to clients are the
node-issued ids, which are uuid-unique fleet-wide; the coordinator
keeps the id → node mapping so polls and cancels follow the job even
after a failover resubmission.

SSE streams are the one endpoint not proxied: followers are
long-lived and per-job, so ``GET /v1/runs/<id>/events`` answers 307
with the owning node's stream URL instead of pinning a coordinator
connection per follower.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.obs.metrics import EXPOSITION_CONTENT_TYPE, MetricsRegistry
from repro.serve.httpbase import HttpBase
from repro.serve.queue import BadSubmission, parse_submission, priority_class
from repro.serve.spec import SPEC_VERSION, TERMINAL_STATES
from repro.fleet.ratelimit import TenantRateLimiter
from repro.fleet.routing import DEFAULT_VNODES, HashRing
from repro.fleet.transport import TransportError, async_request

COORDINATOR_NAME = f"repro-fleet/{SPEC_VERSION}"


@dataclass
class CoordinatorConfig:
    host: str = "127.0.0.1"
    port: int = 8090  # 0 = ephemeral (tests)
    vnodes: int = DEFAULT_VNODES
    # A node silent for longer than this is considered dead: evicted
    # from the ring, its in-flight jobs resubmitted elsewhere.
    heartbeat_timeout_s: float = 6.0
    # How often the liveness sweep runs.
    sweep_interval_s: float = 1.0
    # Per-tenant admission (None = no rate limiting at the front door).
    ratelimit_rps: Optional[float] = None
    ratelimit_burst: Optional[float] = None
    # Budget for one proxied node round-trip (submit/poll/cancel).
    proxy_timeout_s: float = 30.0


@dataclass
class NodeInfo:
    node_id: str
    url: str
    workers: int
    registered_at: float
    last_heartbeat: float
    alive: bool = True


@dataclass
class CoordJob:
    """The coordinator's view of one admitted run."""

    public_id: str      # the id clients hold (node-issued, uuid-unique)
    node_id: str        # current owner
    node_job_id: str    # id on the current owner (== public_id unless failed over)
    payload: dict       # original submission, replayed on failover
    cache_key: str
    tenant: str
    terminal: bool = False
    resubmits: int = 0


class Coordinator(HttpBase):
    """Fleet membership + routing behind the serve-plane HTTP dialect."""

    server_name = COORDINATOR_NAME

    def __init__(self, config: Optional[CoordinatorConfig] = None):
        self.config = config or CoordinatorConfig()
        self.registry = MetricsRegistry()
        super().__init__(self.registry)
        self.ring = HashRing(vnodes=self.config.vnodes)
        self.limiter: Optional[TenantRateLimiter] = None
        if self.config.ratelimit_rps:
            self.limiter = TenantRateLimiter(
                rate_per_s=self.config.ratelimit_rps,
                burst=self.config.ratelimit_burst,
                registry=self.registry,
            )
        self.nodes: Dict[str, NodeInfo] = {}
        self.jobs: Dict[str, CoordJob] = {}
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._sweep_task: Optional[asyncio.Task] = None
        self._stopped = asyncio.Event()
        self._started_at: Optional[float] = None
        self._submissions_counter = self.registry.counter(
            "repro_fleet_submissions_total",
            "Submissions admitted and proxied to a node",
        )
        self._proxy_errors_counter = self.registry.counter(
            "repro_fleet_proxy_errors_total",
            "Node round-trips that failed at the transport layer",
        )
        self._evicted_counter = self.registry.counter(
            "repro_fleet_nodes_evicted_total",
            "Nodes evicted after missing heartbeats",
        )
        self._resubmitted_counter = self.registry.counter(
            "repro_fleet_resubmitted_jobs_total",
            "In-flight jobs replayed onto surviving nodes after an eviction",
        )
        self._node_up_gauge = self.registry.gauge(
            "repro_fleet_node_up",
            "1 for each registered, live node (series removed on eviction)",
            labelnames=("node",),
        )
        self.registry.gauge(
            "repro_fleet_nodes_alive", "Live nodes on the ring",
            fn=lambda: float(len(self.ring)),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        loop = asyncio.get_event_loop()
        self._started_at = loop.time()
        self._sweep_task = asyncio.ensure_future(self._sweep_loop())
        self._server = await asyncio.start_server(
            self._handle_client, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        await self._stopped.wait()

    def request_shutdown(self) -> None:
        if not self._stopped.is_set():
            if self._sweep_task is not None:
                self._sweep_task.cancel()
            if self._server is not None:
                self._server.close()
            self._stopped.set()

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    async def _sweep_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.sweep_interval_s)
            await self.sweep()

    async def sweep(self) -> None:
        """Evict every node whose heartbeat lapsed; failover its jobs."""
        loop = asyncio.get_event_loop()
        now = loop.time()
        lapsed = [
            node for node in self.nodes.values()
            if node.alive
            and now - node.last_heartbeat > self.config.heartbeat_timeout_s
        ]
        for node in lapsed:
            await self._evict(node)

    async def _evict(self, node: NodeInfo) -> None:
        node.alive = False
        self.ring.remove(node.node_id)
        self._node_up_gauge.remove(node.node_id)
        self._evicted_counter.inc()
        orphans = [
            job for job in self.jobs.values()
            if job.node_id == node.node_id and not job.terminal
        ]
        for job in orphans:
            await self._resubmit(job)

    async def _resubmit(self, job: CoordJob) -> None:
        """Replay an orphaned submission onto the ring's current owner.

        The payload hashes to the same content address, so if the dead
        node already finished the run (shared store) the new node
        answers from cache; otherwise it simply runs it again.  Either
        way the public id keeps resolving.
        """
        target = self._route(job.cache_key)
        if target is None:
            return  # no nodes left; the job id will 404 until one joins
        try:
            status, _, doc = await async_request(
                "POST", f"{target.url}/v1/runs", job.payload,
                timeout_s=self.config.proxy_timeout_s,
                headers={"X-Repro-Route-Node": target.node_id},
            )
        except TransportError:
            self._proxy_errors_counter.inc()
            return  # next sweep retries (the target may be dying too)
        if status in (200, 202) and doc:
            job.node_id = target.node_id
            job.node_job_id = doc["id"]
            job.resubmits += 1
            self._resubmitted_counter.inc()
            if status == 200:
                job.terminal = True  # answered from the shared store

    def _route(self, cache_key: str) -> Optional[NodeInfo]:
        owner = self.ring.route(cache_key)
        return self.nodes.get(owner) if owner else None

    # ------------------------------------------------------------------
    # Routing table
    # ------------------------------------------------------------------
    async def _dispatch(
        self, writer, method: str, path: str,
        query: Dict[str, str], headers: Dict[str, str], body: bytes,
    ) -> None:
        if path == "/v1/healthz" and method == "GET":
            self._write_json(writer, 200, self.healthz())
            return
        if path == "/v1/stats" and method == "GET":
            self._write_json(writer, 200, self.stats())
            return
        if path == "/metrics" and method == "GET":
            self._write_text(
                writer, 200, self.registry.render(),
                content_type=EXPOSITION_CONTENT_TYPE,
            )
            return
        if path == "/v1/nodes" and method == "POST":
            self._handle_register(writer, body)
            return
        if path == "/v1/nodes" and method == "GET":
            self._write_json(writer, 200, {"nodes": self._node_docs()})
            return
        if path.startswith("/v1/nodes/"):
            rest = path[len("/v1/nodes/"):]
            if rest.endswith("/heartbeat") and method == "POST":
                self._handle_heartbeat(writer, rest[: -len("/heartbeat")])
                return
            if "/" not in rest and method == "DELETE":
                self._handle_deregister(writer, rest)
                return
        if path == "/v1/runs" and method == "POST":
            await self._handle_submit(writer, body)
            return
        if path.startswith("/v1/runs/"):
            rest = path[len("/v1/runs/"):]
            if rest.endswith("/events") and method == "GET":
                self._handle_events_redirect(
                    writer, rest[: -len("/events")], query
                )
                return
            if "/" not in rest and method in ("GET", "DELETE"):
                await self._handle_proxy_job(writer, method, rest)
                return
        self._write_json(
            writer, 404, {"error": f"no route for {method} {path}"}
        )

    # ------------------------------------------------------------------
    # Membership endpoints
    # ------------------------------------------------------------------
    def _handle_register(self, writer, body: bytes) -> None:
        try:
            doc = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._write_json(writer, 400, {"error": f"invalid JSON: {exc}"})
            return
        node_id = doc.get("node_id")
        url = doc.get("url")
        if not node_id or not isinstance(node_id, str):
            self._write_json(
                writer, 400, {"error": "node_id must be a non-empty string"}
            )
            return
        if not url or not isinstance(url, str) or not url.startswith("http://"):
            self._write_json(
                writer, 400, {"error": "url must be an http:// address"}
            )
            return
        loop = asyncio.get_event_loop()
        now = loop.time()
        # Re-registration (a restarted node, or one that outlived its
        # own eviction) refreshes everything and rejoins the ring.
        self.nodes[node_id] = NodeInfo(
            node_id=node_id,
            url=url.rstrip("/"),
            workers=int(doc.get("workers", 1)),
            registered_at=now,
            last_heartbeat=now,
        )
        self.ring.add(node_id)
        self._node_up_gauge.labels(node_id).set(1.0)
        self._write_json(writer, 200, {
            "node_id": node_id,
            "heartbeat_timeout_s": self.config.heartbeat_timeout_s,
            "nodes": len(self.ring),
        })

    def _handle_heartbeat(self, writer, node_id: str) -> None:
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            # 404 tells the node to re-register (it was evicted, or the
            # coordinator restarted and lost the membership table).
            self._write_json(
                writer, 404,
                {"error": f"unknown node {node_id!r}; re-register"},
            )
            return
        node.last_heartbeat = asyncio.get_event_loop().time()
        self._write_json(writer, 200, {"node_id": node_id, "ok": True})

    def _handle_deregister(self, writer, node_id: str) -> None:
        node = self.nodes.get(node_id)
        if node is None:
            self._write_json(
                writer, 404, {"error": f"unknown node {node_id!r}"}
            )
            return
        # Graceful leave: the node drains its own queue, so its jobs
        # finish where they are — only the ring membership changes.
        node.alive = False
        self.ring.remove(node_id)
        self._node_up_gauge.remove(node_id)
        self._write_json(writer, 200, {"node_id": node_id, "left": True})

    def _node_docs(self) -> list:
        loop = asyncio.get_event_loop()
        now = loop.time()
        return [
            {
                "node_id": node.node_id,
                "url": node.url,
                "workers": node.workers,
                "alive": node.alive,
                "age_s": round(now - node.registered_at, 3),
                "heartbeat_age_s": round(now - node.last_heartbeat, 3),
            }
            for node in sorted(self.nodes.values(), key=lambda n: n.node_id)
        ]

    # ------------------------------------------------------------------
    # Run endpoints (proxied)
    # ------------------------------------------------------------------
    async def _handle_submit(self, writer, body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._write_json(writer, 400, {"error": f"invalid JSON: {exc}"})
            return
        # Parse as a node does, before admission: a submission the node
        # would reject gets its 400 here and spends no token.
        try:
            options, request = parse_submission(payload)
        except BadSubmission as exc:
            self._write_json(writer, 400, {"error": str(exc)})
            return
        tenant = options["tenant"]
        if self.limiter is not None:
            decision = self.limiter.admit(
                tenant, priority_class(options["priority"])
            )
            if not decision.allowed:
                self._write_ratelimited(writer, decision)
                return
        cache_key = request.cache_key()
        # A node can die between routing and proxying; walk the ring
        # (eviction re-routes) a few times before giving up.
        for _ in range(3):
            target = self._route(cache_key)
            if target is None:
                break
            try:
                status, headers, doc = await async_request(
                    "POST", f"{target.url}/v1/runs", payload,
                    timeout_s=self.config.proxy_timeout_s,
                    headers={"X-Repro-Route-Node": target.node_id},
                )
            except TransportError:
                self._proxy_errors_counter.inc()
                await self._evict(self.nodes[target.node_id])
                continue
            if status in (200, 202) and doc:
                job = CoordJob(
                    public_id=doc["id"],
                    node_id=target.node_id,
                    node_job_id=doc["id"],
                    payload=payload,
                    cache_key=cache_key,
                    tenant=tenant,
                    terminal=(status == 200),  # cache hits are born done
                )
                self.jobs[job.public_id] = job
                self._submissions_counter.inc()
                doc["node"] = target.node_id
            extra = ()
            if "retry-after" in headers:
                extra = (("Retry-After", headers["retry-after"]),)
            self._write_json(writer, status, doc or {}, extra_headers=extra)
            return
        self._write_json(
            writer, 503, {"error": "no live nodes registered with the fleet"}
        )

    async def _handle_proxy_job(self, writer, method: str, job_id: str) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            self._write_json(writer, 404, {"error": f"unknown run {job_id!r}"})
            return
        node = self.nodes.get(job.node_id)
        if node is None:
            self._write_json(
                writer, 503,
                {"error": f"run {job_id!r} owner {job.node_id!r} is gone"},
            )
            return
        try:
            status, _, doc = await async_request(
                method, f"{node.url}/v1/runs/{job.node_job_id}",
                timeout_s=self.config.proxy_timeout_s,
            )
        except TransportError as exc:
            self._proxy_errors_counter.inc()
            self._write_json(
                writer, 503,
                {"error": f"node {job.node_id!r} unreachable: {exc}"},
            )
            return
        doc = doc or {}
        if status == 200 and doc:
            # Clients hold the public id; after a failover the node's id
            # differs, so rewrite before the doc leaves the fleet.
            doc["id"] = job.public_id
            doc["node"] = job.node_id
            if doc.get("state") in TERMINAL_STATES:
                job.terminal = True
        self._write_json(writer, status, doc)

    def _handle_events_redirect(
        self, writer, job_id: str, query: Dict[str, str]
    ) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            self._write_json(writer, 404, {"error": f"unknown run {job_id!r}"})
            return
        node = self.nodes.get(job.node_id)
        if node is None:
            self._write_json(
                writer, 503,
                {"error": f"run {job_id!r} owner {job.node_id!r} is gone"},
            )
            return
        location = f"{node.url}/v1/runs/{job.node_job_id}/events"
        if query.get("cursor"):
            location += f"?cursor={query['cursor']}"
        self._write_json(
            writer, 307, {"location": location, "node": job.node_id},
            extra_headers=(("Location", location),),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        loop = asyncio.get_event_loop()
        uptime = (
            loop.time() - self._started_at
            if self._started_at is not None else 0.0
        )
        return {
            "status": "ok",
            "server": COORDINATOR_NAME,
            "role": "coordinator",
            "uptime_s": round(uptime, 3),
            "nodes_alive": len(self.ring),
        }

    def stats(self) -> dict:
        tracked = len(self.jobs)
        terminal = sum(1 for job in self.jobs.values() if job.terminal)
        doc = self.healthz()
        doc.update({
            "ring": self.ring.stats(),
            "nodes": self._node_docs(),
            "jobs": {
                "submitted_total": int(self._submissions_counter.value),
                "tracked": tracked,
                "terminal": terminal,
                "in_flight": tracked - terminal,
                "resubmitted_total": int(self._resubmitted_counter.value),
            },
            "evictions": {
                "nodes_evicted_total": int(self._evicted_counter.value),
                "heartbeat_timeout_s": self.config.heartbeat_timeout_s,
            },
        })
        if self.limiter is not None:
            doc["ratelimit"] = self.limiter.stats()
        return doc


async def run_coordinator(config: CoordinatorConfig, ready=None) -> None:
    """Start a coordinator, announce readiness, serve until stopped."""
    import signal

    coordinator = Coordinator(config)
    await coordinator.start()
    loop = asyncio.get_event_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, coordinator.request_shutdown)
        except (NotImplementedError, ValueError, RuntimeError):
            break
    if ready is not None:
        ready(coordinator)
    await coordinator.serve_forever()
