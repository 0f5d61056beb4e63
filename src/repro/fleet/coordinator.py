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
after a failover resubmission.  The mapping lives in a node's
:class:`~repro.serve.retention.JobTable`, under the node's rules (an
evicted id answers 410), and heartbeats report the runs nodes finish.
A node that leaves sends one last report after its drain; a run whose
owner has left and no longer answers is replayed onto the ring's
current owner when a client asks for it, or when the liveness sweep
next checks on it.

SSE streams are the one endpoint not proxied: followers are
long-lived and per-job, so ``GET /v1/runs/<id>/events`` answers 307
with the owning node's stream URL instead of pinning a coordinator
connection per follower.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.obs.metrics import EXPOSITION_CONTENT_TYPE, MetricsRegistry
from repro.serve.httpbase import HttpBase, install_signal_handlers
from repro.serve.queue import (
    BadSubmission, JobState, parse_submission, priority_class,
)
from repro.serve.retention import JobTable
from repro.serve.spec import (
    SPEC_VERSION, TERMINAL_STATES, canonical_size_bytes,
)
from repro.fleet.ratelimit import TenantRateLimiter
from repro.fleet.routing import HashRing
from repro.fleet.transport import TransportError, async_request

COORDINATOR_NAME = f"repro-fleet/{SPEC_VERSION}"

# Budget for one proxied node round-trip (submit/poll/cancel/replay).
PROXY_TIMEOUT_S = 30.0


@dataclass
class CoordinatorConfig:
    host: str = "127.0.0.1"
    port: int = 8090  # 0 = ephemeral (tests)
    # A node silent for longer than this is considered dead: evicted
    # from the ring, its in-flight jobs resubmitted elsewhere.
    heartbeat_timeout_s: float = 6.0
    # How often the liveness sweep runs.
    sweep_interval_s: float = 1.0
    # Per-tenant admission (None = no rate limiting at the front door).
    ratelimit_rps: Optional[float] = None
    ratelimit_burst: Optional[float] = None


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
    """The coordinator's view of one admitted run (a job-table entry).

    A finished run keeps its payload: when its owner has left and no
    longer answers, a lookup replays it onto the ring's current owner,
    which answers from the shared store.  It is charged its tombstone's
    size plus its payload's.
    """

    id: str             # the id clients hold (node-issued, uuid-unique)
    node_id: str        # current owner
    node_job_id: str    # id on the current owner (== id unless replayed)
    payload: dict       # original submission, replayed onto a new owner
    cache_key: str
    tenant: str
    state: Optional[str] = None  # the terminal state, once a node says so

    @property
    def terminal(self) -> bool:
        return self.state is not None

    def tombstone(self, now: float) -> dict:
        return {"id": self.id, "state": self.state, "evicted": True,
                "evicted_at": now, "node": self.node_id,
                "tenant": self.tenant, "cache_key": self.cache_key}

    def retention_cost(self) -> int:
        return (canonical_size_bytes(self.tombstone(0.0))
                + canonical_size_bytes(self.payload))


def _registration_error(doc) -> Optional[str]:
    """Why a registration body is malformed, or None if it is not."""
    if not isinstance(doc, dict):
        return "registration must be a JSON object"
    node_id, url = doc.get("node_id"), doc.get("url")
    workers = doc.get("workers", 1)
    if not node_id or not isinstance(node_id, str):
        return "node_id must be a non-empty string"
    if not url or not isinstance(url, str) or not url.startswith("http://"):
        return "url must be an http:// address"
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        return "workers must be a positive integer"
    return None


class Coordinator(HttpBase):
    """Fleet membership + routing behind the serve-plane HTTP dialect."""

    server_name = COORDINATOR_NAME

    def __init__(self, config: Optional[CoordinatorConfig] = None):
        self.config = config or CoordinatorConfig()
        self.registry = MetricsRegistry()
        super().__init__(self.registry)
        self.ring = HashRing()
        self.limiter: Optional[TenantRateLimiter] = None
        if self.config.ratelimit_rps:
            self.limiter = TenantRateLimiter(
                rate_per_s=self.config.ratelimit_rps,
                burst=self.config.ratelimit_burst,
                registry=self.registry,
            )
        self.nodes: Dict[str, NodeInfo] = {}
        self.table = JobTable(registry=self.registry)
        # Failed-over runs in flight: the new owner's run id -> public id.
        self._failover_ids: Dict[str, str] = {}
        # Public ids of orphans no node took yet; every sweep retries them.
        self._orphans: Set[str] = set()
        # Public id -> loop time the sweep last asked after an in-flight
        # run whose owner left the ring.
        self._checked: Dict[str, float] = {}
        self._sweep_task: Optional[asyncio.Task] = None
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
            "In-flight jobs replayed onto another node after their owner "
            "was evicted or left and stopped answering",
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
        await self._listen(self.config.host, self.config.port)

    def request_shutdown(self) -> None:
        if not self._stopped.is_set():
            if self._sweep_task is not None:
                self._sweep_task.cancel()
            self.close_listener()
            self._stopped.set()

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    async def _sweep_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.sweep_interval_s)
            await self.sweep()

    async def sweep(self) -> None:
        """Retry waiting orphans, evict every node whose heartbeat lapsed
        and failover its jobs, check on runs whose owner left, GC."""
        for job_id in list(self._orphans):
            job = self.table.get(job_id)
            if job is None or job.terminal or await self._resubmit(job):
                self._orphans.discard(job_id)
        loop = asyncio.get_event_loop()
        now = loop.time()
        lapsed = [
            node for node in self.nodes.values()
            if node.alive
            and now - node.last_heartbeat > self.config.heartbeat_timeout_s
        ]
        for node in lapsed:
            await self._evict(node)
        await self._check_departed(now)
        self.table.gc()

    async def _check_departed(self, now: float) -> None:
        """Ask after each in-flight run whose owner left the ring, at
        most once per heartbeat timeout, the way a client GET does.

        A leaving node drains and answers, so its runs stay put; one
        that died before its last report does not answer within the
        heartbeat timeout, and :meth:`_ask_owner` replays the run onto
        the ring's current owner without waiting for a client to ask.
        The checks run concurrently, so a dead owner holds the sweep up
        for one timeout, not one per run.
        """
        timeout = self.config.heartbeat_timeout_s
        due = []
        checked: Dict[str, float] = {}
        for job in self.table.jobs.values():
            node = self.nodes.get(job.node_id)
            if (job.terminal or node is None or node.alive
                    or job.id in self._orphans):
                continue
            last = self._checked.get(job.id)
            if last is not None and now - last < timeout:
                checked[job.id] = last
            else:
                checked[job.id] = now
                due.append(job)
        self._checked = checked

        async def check(job: CoordJob) -> None:
            try:
                await self._ask_owner(job, "GET", timeout_s=timeout)
            except TransportError:
                pass  # no node took the run; the next check retries

        await asyncio.gather(*(check(job) for job in due))

    async def _evict(self, node: NodeInfo) -> None:
        node.alive = False
        self.ring.remove(node.node_id)
        self._node_up_gauge.remove(node.node_id)
        self._evicted_counter.inc()
        orphans = [
            job for job in self.table.jobs.values()
            if job.node_id == node.node_id and not job.terminal
        ]
        for job in orphans:
            # A proxied GET may have ended it meanwhile.
            if not job.terminal and not await self._resubmit(job):
                self._orphans.add(job.id)

    async def _resubmit(self, job: CoordJob) -> bool:
        """Replay a submission onto the ring's current owner; False if
        no node took it (none alive, or the target failed too).

        The payload hashes to the same content address, so if the old
        owner already finished the run (shared store) the new node
        answers from cache; otherwise it simply runs it again.  Either
        way the public id keeps resolving.  Replaying a run in flight is
        a failover; a finished run only changes hands.
        """
        failover = not job.terminal
        target = self._route(job.cache_key)
        if target is None:
            return False
        try:
            status, _, doc = await async_request(
                "POST", f"{target.url}/v1/runs", job.payload,
                timeout_s=PROXY_TIMEOUT_S,
                headers={"X-Repro-Route-Node": target.node_id},
            )
        except TransportError:
            self._proxy_errors_counter.inc()
            return False
        if failover and job.terminal:
            return True  # a report or a proxied GET ended it meanwhile
        if status not in (200, 202) or not doc:
            return False
        self._failover_ids.pop(job.node_job_id, None)
        job.node_id = target.node_id
        job.node_job_id = doc["id"]
        if failover:
            self._failover_ids[job.node_job_id] = job.id
            self._resubmitted_counter.inc()
            if status == 200:  # answered from the shared store
                self._finish(job, doc.get("state"))
        return True

    def _finish(self, job: CoordJob, state) -> None:
        """Record a run's terminal state, once; other states are ignored."""
        if job.terminal or state not in TERMINAL_STATES:
            return
        job.state = state
        self._failover_ids.pop(job.node_job_id, None)
        self.table.note_terminal(job)

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
                node_id = rest[: -len("/heartbeat")]
                self._handle_heartbeat(writer, node_id, body)
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
                await self._handle_events_redirect(
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
        error = _registration_error(doc)
        if error:
            self._write_json(writer, 400, {"error": error})
            return
        node_id, url = doc["node_id"], doc["url"]
        loop = asyncio.get_event_loop()
        now = loop.time()
        # Re-registration (a restarted node, or one that outlived its
        # own eviction) refreshes everything and rejoins the ring.
        self.nodes[node_id] = NodeInfo(
            node_id=node_id,
            url=url.rstrip("/"),
            workers=doc.get("workers", 1),
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

    def _handle_heartbeat(self, writer, node_id: str, body: bytes) -> None:
        """Liveness, plus the runs the node finished since its last 200.

        ``finished`` maps the node's run ids to terminal states; a 200
        acknowledges them all, and the node resends on any other answer.
        A node off the ring (it left, or was evicted) is still heard for
        the runs it owns, since a leaving node reports once more after
        its drain, and is then told to re-register.
        """
        try:
            finished = json.loads(body.decode("utf-8") or "{}").get(
                "finished", {}
            )
            if not all(s in TERMINAL_STATES for s in finished.values()):
                raise ValueError
        except (ValueError, AttributeError, TypeError):  # JSON errors too
            self._write_json(writer, 400, {
                "error": "heartbeat body must be an object whose "
                         "'finished' maps run ids to terminal states",
            })
            return
        for node_job_id, state in finished.items():
            job = self.table.get(
                self._failover_ids.get(node_job_id, node_job_id)
            )
            # Only a run's current owner, under its own id, speaks for it.
            owner = (node_id, node_job_id)
            if job is not None and (job.node_id, job.node_job_id) == owner:
                self._finish(job, state)
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
        # finish where they are and its last report marks them terminal;
        # only the ring membership changes.
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
                    timeout_s=PROXY_TIMEOUT_S,
                    headers={"X-Repro-Route-Node": target.node_id},
                )
            except TransportError:
                self._proxy_errors_counter.inc()
                await self._evict(self.nodes[target.node_id])
                continue
            if status in (200, 202) and doc:
                job = CoordJob(
                    id=doc["id"],
                    node_id=target.node_id,
                    node_job_id=doc["id"],
                    payload=payload,
                    cache_key=cache_key,
                    tenant=tenant,
                )
                self.table.add(job)
                if status == 200:  # cache hits are born done
                    self._finish(job, doc.get("state"))
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

    def _write_ratelimited(self, writer, decision) -> None:
        """The 429 for a token-bucket rejection.

        Retry-After is delta-seconds (an integer per RFC 9110); the body
        carries the exact float for clients that parse.
        """
        retry_after = max(1, math.ceil(decision.retry_after_s))
        self._write_json(
            writer, 429,
            {
                "error": f"tenant {decision.tenant!r} rate limited; "
                         f"retry in {decision.retry_after_s:.3f}s",
                "retry_after_s": round(decision.retry_after_s, 4),
                "ratelimited": True,
                "tenant": decision.tenant,
                "priority_class": decision.priority_class,
            },
            extra_headers=(("Retry-After", str(retry_after)),),
        )

    async def _ask_owner(
        self, job: CoordJob, method: str, timeout_s: float = PROXY_TIMEOUT_S,
    ):
        """``(status, doc)`` of ``method`` on the run at its owner.

        An owner that left the ring and does not answer hands an
        unfinished or ``done`` run to the ring's current owner first; a
        ``TransportError`` means no node answered for the run.  A 410 is
        a run the node finished and has since evicted.
        """
        for replayed in (False, True):
            node = self.nodes[job.node_id]
            try:
                status, _, doc = await async_request(
                    method, f"{node.url}/v1/runs/{job.node_job_id}",
                    timeout_s=timeout_s,
                )
                break
            except TransportError:
                self._proxy_errors_counter.inc()
                if (replayed or node.alive
                        or job.state not in (None, JobState.DONE)
                        or not await self._resubmit(job)):
                    raise
        doc = doc or {}
        if status in (200, 410) and doc:
            self._finish(job, doc.get("state"))
        return status, doc

    async def _handle_proxy_job(self, writer, method: str, job_id: str) -> None:
        job = self._lookup_or_respond(writer, self.table, job_id)
        if job is None:
            return
        try:
            status, doc = await self._ask_owner(job, method)
        except TransportError as exc:
            self._write_json(
                writer, 503,
                {"error": f"node {job.node_id!r} unreachable: {exc}"},
            )
            return
        if status in (200, 410) and doc:
            # Clients hold the public id; after a replay the node's id
            # differs, so rewrite before the doc leaves the fleet.
            doc["id"] = job.id
            doc["node"] = job.node_id
        self._write_json(writer, status, doc)

    async def _handle_events_redirect(
        self, writer, job_id: str, query: Dict[str, str]
    ) -> None:
        job = self._lookup_or_respond(writer, self.table, job_id)
        if job is None:
            return
        if not self.nodes[job.node_id].alive:
            # Only a live owner is sent its followers unasked.
            try:
                await self._ask_owner(job, "GET")
            except TransportError as exc:
                self._write_json(
                    writer, 503,
                    {"error": f"node {job.node_id!r} unreachable: {exc}"},
                )
                return
        node = self.nodes[job.node_id]
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
        retention = self.table.stats()
        tracked = retention["retained"]
        terminal = retention["terminal_retained"]
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
            "retention": retention,
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
    coordinator = Coordinator(config)
    await coordinator.start()
    install_signal_handlers(coordinator.request_shutdown)
    if ready is not None:
        ready(coordinator)
    await coordinator.serve_forever()
