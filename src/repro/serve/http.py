"""The control plane's HTTP/JSON surface (stdlib asyncio only).

Endpoints (all under ``/v1``):

* ``POST   /v1/runs``          — submit a :class:`RunRequest` (JSON body;
  optional ``priority``, ``timeout_s``, ``progress_interval_ms``,
  ``tenant`` submission options).  202 queued, 200 cache hit, 429
  queue full, 503 draining, 400 malformed.
* ``GET    /v1/runs/<id>``        — job snapshot (state, result, error).
* ``GET    /v1/runs/<id>/events`` — Server-Sent Events: replays the
  job's lifecycle (``queued``/``started``/``sample``/``retry``/
  ``done``/``failed``/``cancelled``/``expired``) and follows it live.
  Every event frame carries an ``id:`` line with its absolute position
  in the job's history, and ``?cursor=N`` resumes from position N — a
  client whose socket dropped reconnects where it left off instead of
  replaying (or losing) history.
* ``DELETE /v1/runs/<id>``        — cancel a queued job (409 once running).
* ``GET    /v1/healthz``          — liveness + drain state.
* ``GET    /v1/stats``            — queue depth, cache hit rate, worker
  utilization, job state counts, per-priority-class latency
  percentiles, an RSS/tracemalloc/cache memory breakdown, per-tenant
  rogue scores, and the most recent runs.
* ``GET    /metrics``             — Prometheus text exposition from the
  server's metrics registry (counters, gauges, latency histograms).

The request/response plumbing lives in
:class:`repro.serve.httpbase.HttpBase` so the fleet coordinator can
reuse it verbatim without importing the node; everything the serve
plane *is* (queue, workers, caches, accounting) lives in
:class:`repro.serve.state.ServerState`.  :class:`SimulationServer`
is the composition of the two.

On SIGTERM (or :meth:`SimulationServer.request_shutdown`) the server
drains gracefully: new submissions get 503 while polls keep working,
queued and running jobs finish within a grace period, then the fleet
and the listener shut down.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional

from repro.obs.metrics import EXPOSITION_CONTENT_TYPE
from repro.serve.httpbase import (
    ROUTE_NODE_HEADER, HttpBase, install_signal_handlers,
)
from repro.serve.queue import BadSubmission, QueueFull
from repro.serve.spec import TERMINAL_STATES
from repro.serve.state import (  # re-exported; they predate the split
    ServeConfig,
    ServerState,
)

__all__ = ["ServeConfig", "ServerState", "SimulationServer", "run_server"]

class SimulationServer(HttpBase):
    """A :class:`ServerState` behind an asyncio HTTP listener."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.state = ServerState(config)
        super().__init__(self.state.registry)
        self._drain_task: Optional[asyncio.Task] = None
        self._keepalive_counter = self.state.registry.counter(
            "repro_serve_sse_keepalives_total",
            "SSE `: ping` comment frames written to idle followers",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self.state.start()
        await self._listen(self.state.config.host, self.state.config.port)

    def request_shutdown(self) -> None:
        """Begin the graceful drain (idempotent, signal-handler safe)."""
        if self._drain_task is None:
            self._drain_task = asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        await self.state.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stopped.set()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, writer, method: str, path: str,
        query: Dict[str, str], headers: Dict[str, str], body: bytes,
    ) -> None:
        if path == "/v1/healthz" and method == "GET":
            self._write_json(writer, 200, self.state.healthz())
            return
        if path == "/v1/stats" and method == "GET":
            self._write_json(writer, 200, self.state.stats())
            return
        if path == "/metrics" and method == "GET":
            # Refresh the sampled gauges so a scrape is never staler
            # than the exposition it reads.
            self.state.sample_memory()
            self._write_text(
                writer, 200, self.state.registry.render(),
                content_type=EXPOSITION_CONTENT_TYPE,
            )
            return
        if path == "/v1/runs" and method == "POST":
            self._handle_submit(writer, headers, body)
            return
        if path.startswith("/v1/runs/"):
            rest = path[len("/v1/runs/"):]
            if rest.endswith("/events"):
                if method != "GET":
                    # The route exists; the method is wrong (was 404).
                    self._write_json(
                        writer, 405, {"error": "method not allowed"}
                    )
                    return
                await self._handle_events(
                    writer, rest[: -len("/events")], query
                )
                return
            if "/" not in rest:
                if method == "GET":
                    self._handle_get_job(writer, rest)
                    return
                if method == "DELETE":
                    self._handle_cancel(writer, rest)
                    return
                self._write_json(writer, 405, {"error": "method not allowed"})
                return
        self._write_json(writer, 404, {"error": f"no route for {method} {path}"})

    def _handle_submit(
        self, writer, headers: Dict[str, str], body: bytes
    ) -> None:
        if self.state.draining:
            self._write_json(
                writer, 503,
                {"error": "server is draining; not accepting new runs"},
            )
            return
        self.state.note_misrouted(headers.get(ROUTE_NODE_HEADER))
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._write_json(writer, 400, {"error": f"invalid JSON: {exc}"})
            return
        try:
            status, job = self.state.submit(payload)
        except BadSubmission as exc:
            self._write_json(writer, 400, {"error": str(exc)})
            return
        except QueueFull as exc:
            self._write_json(writer, 429, {
                "error": str(exc),
                "queue": self.state.queue.stats(),
            })
            return
        doc = job.snapshot()
        doc["cached"] = job.cache_hit
        self._write_json(writer, status, doc)

    def _handle_get_job(self, writer, job_id: str) -> None:
        job = self._lookup_or_respond(writer, self.state.table, job_id)
        if job is None:
            return
        self._write_json(writer, 200, job.snapshot())

    def _handle_cancel(self, writer, job_id: str) -> None:
        job = self._lookup_or_respond(writer, self.state.table, job_id)
        if job is None:
            return
        if self.state.cancel(job_id):
            self._write_json(writer, 200, job.snapshot())
            return
        self._write_json(writer, 409, {
            "error": f"run {job_id!r} is {job.state} and cannot be cancelled",
            "state": job.state,
        })

    async def _handle_events(
        self, writer, job_id: str, query: Dict[str, str]
    ) -> None:
        job = self._lookup_or_respond(writer, self.state.table, job_id)
        if job is None:
            return
        # Absolute position in the job's event history.  ?cursor=N is a
        # reconnecting follower resuming where its last socket died (it
        # saw event N-1's `id:` line); a fresh follower starts at 0.
        try:
            cursor = int(query.get("cursor", "0"))
            if cursor < 0:
                raise ValueError
        except ValueError:
            self._write_json(
                writer, 400,
                {"error": "cursor must be a non-negative integer"},
            )
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        self._responses_counter.labels("200").inc()
        loop = asyncio.get_event_loop()
        last_write = loop.time()
        # The retained window is [events_base, events_base +
        # len(events)): whenever the cursor falls behind the base (the
        # cap dropped history, possibly while we were parked on a
        # drain), the follower gets an explicit `dropped_events` marker
        # instead of a silent gap.
        while True:
            dropped = job.events_base - cursor
            if dropped > 0:
                cursor = job.events_base
                payload = json.dumps({
                    "dropped": dropped,
                    "total_dropped": job.events_dropped,
                })
                # The marker stands in for positions [cursor-dropped,
                # events_base); its id points at the last of them so a
                # resume lands exactly on events_base.
                frame = (
                    f"id: {job.events_base - 1}\n"
                    "event: dropped_events\n"
                    f"data: {payload}\n\n"
                )
                writer.write(frame.encode("utf-8"))
                await writer.drain()
                last_write = loop.time()
                continue
            if cursor < job.events_base + len(job.events):
                # One event per iteration: every drain is an await, and
                # the cap may advance events_base underneath it.
                event = job.events[cursor - job.events_base]
                frame = (
                    f"id: {cursor}\n"
                    f"event: {event['event']}\n"
                    f"data: {json.dumps(event['data'])}\n\n"
                )
                cursor += 1
                writer.write(frame.encode("utf-8"))
                await writer.drain()
                last_write = loop.time()
                if event["event"] in TERMINAL_STATES:
                    return
                continue
            if job.terminal:
                return  # terminal state with no more events to send
            # Park until the job records its next event or the stream
            # has been idle for a keepalive interval (a nonpositive
            # interval disables keepalives).
            keepalive = self.state.config.sse_keepalive_s
            idle_left = None
            if keepalive > 0:
                idle_left = keepalive - (loop.time() - last_write)
            if idle_left is None or idle_left > 0:
                try:
                    await asyncio.wait_for(job.wakeup().wait(), idle_left)
                except asyncio.TimeoutError:
                    pass
                continue
            # A long-idle follower (queued behind a deep backlog, or a
            # slow run with no progress sampling) looks exactly like a
            # dead connection to a client with a read timeout; comment
            # frames are the SSE-standard heartbeat.
            writer.write(b": ping\n\n")
            await writer.drain()
            last_write = loop.time()
            self._keepalive_counter.inc()


async def run_server(config: ServeConfig, ready=None) -> None:
    """Start a server, announce readiness, and serve until drained."""
    server = SimulationServer(config)
    await server.start()
    install_signal_handlers(server.request_shutdown)
    if ready is not None:
        ready(server)
    await server.serve_forever()
