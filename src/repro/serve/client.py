"""Blocking HTTP client for the serve control plane.

Used by ``python -m repro submit``, the test suite, ``repro loadtest``
(soaks included), and anything else that wants a simulation result
without speaking HTTP by hand.  One plain :mod:`http.client`
connection per call keeps the client free of state and safe to use
from any thread.

Two failure modes are retryable and handled here so every caller
doesn't reinvent them:

* **Backpressure** — 429 (queue full or rate limited).  ``submit``
  can retry with bounded jittered exponential backoff, honoring the
  server's ``retry_after_s`` hint when it is longer than the backoff.
* **Dropped streams** — an SSE follower whose socket dies mid-run.
  Every event frame carries an absolute ``id:``; :meth:`follow`
  reconnects with ``?cursor=<last id + 1>`` and resumes exactly where
  the stream broke instead of replaying or losing history.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.parse
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.serve.spec import TERMINAL_STATES, RunRequest

DEFAULT_BASE_URL = "http://127.0.0.1:8080"

# Backoff shape for retried submissions and SSE reconnects: full
# jitter over an exponentially growing, capped window.
RETRY_BASE_S = 0.2
RETRY_CAP_S = 5.0
DEFAULT_RETRIES = 3

# Transport-level failures worth retrying: the connection died or was
# refused mid-conversation, not a server verdict about the request.
TRANSIENT_ERRORS = (ConnectionError, http.client.HTTPException, TimeoutError)


def backoff_delay(attempt: int, retry_after_s: float = 0.0) -> float:
    """Jittered exponential delay for retry ``attempt`` (1-based).

    Full jitter (0.5x-1x of the window) decorrelates a thundering herd
    of clients that all got backpressured at the same instant; a
    server-provided ``retry_after_s`` (the token bucket's exact refill
    time) acts as a floor, since retrying sooner is guaranteed futile.
    """
    window = min(RETRY_CAP_S, RETRY_BASE_S * (2 ** max(0, attempt - 1)))
    return max(retry_after_s, window * (0.5 + random.random() / 2))


class ServeError(Exception):
    """A non-2xx control-plane response."""

    def __init__(self, status: int, body: dict):
        self.status = status
        self.body = body
        super().__init__(f"HTTP {status}: {body.get('error', body)}")


class QueueFullError(ServeError):
    """429 — queue full or rate limited; retry later.

    ``retry_after_s`` is the server's own estimate (0 when it offered
    none): the token bucket's exact refill time for rate limits.
    """

    @property
    def retry_after_s(self) -> float:
        try:
            return float(self.body.get("retry_after_s", 0.0))
        except (TypeError, ValueError):
            return 0.0


class ServeClient:
    """Thin blocking wrapper over the ``/v1`` API."""

    def __init__(self, base_url: str = DEFAULT_BASE_URL, timeout_s: float = 30.0):
        # urlsplit("localhost:8080") would read "localhost" as the
        # scheme, so bare "host:port" gets an explicit scheme first.
        if "://" not in base_url:
            base_url = f"http://{base_url}"
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme != "http":
            raise ValueError(f"unsupported scheme {parsed.scheme!r}")
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port if parsed.port is not None else 80
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Tuple[int, dict]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            payload = json.dumps(body).encode("utf-8") if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            try:
                doc = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                doc = {"error": raw.decode("utf-8", "replace")}
            return response.status, doc
        finally:
            conn.close()

    def _checked(self, method: str, path: str, body=None) -> dict:
        status, doc = self._request(method, path, body)
        if status == 429:
            raise QueueFullError(status, doc)
        if status >= 400:
            raise ServeError(status, doc)
        return doc

    # ------------------------------------------------------------------
    def submit(
        self,
        request: Union[RunRequest, Dict[str, object]],
        priority: Optional[int] = None,
        timeout_s: Optional[float] = None,
        progress_interval_ms: Optional[float] = None,
        tenant: Optional[str] = None,
        retries: int = 0,
    ) -> dict:
        """POST the request; returns the job snapshot (maybe cached).

        ``retries`` > 0 retries 429 backpressure and transient
        connection failures with jittered exponential backoff (the
        library default stays 0 so callers that *want* to observe
        backpressure, such as tests, see every 429; ``repro submit``
        passes 3).
        """
        body = dict(
            request.to_dict() if isinstance(request, RunRequest) else request
        )
        if priority is not None:
            body["priority"] = priority
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        if progress_interval_ms is not None:
            body["progress_interval_ms"] = progress_interval_ms
        if tenant is not None:
            body["tenant"] = tenant
        attempt = 0
        while True:
            try:
                return self._checked("POST", "/v1/runs", body)
            except QueueFullError as exc:
                attempt += 1
                if attempt > retries:
                    raise
                time.sleep(backoff_delay(attempt, exc.retry_after_s))
            except TRANSIENT_ERRORS:
                attempt += 1
                if attempt > retries:
                    raise
                time.sleep(backoff_delay(attempt))

    def get(self, job_id: str) -> dict:
        return self._checked("GET", f"/v1/runs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        return self._checked("DELETE", f"/v1/runs/{job_id}")

    def healthz(self) -> dict:
        return self._checked("GET", "/v1/healthz")

    def stats(self) -> dict:
        return self._checked("GET", "/v1/stats")

    def metrics_text(self) -> str:
        """Scrape ``GET /metrics``: the Prometheus exposition document."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            raw = response.read()
            if response.status >= 400:
                try:
                    doc = json.loads(raw)
                except json.JSONDecodeError:
                    doc = {"error": raw.decode("utf-8", "replace")}
                raise ServeError(response.status, doc)
            return raw.decode("utf-8")
        finally:
            conn.close()

    def wait(
        self, job_id: str, timeout_s: float = 300.0, poll_s: float = 0.1
    ) -> dict:
        """Poll until the job is terminal; returns the final snapshot."""
        deadline = time.monotonic() + timeout_s
        while True:
            job = self.get(job_id)
            if job["state"] in TERMINAL_STATES:
                return job
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"run {job_id} still {job['state']} after {timeout_s}s"
                )
            time.sleep(poll_s)

    def run(
        self,
        request: Union[RunRequest, Dict[str, object]],
        timeout_s: float = 300.0,
        **submit_kwargs,
    ) -> dict:
        """Submit and wait; returns the terminal job snapshot."""
        job = self.submit(request, **submit_kwargs)
        if job["state"] in TERMINAL_STATES:
            return job  # cache hit (or immediate failure)
        return self.wait(job["id"], timeout_s=timeout_s)

    # ------------------------------------------------------------------
    def _events_once(
        self, job_id: str, cursor: int, timeout_s: float
    ) -> Iterator[Tuple[Optional[int], str, dict]]:
        """One SSE connection from ``cursor``; yields (id, event, data).

        Ends when the server closes the stream; raises the usual
        transient errors when the socket dies mid-stream.
        """
        host, port = self.host, self.port
        path = f"/v1/runs/{job_id}/events"
        if cursor:
            path += f"?cursor={cursor}"
        conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            # A fleet coordinator answers /events with a redirect to the
            # owning node's stream (it won't pin a connection per
            # follower) — chase it, once.
            if response.status in (301, 302, 307, 308):
                location = response.getheader("Location") or ""
                response.read()
                conn.close()
                parsed = urllib.parse.urlsplit(location)
                if parsed.scheme != "http" or not parsed.hostname:
                    raise ServeError(
                        502, {"error": f"bad events redirect {location!r}"}
                    )
                host = parsed.hostname
                port = parsed.port if parsed.port is not None else 80
                path = parsed.path + (
                    f"?{parsed.query}" if parsed.query else ""
                )
                conn = http.client.HTTPConnection(
                    host, port, timeout=timeout_s
                )
                conn.request("GET", path)
                response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                try:
                    doc = json.loads(raw)
                except json.JSONDecodeError:
                    doc = {"error": raw.decode("utf-8", "replace")}
                raise ServeError(response.status, doc)
            event: Optional[str] = None
            event_id: Optional[int] = None
            data_lines = []
            while True:
                line = response.readline()
                if not line:
                    return  # stream closed
                line = line.decode("utf-8").rstrip("\n")
                if line.startswith("id:"):
                    try:
                        event_id = int(line[len("id:"):].strip())
                    except ValueError:
                        event_id = None
                elif line.startswith("event:"):
                    event = line[len("event:"):].strip()
                elif line.startswith("data:"):
                    data_lines.append(line[len("data:"):].strip())
                elif line == "":
                    if event is not None:
                        payload = "\n".join(data_lines) or "{}"
                        yield event_id, event, json.loads(payload)
                        if event in TERMINAL_STATES:
                            # Don't wait for EOF: a worker process forked
                            # while this connection was open can hold a
                            # duplicate of its fd, delaying the FIN.
                            return
                    event = None
                    event_id = None
                    data_lines = []
        finally:
            conn.close()

    def events(
        self, job_id: str, timeout_s: float = 300.0, cursor: int = 0
    ) -> Iterator[Tuple[str, dict]]:
        """Follow the job's SSE stream once, yielding ``(event, data)``.

        The generator ends when the server closes the stream after a
        terminal event.  For a stream that survives socket drops, use
        :meth:`follow`.
        """
        for _, event, data in self._events_once(job_id, cursor, timeout_s):
            yield event, data

    def follow(
        self,
        job_id: str,
        timeout_s: float = 300.0,
        reconnect_retries: int = DEFAULT_RETRIES,
    ) -> Iterator[Tuple[str, dict]]:
        """Follow a job's events across dropped connections.

        Tracks the last absolute event id seen and, when the socket
        dies, reconnects with ``?cursor=<last id + 1>`` — no replayed
        and no silently skipped events.  ``reconnect_retries`` bounds
        *consecutive* failed reconnects; any delivered event resets the
        budget, so a long job tolerates many well-spaced drops.
        """
        deadline = time.monotonic() + timeout_s
        cursor = 0
        failures = 0
        while True:
            try:
                for event_id, event, data in self._events_once(
                    job_id, cursor, timeout_s
                ):
                    failures = 0
                    if event_id is not None:
                        cursor = event_id + 1
                    yield event, data
                    if event in TERMINAL_STATES:
                        return
                # Clean close without a terminal event (server drained
                # mid-stream): if the job is already terminal we are
                # done; otherwise reconnect and keep following.
                job = self.get(job_id)
                if job["state"] in TERMINAL_STATES:
                    return
            except TRANSIENT_ERRORS:
                failures += 1
                if failures > reconnect_retries:
                    raise
                time.sleep(backoff_delay(failures))
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"run {job_id} events not terminal after {timeout_s}s"
                )
