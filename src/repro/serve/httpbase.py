"""HTTP/1.1 request parsing and response encoding (stdlib asyncio only).

:class:`HttpBase` is the plumbing both control-plane servers share: a
serve node (:class:`repro.serve.http.SimulationServer`) and the fleet
coordinator (:class:`repro.fleet.coordinator.Coordinator`).  It lives
apart from :mod:`repro.serve.http` so the coordinator can reuse it
without importing what only a node runs: the worker pool, the result
cache and the node's state.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import parse_qsl

from repro.obs.metrics import MetricsRegistry
from repro.serve.spec import SPEC_VERSION

SERVER_NAME = f"repro-serve/{SPEC_VERSION}"

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 410: "Gone",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}

_MAX_BODY_BYTES = 1 << 20

# Stamped by the coordinator on proxied submissions so the receiving
# node can detect (and count) routing mistakes.
ROUTE_NODE_HEADER = "x-repro-route-node"


# The listening and accepted sockets of every server in this process,
# from listen or accept until closed.  A child forked while they are
# open (a node's pool worker, forked at start-up or when a dead worker
# is replaced) would hold them after this process closes its copies: a
# killed node's port would go on accepting connections, and a client
# would never see its connection end.  So a forked child releases them.
_SOCKETS: set = set()


def _release_sockets() -> None:
    """In a forked child: let go of every server socket of the parent.

    Each fd is pointed at /dev/null rather than closed, because the
    child's copy of the socket object still owns the fd number and may
    close it later; closing it now could let that close hit an
    unrelated file that reused the number.
    """
    devnull = os.open(os.devnull, os.O_RDWR)
    for sock in _SOCKETS:
        fd = sock.fileno()
        if fd != -1:
            os.dup2(devnull, fd, inheritable=False)
    os.close(devnull)
    _SOCKETS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_release_sockets)


class _BadRequest(Exception):
    """Maps to a 400 with the exception text as the error body."""


class _PayloadTooLarge(Exception):
    """Maps to a 413 with the exception text as the error body."""


def install_signal_handlers(handler: Callable[[], None]) -> None:
    """SIGTERM/SIGINT → ``handler`` (main-thread loops only)."""
    loop = asyncio.get_event_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, handler)
        except (NotImplementedError, ValueError, RuntimeError):
            return  # not the main thread / unsupported platform


class HttpBase:
    """Reusable asyncio HTTP plumbing: parse, dispatch, encode.

    Subclasses implement :meth:`_dispatch` and ``request_shutdown``
    (which sets ``_stopped`` once the listener is done) and may override
    ``server_name``.  One request per connection, JSON everywhere,
    bounded bodies — the same dialect
    :mod:`repro.fleet.transport` speaks from the client side.
    """

    server_name = SERVER_NAME

    def __init__(self, registry: MetricsRegistry):
        self._responses_counter = registry.counter(
            "repro_serve_http_responses_total",
            "HTTP responses by status code", labelnames=("status",),
        )
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._listening: Tuple = ()
        self._stopped = asyncio.Event()

    async def _listen(self, host: str, port: int) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, host=host, port=port
        )
        self._listening = self._server.sockets
        _SOCKETS.update(self._listening)
        self.port = self._listening[0].getsockname()[1]

    def close_listener(self) -> None:
        """Stop accepting connections (idempotent)."""
        if self._server is not None:
            self._server.close()
            _SOCKETS.difference_update(self._listening)

    async def serve_forever(self) -> None:
        await self._stopped.wait()

    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        sock = writer.get_extra_info("socket")
        _SOCKETS.add(sock)
        try:
            parsed = await self._read_request(reader)
            if parsed is None:
                return
            method, path, query, headers, body = parsed
            await self._dispatch(writer, method, path, query, headers, body)
        except _BadRequest as exc:
            try:
                self._write_json(writer, 400, {"error": str(exc)})
                await self._discard_input(reader)
            except ConnectionError:
                pass
        except _PayloadTooLarge as exc:
            try:
                self._write_json(writer, 413, {"error": str(exc)})
                await self._discard_input(reader)
            except ConnectionError:
                pass
        except ConnectionError:
            pass
        except Exception as exc:  # never kill the accept loop
            try:
                self._write_json(writer, 500, {"error": str(exc)})
            except ConnectionError:
                pass
        finally:
            try:
                await writer.drain()
            except ConnectionError:
                pass
            writer.close()
            # The transport closes the socket on a later loop turn; it
            # stays listed until then.
            try:
                await writer.wait_closed()
            except OSError:
                pass
            finally:
                _SOCKETS.discard(sock)

    @staticmethod
    async def _discard_input(reader, limit: int = 8 << 20) -> None:
        """Best-effort drain of a rejected request's remaining bytes.

        Closing with unread input still queued makes the kernel send an
        RST, which can destroy the error response before the client
        reads it.  Bounded by ``limit`` and a short timeout so a client
        that never stops sending cannot pin the handler.
        """
        drained = 0
        while drained < limit:
            try:
                chunk = await asyncio.wait_for(
                    reader.read(65536), timeout=1.0
                )
            except (asyncio.TimeoutError, ConnectionError, ValueError):
                return
            if not chunk:
                return
            drained += len(chunk)

    @staticmethod
    async def _read_request(
        reader,
    ) -> Optional[Tuple[str, str, Dict[str, str], Dict[str, str], bytes]]:
        """Parse one request into (method, path, query, headers, body)."""
        # StreamReader.readline raises ValueError past the stream's
        # buffer limit; an attacker's kilometer-long header line is a
        # malformed request (400), not a server bug (500).
        try:
            request_line = await reader.readline()
        except ValueError:
            raise _BadRequest("request line too long") from None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        content_length = 0
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                raise _BadRequest("header line too long") from None
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            headers[name] = value.strip()
            if name == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _BadRequest(
                        f"malformed Content-Length {value.strip()!r}"
                    ) from None
                if content_length < 0:
                    raise _BadRequest("Content-Length must be >= 0")
        if content_length > _MAX_BODY_BYTES:
            raise _PayloadTooLarge(
                f"request body of {content_length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte limit"
            )
        try:
            body = (
                await reader.readexactly(content_length)
                if content_length else b""
            )
        except asyncio.IncompleteReadError:
            raise _BadRequest(
                "request body shorter than Content-Length"
            ) from None
        path, _, query_string = target.partition("?")
        query = dict(parse_qsl(query_string)) if query_string else {}
        return method, path, query, headers, body

    async def _dispatch(
        self, writer, method: str, path: str,
        query: Dict[str, str], headers: Dict[str, str], body: bytes,
    ) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _lookup_or_respond(self, writer, table, job_id: str):
        """Resolve a run id in a job table, answering 410/404 otherwise.

        An evicted run is *gone*, not unknown: the 410 body carries the
        tombstone summary (final state, tenant, timestamps) so a late
        poller still learns how its run ended.
        """
        job, tombstone = table.lookup(job_id)
        if job is not None:
            return job
        if tombstone is not None:
            doc = dict(tombstone)
            # The run's own failure reason moves aside so "error" can
            # carry the HTTP-level explanation, like every error body.
            doc["job_error"] = doc.pop("error", None)
            doc["error"] = (
                f"run {job_id!r} finished and was evicted from the "
                "retention window"
            )
            self._write_json(writer, 410, doc)
            return None
        self._write_json(writer, 404, {"error": f"unknown run {job_id!r}"})
        return None

    def _write_json(
        self, writer, status: int, doc: dict,
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        self._write_bytes(
            writer, status, json.dumps(doc).encode("utf-8"),
            "application/json", extra_headers,
        )

    def _write_text(self, writer, status: int, text: str,
                    content_type: str = "text/plain; charset=utf-8") -> None:
        self._write_bytes(writer, status, text.encode("utf-8"), content_type)

    def _write_bytes(
        self, writer, status: int, body: bytes, content_type: str,
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        self._responses_counter.labels(str(status)).inc()
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Server: {self.server_name}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        for name, value in extra_headers:
            lines.append(f"{name}: {value}")
        lines.append("Connection: close")
        head = "\r\n".join(lines) + "\r\n\r\n"
        writer.write(head.encode("latin-1") + body)
