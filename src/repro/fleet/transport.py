"""A minimal asyncio JSON-over-HTTP client for intra-fleet calls.

The coordinator proxies submissions and polls to nodes, and nodes
register/heartbeat back to the coordinator — all from inside running
event loops, where ``urllib`` would block the loop for the duration of
a worker-bound request.  This module is the asyncio-streams
counterpart of the plumbing in :mod:`repro.serve.httpbase`: HTTP/1.1, one
request per connection (``Connection: close``), JSON bodies only.

It is deliberately not a general HTTP client — no TLS, no redirects,
no chunked encoding — because fleet peers are the only servers it ever
talks to and they speak exactly this dialect.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple
from urllib.parse import urlsplit

DEFAULT_TIMEOUT_S = 10.0
_MAX_RESPONSE_BYTES = 8 << 20  # a full job doc with events fits easily


class TransportError(Exception):
    """Connection-level failure (refused, reset, timeout, bad HTTP)."""


async def async_request(
    method: str,
    url: str,
    doc: Optional[dict] = None,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Dict[str, str], Optional[dict]]:
    """One JSON request; returns ``(status, headers, body_doc)``.

    ``body_doc`` is None for empty bodies; non-JSON bodies raise
    :class:`TransportError` (fleet peers always speak JSON).
    """
    parts = urlsplit(url)
    if parts.scheme != "http" or not parts.hostname:
        raise TransportError(f"unsupported url {url!r} (need http://host)")
    port = parts.port or 80
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    body = b""
    if doc is not None:
        body = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    request_lines = [
        f"{method} {target} HTTP/1.1",
        f"Host: {parts.hostname}:{port}",
        "Connection: close",
        f"Content-Length: {len(body)}",
    ]
    if doc is not None:
        request_lines.append("Content-Type: application/json")
    for name, value in (headers or {}).items():
        request_lines.append(f"{name}: {value}")
    wire = ("\r\n".join(request_lines) + "\r\n\r\n").encode("ascii") + body

    try:
        return await asyncio.wait_for(
            _roundtrip(parts.hostname, port, wire), timeout=timeout_s
        )
    except asyncio.TimeoutError:
        raise TransportError(
            f"timeout after {timeout_s}s talking to {parts.netloc}"
        ) from None
    except (ConnectionError, OSError) as exc:
        raise TransportError(f"{type(exc).__name__}: {exc}") from None


async def _roundtrip(
    host: str, port: int, wire: bytes
) -> Tuple[int, Dict[str, str], Optional[dict]]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(wire)
        await writer.drain()
        status_line = await reader.readline()
        parts = status_line.decode("ascii", "replace").split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise TransportError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length")
        if length is not None:
            raw = await reader.readexactly(min(int(length), _MAX_RESPONSE_BYTES))
        else:
            raw = await reader.read(_MAX_RESPONSE_BYTES)
        body: Optional[dict] = None
        if raw:
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise TransportError(f"non-JSON response body: {exc}") from None
        return status, headers, body
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
