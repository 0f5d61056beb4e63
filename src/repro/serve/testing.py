"""In-process server harnesses for tests and embedded use.

Each harness runs a listener (a :class:`SimulationServer` here; a fleet
coordinator or node in :mod:`repro.fleet.testing`) on its own event
loop in a daemon thread, so blocking test code (pytest,
:class:`ServeClient`) can talk to a real listening socket — the same
code path production traffic takes, ephemeral port and all.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from repro.serve.http import ServeConfig, SimulationServer


class LoopThread:
    """One asyncio loop on a daemon thread with ready/stop signaling.

    A subclass starts its listener in :meth:`_amain` (setting ``_loop``
    first and ``_ready`` once the port is open) and names that listener
    in :meth:`_listener`; the port, the URL and the stop request all go
    through it.
    """

    name = "repro-serve-test"

    def __init__(self, config, startup_timeout_s: float = 30.0):
        self.config = config
        self.startup_timeout_s = startup_timeout_s
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._main, name=self.name, daemon=True
        )

    def _listener(self):  # pragma: no cover - subclasses
        raise NotImplementedError

    async def _amain(self) -> None:  # pragma: no cover - subclasses
        raise NotImplementedError

    def _shutdown(self) -> None:
        """Runs on the loop: ask the listener to stop serving."""
        self._listener().request_shutdown()

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        listener = self._listener()
        assert listener is not None and listener.port is not None
        return listener.port

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    # ------------------------------------------------------------------
    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surface startup/runtime failures
            self._failure = exc
            self._ready.set()

    def start(self):
        self._thread.start()
        if not self._ready.wait(timeout=self.startup_timeout_s):
            raise TimeoutError(f"{self.name} did not start in time")
        if self._failure is not None:
            raise RuntimeError(
                f"{self.name} failed to start"
            ) from self._failure
        return self

    def stop(self, timeout_s: float = 30.0) -> None:
        if self._loop is not None and self._listener() is not None:
            try:
                self._loop.call_soon_threadsafe(self._shutdown)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=timeout_s)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class ServerThread(LoopThread):
    """``with ServerThread(config) as handle: ...`` — a live server."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        startup_timeout_s: float = 30.0,
    ):
        super().__init__(
            config or ServeConfig(port=0, workers=1), startup_timeout_s
        )
        self.server: Optional[SimulationServer] = None

    def _listener(self) -> Optional[SimulationServer]:
        return self.server

    async def _amain(self) -> None:
        self._loop = asyncio.get_event_loop()
        self.server = SimulationServer(self.config)
        await self.server.start()
        self._ready.set()
        await self.server.serve_forever()
