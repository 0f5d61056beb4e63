"""In-process fleet harnesses for tests and the CI smoke job.

Subclasses of :class:`repro.serve.testing.LoopThread`, like
:class:`~repro.serve.testing.ServerThread`: each fleet process
(coordinator, node) runs a real asyncio listener on its own
daemon-thread event loop, so blocking test code exercises the exact
HTTP paths production traffic takes — registration, heartbeats,
routing, proxying, eviction — with nothing mocked out.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.serve.http import ServeConfig
from repro.serve.testing import LoopThread
from repro.fleet.coordinator import Coordinator, CoordinatorConfig
from repro.fleet.node import FleetNode


class CoordinatorThread(LoopThread):
    """``with CoordinatorThread(config) as coord: ...``"""

    name = "repro-fleet-coordinator"

    def __init__(
        self,
        config: Optional[CoordinatorConfig] = None,
        startup_timeout_s: float = 30.0,
    ):
        super().__init__(
            config or CoordinatorConfig(port=0), startup_timeout_s
        )
        self.coordinator: Optional[Coordinator] = None

    def _listener(self) -> Optional[Coordinator]:
        return self.coordinator

    async def _amain(self) -> None:
        self._loop = asyncio.get_event_loop()
        self.coordinator = Coordinator(self.config)
        await self.coordinator.start()
        self._ready.set()
        await self.coordinator.serve_forever()


class FleetNodeThread(LoopThread):
    """``with FleetNodeThread(config, coord_url) as node: ...``"""

    name = "repro-fleet-node"

    def __init__(
        self,
        config: ServeConfig,
        coordinator_url: str,
        heartbeat_interval_s: float = 0.25,
        startup_timeout_s: float = 30.0,
    ):
        super().__init__(config, startup_timeout_s)
        self.coordinator_url = coordinator_url
        self.heartbeat_interval_s = heartbeat_interval_s
        self.node: Optional[FleetNode] = None

    def _listener(self) -> Optional[FleetNode]:
        return self.node

    async def _amain(self) -> None:
        self._loop = asyncio.get_event_loop()
        self.node = FleetNode(
            self.config, self.coordinator_url,
            heartbeat_interval_s=self.heartbeat_interval_s,
        )
        await self.node.start()
        self._ready.set()
        await self.node.serve_forever()

    def _shutdown(self) -> None:
        self.node.request_stop()

    def kill(self) -> None:
        """Fault injection: die without deregistering (no drain)."""
        assert self._loop is not None and self.node is not None
        self._loop.call_soon_threadsafe(self.node.simulate_death)
