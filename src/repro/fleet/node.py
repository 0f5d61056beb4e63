"""A serve node that is a fleet member.

:class:`FleetNode` wraps a plain
:class:`~repro.serve.http.SimulationServer` with the two behaviors
membership requires: it registers with the coordinator at startup
(retrying until the coordinator exists — fleet bring-up order must not
matter) and heartbeats on a fixed interval forever after, each beat
carrying the runs it finished since its last acknowledged one.  A
heartbeat answered with 404 means the coordinator evicted us (or
restarted and lost its table); the node simply re-registers and
carries on — the shared result store means nothing of value lived
only in the membership table.

A node leaves one way, on SIGTERM or :meth:`FleetNode.stop`: it leaves
the ring, drains, and reports the runs the drain finished.

The node's serve config should point ``cache_dir`` at the fleet's
shared store directory; that single shared disk tier is what lets any
node answer any cached run and makes failover resubmission idempotent.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.serve.http import ServeConfig, SimulationServer
from repro.serve.httpbase import install_signal_handlers
from repro.fleet.transport import TransportError, async_request

DEFAULT_HEARTBEAT_INTERVAL_S = 2.0


class FleetNode:
    """One serve node plus its membership loop."""

    def __init__(
        self,
        config: ServeConfig,
        coordinator_url: str,
        advertise_url: Optional[str] = None,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
    ):
        if not config.node_id:
            raise ValueError("fleet membership requires config.node_id")
        self.server = SimulationServer(config)
        self.coordinator_url = coordinator_url.rstrip("/")
        self.advertise_url = advertise_url
        self.heartbeat_interval_s = heartbeat_interval_s
        self._member_task: Optional[asyncio.Task] = None
        self._stop_task: Optional[asyncio.Task] = None
        self._dead = False  # fault injection: stop acting like a member

    @property
    def node_id(self) -> str:
        return self.server.state.config.node_id

    @property
    def port(self) -> Optional[int]:
        return self.server.port

    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.server.start()
        if self.advertise_url is None:
            self.advertise_url = (
                f"http://{self.server.state.config.host}:{self.server.port}"
            )
        self._member_task = asyncio.ensure_future(self._membership_loop())

    async def _register(self) -> bool:
        try:
            status, _, _ = await async_request(
                "POST", f"{self.coordinator_url}/v1/nodes",
                {
                    "node_id": self.node_id,
                    "url": self.advertise_url,
                    "workers": self.server.state.config.workers,
                },
                timeout_s=5.0,
            )
            return status == 200
        except TransportError:
            return False

    async def _membership_loop(self) -> None:
        # Register first (retry until the coordinator answers), then
        # heartbeat; a 404 heartbeat drops us back to registering.
        registered = False
        while True:
            if not registered:
                registered = await self._register()
                if not registered:
                    await asyncio.sleep(min(1.0, self.heartbeat_interval_s))
                    continue
            await asyncio.sleep(self.heartbeat_interval_s)
            # None: the coordinator is briefly away; keep beating.
            if await self._heartbeat() == 404:
                registered = False

    async def _heartbeat(self) -> Optional[int]:
        """Send the runs finished since the last 200; the status, or
        None when the coordinator did not answer."""
        finished = self.server.state.finished
        sent = dict(finished)
        try:
            status, _, _ = await async_request(
                "POST",
                f"{self.coordinator_url}/v1/nodes/{self.node_id}/heartbeat",
                {"node_id": self.node_id, "finished": sent},
                timeout_s=5.0,
            )
        except TransportError:
            return None
        if status == 200:
            for job_id in sent:
                finished.pop(job_id, None)
        return status

    # ------------------------------------------------------------------
    async def stop(self) -> None:
        """Leave the fleet: leave the ring, drain, then report the runs
        the drain finished, so none of them stays in flight at the
        coordinator.  Returns once the server is down."""
        if self._member_task is not None:
            self._member_task.cancel()
        if not self._dead:
            try:
                await async_request(
                    "DELETE",
                    f"{self.coordinator_url}/v1/nodes/{self.node_id}",
                    timeout_s=5.0,
                )
            except TransportError:
                pass
        self.server.request_shutdown()
        await self.server.serve_forever()
        if not self._dead:
            await self._heartbeat()

    def request_stop(self) -> None:
        """Begin :meth:`stop` (idempotent, signal-handler safe)."""
        if self._stop_task is None:
            self._stop_task = asyncio.ensure_future(self.stop())

    async def serve_forever(self) -> None:
        """Serve until the server is down and a begun leave finished."""
        await self.server.serve_forever()
        if self._stop_task is not None:
            await self._stop_task

    def simulate_death(self) -> None:
        """Fault injection: vanish without a goodbye.

        Stops the heartbeat loop and closes the listener immediately —
        no drain, no deregistration — exactly what a kernel OOM kill or
        a yanked power cord looks like from the coordinator's side.
        The coordinator must notice via heartbeat timeout and resubmit
        this node's in-flight jobs.
        """
        self._dead = True
        if self._member_task is not None:
            self._member_task.cancel()
        self.server.close_listener()


async def run_node(
    config: ServeConfig,
    coordinator_url: str,
    advertise_url: Optional[str] = None,
    heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
    ready=None,
) -> None:
    """Start a fleet node, announce readiness, serve until drained."""
    node = FleetNode(
        config, coordinator_url,
        advertise_url=advertise_url,
        heartbeat_interval_s=heartbeat_interval_s,
    )
    await node.start()
    install_signal_handlers(node.request_stop)
    if ready is not None:
        ready(node)
    await node.serve_forever()
