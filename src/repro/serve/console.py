"""Live fleet pressure console: ``repro watch --serve URL``, the
``watch`` subcommand's only mode (a local run's live table is
``repro scenario --watch``).

Renders a terminal dashboard over a running control plane from two
sources, the same way a human operator would watch it:

* periodic ``GET /v1/stats`` polls — queue depth, worker utilization,
  cache hit/eviction rates, per-priority-class latency percentiles, the
  RSS/tracemalloc/cache memory breakdown, and per-tenant rogue scores;
* the existing per-run SSE ``/events`` streams — background follower
  threads tail the most recent active runs and feed a rolling event
  ticker, so lifecycle transitions show up between stats polls.

Rendering is pure (``render_stats`` maps a stats document to a string)
so tests can assert on the output without a server, and the refresh
loop only needs ANSI clear-screen — no curses, no dependencies.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.serve.spec import TERMINAL_STATES

_ANSI_CLEAR = "\x1b[2J\x1b[H"

# Cap on concurrent SSE follower threads; each holds one connection.
_MAX_FOLLOWERS = 8


def _fmt_bytes(count: Optional[float]) -> str:
    if count is None:
        return "unbounded"
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} GiB"  # pragma: no cover - loop always returns


def _bar(fraction: float, width: int = 20) -> str:
    fraction = max(0.0, min(1.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def _latency_row(name: str, summary: Dict[str, dict]) -> List[str]:
    lines = []
    for cls in ("high", "normal", "low"):
        doc = summary.get(cls)
        if not doc or not doc.get("count"):
            continue
        lines.append(
            f"  {name:<12} {cls:<7} n={doc['count']:<6} "
            f"p50={doc['p50'] * 1000:8.1f}ms  p95={doc['p95'] * 1000:8.1f}ms  "
            f"p99={doc['p99'] * 1000:8.1f}ms  max={doc['max'] * 1000:8.1f}ms"
        )
    return lines


def render_stats(
    stats: dict,
    events: Iterable[Tuple[str, str, dict]] = (),
    base_url: str = "",
    event_tail: int = 8,
) -> str:
    """One full console frame from a ``/v1/stats`` document."""
    lines: List[str] = []
    status = stats.get("status", "?")
    uptime = stats.get("uptime_s", 0.0)
    lines.append(
        f"repro-serve fleet console {base_url}  "
        f"[{status}]  up {uptime:.0f}s"
    )
    lines.append("=" * 78)

    queue = stats.get("queue", {})
    depth, cap = queue.get("depth", 0), queue.get("capacity", 0)
    lines.append(
        f"queue    depth {depth}/{cap} [{_bar(depth / cap if cap else 0)}]  "
        f"enqueued {queue.get('enqueued_total', 0)}  "
        f"expired {queue.get('expired_total', 0)}  "
        f"cancelled {queue.get('cancelled_total', 0)}"
    )

    workers = stats.get("workers", {})
    busy, size = workers.get("busy", 0), workers.get("pool_size", 0)
    util = workers.get("utilization", 0.0)
    lines.append(
        f"workers  busy {busy}/{size} [{_bar(util)}] {util:.0%}  "
        f"done {workers.get('completed_total', 0)}  "
        f"failed {workers.get('failed_total', 0)}  "
        f"retries {workers.get('retries_total', 0)}  "
        f"crashes {workers.get('crashes_total', 0)}"
    )

    cache = stats.get("cache", {})
    lines.append(
        f"cache    entries {cache.get('entries', 0)}  "
        f"{_fmt_bytes(cache.get('memory_bytes', 0))}"
        f" / {_fmt_bytes(cache.get('memory_budget_bytes'))}  "
        f"hit {cache.get('hit_rate', 0.0):.1%} "
        f"(mem {cache.get('memory_hits', 0)} disk {cache.get('disk_hits', 0)} "
        f"miss {cache.get('misses', 0)})  "
        f"evictions {cache.get('evictions', 0)}"
    )

    memory = stats.get("memory", {})
    tm = memory.get("tracemalloc", {})
    tm_text = (
        f"tracemalloc {_fmt_bytes(tm.get('current_bytes', 0))} "
        f"(peak {_fmt_bytes(tm.get('peak_bytes', 0))})"
        if tm.get("enabled") else "tracemalloc off"
    )
    lines.append(
        f"memory   rss {_fmt_bytes(memory.get('rss_bytes', 0))}  {tm_text}  "
        f"cache {_fmt_bytes(memory.get('cache_memory_bytes', 0))}"
    )

    latency = stats.get("latency", {})
    latency_lines: List[str] = []
    for name in ("queue_wait_s", "exec_s", "e2e_s"):
        latency_lines.extend(_latency_row(name, latency.get(name, {})))
    if latency_lines:
        lines.append("latency  (per priority class)")
        lines.extend(latency_lines)

    tenants = stats.get("tenants", {})
    if tenants:
        lines.append("tenants  (rogue = 40% queue + 30% exec + 20% submit "
                     "+ 10% failures)")
        ranked = sorted(
            tenants.items(),
            key=lambda item: item[1].get("rogue_score", 0.0),
            reverse=True,
        )
        for tenant, doc in ranked[:10]:
            score = doc.get("rogue_score", 0.0)
            lines.append(
                f"  {tenant:<16} rogue {score:5.2f} [{_bar(score, 12)}]  "
                f"queued {doc.get('queued_now', 0):<3} "
                f"submitted {doc.get('submitted', 0):<5} "
                f"exec {doc.get('exec_s', 0.0):7.1f}s  "
                f"fail {doc.get('failure_rate', 0.0):.0%}"
            )

    recent = stats.get("recent", [])
    if recent:
        lines.append("runs     (most recent first)")
        for doc in recent[:event_tail]:
            lines.append(
                f"  {doc.get('id', '?'):<18} {doc.get('state', '?'):<9} "
                f"prio {doc.get('priority', '?'):<4} "
                f"{doc.get('tenant', '?'):<12} "
                f"{doc.get('scenario', '?')}/{doc.get('policy', '?')}"
                + ("  (cache)" if doc.get("cache_hit") else "")
            )

    tail = list(events)[-event_tail:]
    if tail:
        lines.append("events   (SSE tail)")
        for run_id, event, data in tail:
            detail = ""
            if event == "sample" and "fps" in data:
                detail = f"fps={data['fps']}"
            elif "error" in data:
                detail = str(data["error"])[:40]
            elif event == "done":
                detail = f"fps={data.get('fps')}"
            lines.append(f"  {run_id:<18} {event:<10} {detail}")

    return "\n".join(lines)


class FleetConsole:
    """Poll ``/v1/stats`` + tail recent runs' SSE streams, render live."""

    def __init__(
        self,
        client,
        every_s: float = 2.0,
        plain: bool = False,
        event_tail: int = 8,
        out=None,
    ):
        self.client = client
        self.every_s = max(0.1, every_s)
        self.plain = plain
        self.event_tail = event_tail
        self.out = out if out is not None else sys.stdout
        self.events: Deque[Tuple[str, str, dict]] = deque(maxlen=64)
        self._followed: set = set()
        self._threads: List[threading.Thread] = []

    # ------------------------------------------------------------------
    def _follow(self, run_id: str) -> None:
        try:
            for event, data in self.client.events(run_id, timeout_s=600.0):
                self.events.append((run_id, event, data))
        except Exception:
            pass  # follower death only stops the ticker, not the console

    def _spawn_followers(self, stats: dict) -> None:
        self._threads = [t for t in self._threads if t.is_alive()]
        for doc in stats.get("recent", []):
            run_id = doc.get("id")
            if (
                not run_id
                or run_id in self._followed
                or doc.get("state") in TERMINAL_STATES
                or len(self._threads) >= _MAX_FOLLOWERS
            ):
                continue
            self._followed.add(run_id)
            thread = threading.Thread(
                target=self._follow, args=(run_id,),
                name=f"console-follow-{run_id}", daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    # ------------------------------------------------------------------
    def frame(self) -> str:
        stats = self.client.stats()
        self._spawn_followers(stats)
        base = f"http://{self.client.host}:{self.client.port}"
        return render_stats(
            stats, list(self.events), base_url=base,
            event_tail=self.event_tail,
        )

    def run(self, iterations: Optional[int] = None) -> int:
        """Refresh until interrupted (or for ``iterations`` frames)."""
        shown = 0
        while iterations is None or shown < iterations:
            try:
                frame = self.frame()
            except (ConnectionError, OSError) as exc:
                frame = f"(serve unreachable: {exc}; retrying...)"
            except Exception as exc:
                frame = f"(stats error: {exc}; retrying...)"
            if not self.plain:
                self.out.write(_ANSI_CLEAR)
            self.out.write(frame + "\n")
            self.out.flush()
            shown += 1
            if iterations is not None and shown >= iterations:
                break
            try:
                time.sleep(self.every_s)
            except KeyboardInterrupt:
                break
        return 0
