"""``fleet-miss``: the fleet as the README deploys it.

Each boot starts ``repro coordinator --ratelimit-rps 50`` and one
``repro serve --workers 1 --node-id n1 --coordinator ... --cache-dir``
as subprocesses in a fresh run directory, with a fresh cache directory.
A traced boot starts the same CLI through ``launch.py``, which installs
the span wrappers first.

The load driver here is the benchmark's own and is meant to be the one
load driver ``repro loadtest`` and the soak can later fold onto:

* it never polls: completion comes from the job's SSE ``done`` event via
  ``ServeClient.events()``.  ``ServeClient.wait()`` polls every 100 ms,
  which would quantize miss latency into 100 ms steps;
* it does not reuse ``repro loadtest``, which polls the same way and
  runs eight client threads by default, more than a small host has
  cores;
* it runs two closed-loop client threads, never more than the CPUs the
  run was given, each holding at most one connection at a time: a
  client submits its next run only once the previous one's ``done``
  event arrived.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from common import (children_of, cpu_ms_per_op, cpu_seconds, pid_alive,
                    tail_record, throughput, vm_hwm_mb)

RATELIMIT_RPS = 50.0
# Runs are spread over this many tenants; two clients stay far below the
# token bucket's 50/s refill, so admission runs but never refuses.
TENANTS = 4
# Set-up samples: fleets booted (and stopped) before the measured one,
# and again after the window, so set-up is sampled across the run.
SETUP_BOOTS_BEFORE = 2
SETUP_BOOTS_AFTER = 2
REQUEST_TIMEOUT_S = 60.0
RECHECKS = 3
SCENARIOS = ("S-A", "S-B", "S-C", "S-D")
POLICIES = ("LRU+CFS", "Ice")
# A seeded quarter of the miss runs stream progress samples.
PROGRESS_PER_BLOCK = 2
PROGRESS_INTERVAL_MS = 1000.0
MISS_SECONDS = 30.0
# Fixed work for the traced comparison (counts repeat exactly per seed).
TRACE_MISS_RUNS = 16

_READY = re.compile(r"http://127\.0\.0\.1:(\d+)")
TRANSPORT_ERRORS = (OSError, http.client.HTTPException, ValueError)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def miss_request(seed: int, i: int) -> Tuple[dict, Optional[float]]:
    """Run ``i``: a distinct BG-null run and its progress interval.

    Each block of eight covers S-A..S-D under both policies in a seeded
    order, two of them streaming progress, so every seed offers the same
    work per block.
    """
    block, pos = divmod(i, 8)
    rng = random.Random(f"miss:{seed}:{block}")
    k = rng.sample(range(8), 8)[pos]
    payload = {
        "scenario": SCENARIOS[k % 4],
        "policy": POLICIES[k // 4],
        "bg_case": "bg-null",
        "seconds": MISS_SECONDS,
        # Distinct per request, so every run misses the cache.
        "seed": (seed % 2 ** 20) * 2 ** 11 + i,
    }
    streaming = pos in rng.sample(range(8), PROGRESS_PER_BLOCK)
    return payload, PROGRESS_INTERVAL_MS if streaming else None


# ----------------------------------------------------------------------
# The fleet
# ----------------------------------------------------------------------
class Fleet:
    """One coordinator and one node, as subprocesses of this process."""

    def __init__(self, run_dir: str, env: Dict[str, str], name: str,
                 traced: bool = False) -> None:
        self.dir = os.path.join(run_dir, name)
        os.makedirs(self.dir)
        self.env = env
        self.traced = traced
        self.procs: List[subprocess.Popen] = []
        self.coordinator_url = ""
        self.node_url = ""
        self.worker_pid = 0

    def _spawn(self, role: str, args: List[str]) -> Tuple[subprocess.Popen, str]:
        if self.traced:
            launcher = os.path.join(os.path.dirname(__file__), "launch.py")
            argv = [sys.executable, launcher,
                    os.path.join(self.dir, f"spans.{role}"), "--"] + args
        else:
            argv = [sys.executable, "-m", "repro"] + args
        log = os.path.join(self.dir, f"{role}.log")
        with open(log, "w") as out:
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env)
        self.procs.append(proc)
        deadline = time.monotonic() + 60.0
        while True:
            with open(log) as handle:
                match = _READY.search(handle.read())
            if match:
                return proc, f"http://127.0.0.1:{match.group(1)}"
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"{role} did not start; see {log}")
            time.sleep(0.005)

    def boot(self) -> float:
        """Start both processes; seconds until the node is registered."""
        from repro.serve.client import ServeClient

        t0 = time.monotonic()
        self.coordinator, self.coordinator_url = self._spawn(
            "coordinator",
            ["coordinator", "--port", "0",
             "--ratelimit-rps", f"{RATELIMIT_RPS:g}"])
        self.node, self.node_url = self._spawn(
            "node",
            ["serve", "--port", "0", "--workers", "1", "--node-id", "n1",
             "--coordinator", self.coordinator_url,
             "--cache-dir", os.path.join(self.dir, "cache")])
        coordinator = ServeClient(self.coordinator_url)
        while coordinator.healthz()["nodes_alive"] < 1:
            if time.monotonic() - t0 > 60.0:
                raise RuntimeError("node never registered")
            time.sleep(0.005)
        booted = time.monotonic() - t0
        workers = children_of(self.node.pid)
        if len(workers) != 1:
            raise RuntimeError(f"expected one pool worker, found {workers}")
        self.worker_pid = workers[0]
        return booted

    def pids(self) -> Dict[str, int]:
        return {"coordinator": self.coordinator.pid, "node": self.node.pid,
                "worker": self.worker_pid}

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(pid) for pid in self.pids().values())

    def cpu(self) -> Dict[str, float]:
        readings = {role: cpu_seconds(pid) for role, pid in self.pids().items()}
        readings["client"] = cpu_seconds("self")
        return readings

    def stop(self) -> None:
        """SIGTERM (graceful drain) node then coordinator; wait for all."""
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        # The pool worker is the node's child, not ours: wait for it to
        # go, and only kill it if the node died without shutting it down.
        deadline = time.monotonic() + 10.0
        while self.worker_pid and pid_alive(self.worker_pid):
            if time.monotonic() > deadline:
                try:
                    os.kill(self.worker_pid, signal.SIGKILL)
                except ProcessLookupError:
                    break
            time.sleep(0.01)


def follow_to_done(client, job_id: str) -> Tuple[Optional[float], int]:
    """Read the SSE stream; ``(monotonic time of done, samples seen)``."""
    done_at = None
    samples = 0
    for event, _data in client.events(job_id, timeout_s=REQUEST_TIMEOUT_S):
        if event == "sample":
            samples += 1
        elif event == "done":
            done_at = time.monotonic()
    return done_at, samples


def clients() -> int:
    """Load-generator threads: two, but never more than the CPUs."""
    return min(2, len(os.sched_getaffinity(0)))


def closed_loop(fleet: Fleet, seed: int, seconds: Optional[float] = None,
                count: Optional[int] = None) -> List[dict]:
    """Miss runs back to back per client until the window or count ends."""
    from repro.serve.client import ServeClient, ServeError

    deadline = time.monotonic() + seconds if seconds else None
    counter = itertools.count()
    outcomes: List[dict] = []

    def worker() -> None:
        client = ServeClient(fleet.coordinator_url, timeout_s=REQUEST_TIMEOUT_S)
        for i in counter:
            if (count is not None and i >= count) or (
                    deadline is not None and time.monotonic() >= deadline):
                return
            payload, progress_ms = miss_request(seed, i)
            outcome = {"i": i, "payload": payload, "sent": time.monotonic(),
                       "job_id": None, "samples": 0, "ok": False}
            try:
                job = client.submit(payload, tenant=f"tenant-{i % TENANTS}",
                                    progress_interval_ms=progress_ms)
                outcome["job_id"] = job["id"]
                done_at, outcome["samples"] = follow_to_done(client, job["id"])
                outcome["ok"] = done_at is not None
            except (ServeError,) + TRANSPORT_ERRORS:
                done_at = None
            outcome["end"] = done_at if done_at is not None else time.monotonic()
            outcomes.append(outcome)

    with ThreadPoolExecutor(max_workers=clients()) as pool:
        for future in [pool.submit(worker) for _ in range(clients())]:
            future.result()
    outcomes.sort(key=lambda o: o["i"])
    return outcomes


def latencies_ms(outcomes: List[dict]) -> List[float]:
    """Submit to ``done`` per run; a failed run misses every limit."""
    return [
        (o["end"] - o["sent"]) * 1000.0 if o["ok"]
        else REQUEST_TIMEOUT_S * 1000.0
        for o in outcomes
    ]


# ----------------------------------------------------------------------
# The untraced run
# ----------------------------------------------------------------------
def setup_samples(run_dir: str, env, name: str, count: int) -> List[float]:
    """Boot ``count`` throwaway fleets; seconds until each registered."""
    samples = []
    for k in range(count):
        fleet = Fleet(run_dir, env, f"{name}-{k}")
        try:
            samples.append(fleet.boot())
        finally:
            fleet.stop()
    return samples


def fetch_jobs(fleet: Fleet, outcomes: List[dict]) -> Dict[str, dict]:
    """Job documents (result and spans) fetched after the window."""
    from repro.serve.client import ServeClient

    client = ServeClient(fleet.coordinator_url, timeout_s=REQUEST_TIMEOUT_S)
    return {o["job_id"]: client.get(o["job_id"])
            for o in outcomes if o["ok"]}


def miss_check(seed: int, outcomes: List[dict], docs: Dict[str, dict]) -> int:
    """Mark wrong results failed; re-run a seeded sample in-process."""
    from repro.devices.specs import get_device
    from repro.experiments.scenarios import run_scenario
    from repro.serve.spec import RunRequest

    for o in outcomes:
        doc = docs.get(o["job_id"])
        if o["ok"] and (doc is None or doc["state"] != "done"
                        or not doc.get("result")
                        or doc["spans"]["exec_s"] is None):
            o["ok"] = False
    served = [o for o in outcomes if o["ok"]]
    rng = random.Random(f"recheck:{seed}")
    for o in rng.sample(served, min(RECHECKS, len(served))):
        request = RunRequest.from_dict(o["payload"])
        progress_ms = miss_request(seed, o["i"])[1]
        local = run_scenario(
            request.scenario, policy=request.policy,
            spec=get_device(request.device), bg_case=request.bg_case,
            bg_count=request.bg_count, seconds=request.seconds,
            settle_s=request.settle_s, seed=request.seed,
            sample_interval_ms=progress_ms,
        ).to_dict()
        if json.loads(json.dumps(local)) != docs[o["job_id"]]["result"]:
            o["ok"] = False
    return sum(not o["ok"] for o in outcomes)


def measure(seed: int, seconds: float, run_dir: str, env) -> dict:
    """Every end-to-end metric and the checks.

    ``sim_s_per_s`` is worker-side: the served runs' measured simulated
    seconds over their summed ``exec_s`` spans, so it tracks the
    simulator in the pool worker apart from queueing and SSE.
    """
    setups = setup_samples(run_dir, env, "before", SETUP_BOOTS_BEFORE)
    fleet = Fleet(run_dir, env, "measured")
    try:
        setups.append(fleet.boot())
        outcomes = closed_loop(fleet, seed, seconds=seconds)
        peak_rss = fleet.peak_rss_mb()
        docs = fetch_jobs(fleet, outcomes)
    finally:
        fleet.stop()
    setups += setup_samples(run_dir, env, "after", SETUP_BOOTS_AFTER)
    failed = miss_check(seed, outcomes, docs)
    served = [o for o in outcomes if o["ok"]]
    latency = latencies_ms(outcomes)
    exec_s = sum(docs[o["job_id"]]["spans"]["exec_s"] for o in served)
    return {
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            "sim_s_per_s": sum(o["payload"]["seconds"] for o in served)
            / exec_s if exec_s else 0.0,
            "latency_p50_ms": statistics.median(latency),
            "throughput_per_s": throughput(
                (o["sent"], o["end"]) for o in served),
            "peak_rss_mb": peak_rss,
            "setup_s": statistics.median(setups),
        },
        "record": {"setups_s": setups,
                   "latency_tail_ms": tail_record(latency)},
    }


# ----------------------------------------------------------------------
# The traced run: the same fixed work untraced, then traced
# ----------------------------------------------------------------------
def _median_ms(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) * 1000.0 if values else 0.0


def _per_call(totals, name: str, key: str, scale: float) -> float:
    row = totals.get(name)
    return row[key] / row["count"] * scale if row else 0.0


def _fleet_counters(fleet: Fleet) -> Dict[str, float]:
    from repro.serve.client import ServeClient

    node = ServeClient(fleet.node_url).stats()
    coordinator = ServeClient(fleet.coordinator_url).stats()
    return {
        "retained": node["retention"]["retained"],
        "rejected": coordinator["ratelimit"]["rejected_total"],
    }


def fleet_layers(fleet: Fleet, window: Tuple[float, float],
                 before: Dict[str, float], after: Dict[str, float],
                 outcomes: List[dict], docs: Dict[str, dict]
                 ) -> Dict[str, float]:
    """Control-plane and miss-path metrics of one traced window."""
    from simload import sim_layers
    from tracing import SpanSet, merge_totals

    coordinator = SpanSet.load(os.path.join(fleet.dir, "spans.coordinator"))
    node = SpanSet.load(os.path.join(fleet.dir, "spans.node"))
    coord = coordinator.totals(*window)
    served = node.totals(*window)
    workers = [SpanSet.load(os.path.join(fleet.dir, name))
               for name in sorted(os.listdir(fleet.dir))
               if name.startswith("spans.node.")]
    jobs = [(o, docs[o["job_id"]]) for o in outcomes
            if o.get("job_id") in docs]
    execs = {o["job_id"]: doc["spans"]["exec_s"] for o, doc in jobs}
    sim = merge_totals(w.totals(*window) for w in workers)
    counters = {owner: values for w in workers
                for owner, values in w.counters.items() if owner in execs}
    sim_ms: Dict[str, float] = {}
    for w in workers:
        sim_ms.update(w.durations_by_owner("experiments.run_scenario"))

    submits = coord.get("coordinator.submit", {}).get("count", 0)
    layers = sim_layers(sim, counters)
    layers.update({
        "coordinator.submit_self_ms": _per_call(
            coord, "coordinator.submit", "self_s", 1e3),
        "fleet.route_us": _per_call(coord, "fleet.route", "total_s", 1e6),
        "fleet.admit_us": _per_call(coord, "fleet.admit", "total_s", 1e6),
        "fleet.rejected": after["rejected"] - before["rejected"],
        "transport.proxy_rtt_ms": _per_call(
            coord, "transport.proxy", "total_s", 1e3),
        "spec.cache_key_us": (
            sum(coord.get(name, {}).get("total_s", 0.0)
                for name in ("spec.from_dict", "spec.cache_key"))
            / submits * 1e6 if submits else 0.0),
        "state.submit_us": _per_call(served, "state.submit", "total_s", 1e6),
        "cache.get_us": _per_call(served, "cache.get", "total_s", 1e6),
        "retention.retained_jobs": after["retained"],
        "queue.wait_ms": _median_ms(
            doc["spans"]["queue_wait_s"] for _, doc in jobs),
        "workers.exec_ms": _median_ms(execs.values()),
        "cache.store_ms": _median_ms(
            doc["spans"]["store_s"] for _, doc in jobs),
        "workers.sim_ms": _median_ms(sim_ms.get(j) for j in execs),
        "workers.ipc_ms": _median_ms(
            execs[j] - sim_ms[j] for j in execs
            if execs[j] is not None and j in sim_ms),
        "sse.done_lag_ms": _median_ms(
            o["end"] - doc["finished_at"] for o, doc in jobs),
        "serve.overhead_ms": _median_ms(
            o["end"] - o["sent"] - doc["spans"]["exec_s"]
            for o, doc in jobs if doc["spans"]["exec_s"] is not None),
        "progress.samples": sum(o["samples"] for o in outcomes),
    })
    return layers


def traced(seed: int, run_dir: str, env) -> dict:
    fleet = Fleet(run_dir, env, "plain")
    try:
        fleet.boot()
        cpu0 = fleet.cpu()
        plain = closed_loop(fleet, seed, count=TRACE_MISS_RUNS)
        cpu1 = fleet.cpu()
        plain_docs = fetch_jobs(fleet, plain)
    finally:
        fleet.stop()
    failed = miss_check(seed, plain, plain_docs)
    fleet = Fleet(run_dir, env, "traced", traced=True)
    try:
        fleet.boot()
        before = _fleet_counters(fleet)
        t0 = time.monotonic()
        outcomes = closed_loop(fleet, seed, count=TRACE_MISS_RUNS)
        window = (t0, time.monotonic())
        after = _fleet_counters(fleet)
        docs = fetch_jobs(fleet, outcomes)
    finally:
        fleet.stop()
    # Tracing must not change a result: same request, same answer.
    for p, o in zip(plain, outcomes):
        if not o["ok"] or (p["ok"] and docs[o["job_id"]]["result"]
                           != plain_docs[p["job_id"]]["result"]):
            o["ok"] = False
    failed += sum(not o["ok"] for o in outcomes)
    layers = fleet_layers(fleet, window, before, after, outcomes, docs)
    layers.update({f"{role}.cpu_ms_per_op": cpu_ms_per_op(
        cpu0[role], cpu1[role], len(plain)) for role in cpu0})
    layers["trace.overhead_ratio"] = (
        statistics.median(latencies_ms(outcomes))
        / statistics.median(latencies_ms(plain)))
    return {
        "attempted": len(plain) + len(outcomes),
        "failed": failed,
        "layers": layers,
        "record": {"latency_tail_ms": tail_record(latencies_ms(plain))},
    }
