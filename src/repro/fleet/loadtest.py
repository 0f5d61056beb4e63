"""``repro loadtest`` — the one load generator for the serve plane.

Replays a deterministic, seeded mix of submissions (tenants,
priorities, work sizes, deliberate duplicates for cache hits) against
a coordinator or a single serve node with a closed-loop client pool,
and emits a schema-versioned ``LOADTEST_<date>.json`` artifact:
throughput, per-priority-class p50/p95/p99 and lost/duplicate
accounting (the gem5 reproducibility methodology is why the artifact
is versioned and re-runnable rather than a console dump).

A **soak** (``duration_s``, ``--soak SECONDS``) is one long level
against a node the loadtest boots in its own process: that is the only
target whose pool worker it can SIGKILL, and the node's RSS is then
the loadtest's own.  Between submissions the soak samples the node —
RSS, every ``/v1/stats`` total against its ``/metrics`` counter, the
job table's byte budget, and recent ids answering 200 or 410, never
404 — and every ``fault_every`` submissions it kills a pool worker and
sends a cache miss through the rebuilt pool.  The loadtest keeps
counts and bounded samples, never a record per request, so an
hour-long soak holds no more state than a short one.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import random
import signal
import sys
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.metrics.stats import percentile
from repro.obs.metrics import family_total, parse_samples
from repro.serve.client import ServeClient, ServeError
from repro.serve.queue import DEFAULT_PRIORITY, priority_class
from repro.serve.spec import SPEC_VERSION, TERMINAL_STATES

SCHEMA_VERSION = 3

# Work sizes in simulated seconds (~260 sim-s per wall-s on a dev
# box): a mix of quick probes and meatier runs.
_WORK_SIZES = (20.0, 60.0, 120.0)
_PRIORITIES = (5, 10, 20)  # one per class: high / normal / low
# Retries for 429 backpressure while submitting.
_SUBMIT_RETRIES = 6
# The most the loadtest keeps of anything per request: mix history,
# job ids checked for duplicates, latency samples per class.  Levels
# up to this size are measured exactly; a longer one (a soak) checks
# duplicates over any _KEEP consecutive ids and reports percentiles
# of a uniform sample.
_KEEP = 1000
_PROBE_IDS = 5        # recent ids checked for 200/410 per soak sample
_PROBE_SEED = 10**9   # fault probes' seeds, far above the mix's

# (dotted /v1/stats path, /metrics family) pairs that must agree
# exactly whenever the server is quiescent.  Labeled families are
# summed across children.
CONSISTENCY_PAIRS = (
    ("jobs.submitted_total", "repro_serve_jobs_submitted_total"),
    ("jobs.cache_hits", "repro_serve_cache_hit_jobs_total"),
    ("jobs.events_dropped_total", "repro_serve_job_events_dropped_total"),
    ("queue.enqueued_total", "repro_serve_queue_enqueued_total"),
    ("queue.expired_total", "repro_serve_queue_expired_total"),
    ("queue.cancelled_total", "repro_serve_queue_cancelled_total"),
    ("cache.hits", "repro_serve_cache_hits_total"),
    ("cache.misses", "repro_serve_cache_misses_total"),
    ("cache.evictions", "repro_serve_cache_evictions_total"),
    ("workers.started_total", "repro_serve_worker_started_total"),
    ("workers.completed_total", "repro_serve_worker_completed_total"),
    ("workers.failed_total", "repro_serve_worker_failed_total"),
    ("workers.retries_total", "repro_serve_worker_retries_total"),
    ("workers.crashes_total", "repro_serve_worker_crashes_total"),
    ("workers.abandoned_total", "repro_serve_worker_abandoned_total"),
    ("retention.evicted_total", "repro_serve_jobs_evicted_total"),
)


@dataclass
class LoadtestConfig:
    """One loadtest run: target, mix and, for a soak, the node's job
    budget and the sampler's cadences and drift gate."""

    # The target; a soak replaces it with the node it boots.
    base_url: str = "http://127.0.0.1:8090"
    # Requests in the main level; a soak's minimum submissions.
    requests: int = 200
    concurrency: int = 8
    seed: int = 42
    tenants: Sequence[str] = ("tenant-a", "tenant-b", "tenant-c")
    # Fraction of submissions that deliberately duplicate an earlier
    # one, exercising the content-addressed store (and, on a fleet,
    # cross-node cache answers).
    duplicate_fraction: float = 0.25
    wait_timeout_s: float = 300.0
    # Soak: hold the main level for at least this long (None = no soak).
    duration_s: Optional[float] = None
    job_budget_bytes: int = 1024 * 1024
    sample_every: int = 250
    # Every N submissions, SIGKILL a pool worker (0 = never).
    fault_every: int = 0
    max_rss_drift_pct: Optional[float] = None

    def __post_init__(self) -> None:
        if self.duration_s is not None and self.concurrency != 1:
            raise ValueError(
                "a soak samples its node between submissions, so it "
                "runs one client (concurrency 1)"
            )


def generate_mix(config: LoadtestConfig) -> Iterator[dict]:
    """An endless deterministic submission mix: same seed, same requests.

    A duplicate repeats one of the last ``_KEEP`` submissions, so the
    generator's state is bounded.
    """
    rng = random.Random(config.seed)
    recent: deque = deque(maxlen=_KEEP)
    for i in itertools.count():
        if recent and rng.random() < config.duplicate_fraction:
            base = dict(rng.choice(recent))
        else:
            base = {
                "scenario": "S-A",
                "bg_case": "bg-null",
                "seconds": rng.choice(_WORK_SIZES),
                "seed": 1000 + config.seed * 10000 + i,
            }
        base["tenant"] = rng.choice(list(config.tenants))
        base["priority"] = rng.choice(_PRIORITIES)
        recent.append(base)
        yield base


# ----------------------------------------------------------------------
# Closed-loop replay
# ----------------------------------------------------------------------
class _Samples:
    """Exact count and sum, and a uniform sample of at most ``_KEEP``."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.values: List[float] = []
        self.count = 0
        self.total = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if len(self.values) < _KEEP:
            self.values.append(value)
        else:  # reservoir sampling: every value kept with equal odds
            slot = self.rng.randrange(self.count)
            if slot < _KEEP:
                self.values[slot] = value

    def doc(self) -> dict:
        doc = {
            "count": self.count,
            "mean_s": round(self.total / self.count, 4) if self.count else None,
        }
        for q in (50, 95, 99):
            doc[f"p{q}_s"] = round(percentile(self.values, q), 4)
        return doc


def run_level(
    config: LoadtestConfig,
    payloads: Iterable[dict],
    concurrency: int,
    between: Optional[Callable[[Optional[dict]], None]] = None,
) -> dict:
    """Replay ``payloads`` with ``concurrency`` closed-loop clients.

    Each client submits, then GETs the run through the target until it
    is terminal.  ``between(job)`` runs in the client's thread after
    each request, with the terminal snapshot (None if the request
    failed), before that client draws its next payload.
    """
    mix = iter(payloads)
    lock = threading.Lock()
    rng = random.Random(config.seed)
    counts = dict.fromkeys(
        ("requests", "completed", "failed", "lost", "duplicated",
         "errors", "cache_hits"), 0,
    )
    by_class: Dict[str, _Samples] = {}
    recent_ids: "OrderedDict[str, None]" = OrderedDict()

    def record(payload: dict, job_id: Optional[str], job: Optional[dict],
               e2e_s: float) -> None:
        counts["requests"] += 1
        counts["errors"] += job is None
        state = job["state"] if job is not None else None
        if job_id is not None:
            if job_id in recent_ids:
                counts["duplicated"] += 1
            else:
                recent_ids[job_id] = None
                if len(recent_ids) > _KEEP:
                    recent_ids.popitem(last=False)
            # Lost = admitted (we hold a job id) but never reached a
            # terminal snapshot; errors before admission are
            # client-visible rejections, not losses.
            counts["lost"] += state not in TERMINAL_STATES
        counts["failed"] += state == "failed"
        if state == "done":
            counts["completed"] += 1
            counts["cache_hits"] += bool(
                job.get("cache_hit") or job.get("cached")
            )
            cls = priority_class(payload.get("priority", DEFAULT_PRIORITY))
            by_class.setdefault(cls, _Samples(rng)).add(e2e_s)

    def client_loop() -> None:
        client = ServeClient(config.base_url, timeout_s=config.wait_timeout_s)
        while True:
            with lock:
                payload = next(mix, None)
            if payload is None:
                return
            start = time.monotonic()
            job_id = job = None
            try:
                job = client.submit(payload, retries=_SUBMIT_RETRIES)
                job_id = job["id"]
                if job["state"] not in TERMINAL_STATES:
                    job = client.wait(job_id, timeout_s=config.wait_timeout_s)
            except (ServeError, OSError):  # OSError covers timeouts
                job = None
            e2e_s = time.monotonic() - start
            with lock:
                record(payload, job_id, job, e2e_s)
            if between is not None:
                between(job)

    started = time.monotonic()
    clients = max(1, concurrency)
    with ThreadPoolExecutor(max_workers=clients) as pool:
        futures = [pool.submit(client_loop) for _ in range(clients)]
    for future in futures:
        future.result()  # a crashed client (or soak sample) fails the level
    wall_s = max(1e-9, time.monotonic() - started)

    done = counts["completed"]
    return {
        "concurrency": concurrency,
        **counts,
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(done / wall_s, 3),
        "by_priority": {
            cls: samples.doc() for cls, samples in sorted(by_class.items())
        },
        "mean_e2e_s": (
            round(sum(s.total for s in by_class.values()) / done, 4)
            if done else None
        ),
    }


# ----------------------------------------------------------------------
# Soak: sampler and worker-kill fault, run between submissions
# ----------------------------------------------------------------------
def _dig(doc: dict, dotted: str) -> float:
    value = doc
    for part in dotted.split("."):
        value = value[part]
    return float(value)


def check_consistency(stats: dict, metrics_text: str) -> List[str]:
    """Compare every stats/metrics pair; returns human-readable diffs."""
    samples = parse_samples(metrics_text)
    failures: List[str] = []
    for stats_path, family in CONSISTENCY_PAIRS:
        try:
            expected = _dig(stats, stats_path)
        except (KeyError, TypeError):
            failures.append(f"{stats_path}: missing from /v1/stats")
            continue
        actual = family_total(samples, family)
        if expected != actual:
            failures.append(
                f"{stats_path}={expected:g} != {family}={actual:g}"
            )
    return failures


def _kill_one_worker(node) -> Optional[int]:
    """SIGKILL one live pool worker process; returns its pid or None.

    Reaches into the in-process server's executor on purpose: the
    point is an *unannounced* death — exactly what the OOM killer does
    to a worker on a loaded host — not a graceful pool shutdown.
    """
    try:
        pool = node.server.state.fleet._pool
        processes = list((pool._processes or {}).values()) if pool else []
    except AttributeError:
        return None
    for proc in processes:
        if proc.is_alive() and proc.pid is not None:
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                continue
            return proc.pid
    return None


class _Soak:
    """Feeds a soak's level and samples its node between submissions.

    The level runs one client, so :meth:`mix` is drawn from, and
    :meth:`between` called, only while no request is in flight: both
    ``/metrics`` and ``/v1/stats`` then read settled ledgers.
    """

    def __init__(self, config: LoadtestConfig, node, progress=None):
        self.config = config
        self.node = node
        self.client = ServeClient(config.base_url, timeout_s=60.0)
        self.progress = progress
        self.submissions = 0
        self.recent_ids: deque = deque(maxlen=_PROBE_IDS)
        self.samples: List[dict] = []
        self.faults: List[dict] = []
        self.failures: set = set()
        self.tombstone_404s = 0
        self.budget_over_bytes_max = 0
        self.started = time.monotonic()

    def mix(self, payloads: Iterable[dict]) -> Iterator[dict]:
        """``payloads`` for at least ``duration_s`` and ``requests``.

        Samples once per ``sample_every`` boundary crossed and kills a
        worker once per ``fault_every`` boundary, following the kill
        with a cache-miss probe.  A probe is a submission too, so
        cadences act on crossing a boundary, not on landing on it.
        """
        config = self.config
        sampled = faulted = 0  # the last boundary each cadence acted on
        self._sample()
        for payload in payloads:
            if (
                self.submissions >= config.requests
                and time.monotonic() - self.started >= config.duration_s
            ):
                break
            if config.fault_every and (
                self.submissions // config.fault_every > faulted
            ):
                faulted = self.submissions // config.fault_every
                pid = _kill_one_worker(self.node)
                if pid is not None:
                    # A unique seed misses the cache, so the dead worker
                    # is discovered *now*: the node must see
                    # BrokenProcessPool, rebuild, retry, and still
                    # return a result.  between() fills probe_state.
                    self.faults.append({
                        "at_submission": self.submissions,
                        "killed_pid": pid,
                    })
                    yield dict(payload, seed=_PROBE_SEED + len(self.faults))
            if config.sample_every and (
                self.submissions // config.sample_every > sampled
            ):
                sampled = self.submissions // config.sample_every
                self._sample()
            yield payload
        if self.samples[-1]["submissions"] != self.submissions:
            self._sample()

    def between(self, job: Optional[dict]) -> None:
        """Count the request just finished; a probe's outcome is kept."""
        self.submissions += 1
        if job is not None:
            self.recent_ids.append(job["id"])
        if self.faults and "probe_state" not in self.faults[-1]:
            self.faults[-1]["probe_state"] = job["state"] if job else None

    def _sample(self) -> None:
        # /metrics first: the scrape refreshes the RSS gauge.
        metrics_text = self.client.metrics_text()
        stats = self.client.stats()
        failures = check_consistency(stats, metrics_text)
        parsed = parse_samples(metrics_text)
        retention = stats["retention"]
        over = max(0, retention["terminal_bytes"] - retention["budget_bytes"])
        self.budget_over_bytes_max = max(self.budget_over_bytes_max, over)
        probe = {"checked": 0, "ok_200": 0, "gone_410": 0, "missing_404": 0}
        for job_id in self.recent_ids:
            probe["checked"] += 1
            try:
                self.client.get(job_id)
                probe["ok_200"] += 1
            except ServeError as exc:
                if exc.status == 410:
                    probe["gone_410"] += 1
                    continue
                probe["missing_404"] += 1
                self.tombstone_404s += 1
                failures.append(
                    f"run {job_id} answered {exc.status}, expected 200 or 410"
                )
        self.failures.update(failures)
        doc = {
            "t_s": round(time.monotonic() - self.started, 3),
            "submissions": self.submissions,
            "rss_bytes": int(parsed.get("repro_process_rss_bytes", 0)),
            "tracemalloc_bytes": int(
                parsed.get("repro_process_tracemalloc_bytes", 0)
            ),
            "queue_depth": stats["queue"]["depth"],
            "retention": retention,
            "jobs_retained": retention["retained"],
            "budget_over_bytes": over,
            "consistency_failures": failures,
            "tombstone_probe": probe,
        }
        self.samples.append(doc)
        if self.progress is not None:
            self.progress(doc)

    def doc(self) -> dict:
        # The node's warm-up ends at the first sample whose tombstone
        # table is full: until then every eviction adds a tombstone, so
        # RSS grows with the fill, not with a leak.  Drift runs from
        # there to the end; a soak that never fills the table has no
        # drift to report, and its baseline is its last sample.
        samples = self.samples
        full = [
            i for i, sample in enumerate(samples)
            if sample["retention"]["tombstones"]
            >= sample["retention"]["tombstone_limit"]
        ]
        warmup = full[0] if full else len(samples) - 1
        baseline = samples[warmup]["rss_bytes"] or 1
        final = samples[-1]
        drift = None
        if full:
            drift = round(100.0 * (final["rss_bytes"] - baseline) / baseline, 2)
        summary = {
            "warmup_samples": warmup,
            "baseline_rss_bytes": baseline,
            "final_rss_bytes": final["rss_bytes"],
            "max_rss_bytes": max(s["rss_bytes"] for s in samples),
            "rss_drift_pct": drift,
            "budget_over_bytes_max": self.budget_over_bytes_max,
            "jobs_retained_final": final["jobs_retained"],
            "evicted_total": final["retention"]["evicted_total"],
            "tombstone_404s": self.tombstone_404s,
            "faults_injected": len(self.faults),
            "fault_probes_done": sum(
                1 for f in self.faults if f.get("probe_state") == "done"
            ),
            "consistency_failures": sorted(self.failures),
        }
        return {"summary": summary, "samples": samples, "faults": self.faults}


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_loadtest(config: LoadtestConfig, progress=None) -> dict:
    """The main level, a soak when ``duration_s`` is set.

    ``progress(sample)`` is called with each soak sample.
    """
    if config.duration_s is None:
        mix = itertools.islice(generate_mix(config), config.requests)
        return _drive(config, mix, None)
    from repro.serve.http import ServeConfig
    from repro.serve.testing import ServerThread

    # One pool worker (the one a fault kills), no minimum retention so
    # the job budget binds at once, and a fast gauge/GC tick so eviction
    # and RSS stay current between scrapes.
    node_config = ServeConfig(
        port=0,
        workers=1,
        cache_budget_bytes=8 * 1024 * 1024,
        job_budget_bytes=config.job_budget_bytes,
        job_min_retention_s=0.0,
        max_events_per_job=64,
        mem_sample_interval_s=0.5,
    )
    with ServerThread(node_config) as node:
        config = dataclasses.replace(config, base_url=node.base_url)
        soak = _Soak(config, node, progress)
        return _drive(config, soak.mix(generate_mix(config)), soak)


def _drive(
    config: LoadtestConfig, mix: Iterable[dict], soak: Optional[_Soak]
) -> dict:
    client = ServeClient(config.base_url)
    role = client.healthz().get("role", "node")
    workers = _fleet_workers(client, role)

    main = run_level(
        config, mix, config.concurrency,
        between=soak.between if soak is not None else None,
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "repro-loadtest",
        "spec_version": SPEC_VERSION,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "target": {
            "base_url": config.base_url,
            "role": role,
            "workers": workers,
        },
        "config": dataclasses.asdict(config),
        "results": main,
        "soak": soak.doc() if soak is not None else None,
    }


def _fleet_workers(client: ServeClient, role: str) -> int:
    """Total worker slots behind the target (fleet-wide on a coordinator)."""
    try:
        stats = client.stats()
    except ServeError:
        return 1
    if role == "coordinator":
        return sum(
            node.get("workers", 1)
            for node in stats.get("nodes", [])
            if node.get("alive")
        ) or 1
    return stats.get("workers", {}).get("size", 1)


def gate_failures(report: dict) -> List[str]:
    """Why a run fails: lost, duplicated or errored requests, or a soak's
    broken invariants (an empty list when it passes)."""
    results = report["results"]
    found = [
        f"{results[key]} {key} request(s)"
        for key in ("lost", "duplicated", "errors") if results[key]
    ]
    if report["soak"] is None:
        return found
    soak = report["soak"]["summary"]
    found += [
        f"stats/metrics: {line}" for line in soak["consistency_failures"]
    ]
    if soak["budget_over_bytes_max"] > 0:
        found.append(
            f"job table exceeded its budget by "
            f"{soak['budget_over_bytes_max']} bytes"
        )
    if soak["fault_probes_done"] < soak["faults_injected"]:
        found.append(
            f"only {soak['fault_probes_done']} of {soak['faults_injected']} "
            "post-fault probes completed"
        )
    limit = report["config"]["max_rss_drift_pct"]
    drift = soak["rss_drift_pct"]
    if limit is not None and drift is None:
        found.append(
            "rss drift unmeasured: the job table's tombstones never "
            "reached their limit, so the node never left its warm-up"
        )
    elif limit is not None and abs(drift) > limit:
        found.append(f"rss drift {drift}% exceeds ±{limit}%")
    return found


def write_report(report: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def config_from_args(args: argparse.Namespace) -> LoadtestConfig:
    concurrency = args.concurrency
    if concurrency is None:
        concurrency = (
            1 if args.soak is not None else LoadtestConfig.concurrency
        )
    return LoadtestConfig(
        base_url=args.url,
        requests=args.requests,
        concurrency=concurrency,
        seed=args.seed,
        duplicate_fraction=args.duplicate_fraction,
        duration_s=args.soak,
        job_budget_bytes=int(args.job_budget_mb * 1024 * 1024),
        sample_every=args.soak_sample_every,
        fault_every=args.soak_fault_every,
        max_rss_drift_pct=args.soak_max_drift_pct,
    )


def _print_sample(doc: dict) -> None:
    print(
        f"  soak t={doc['t_s']:7.1f}s {doc['submissions']:>6} subs, "
        f"rss {doc['rss_bytes'] / (1 << 20):6.1f} MB, "
        f"{doc['jobs_retained']:>5} retained, "
        f"{len(doc['consistency_failures'])} inconsistencies",
        file=sys.stderr,
    )


def main(args: argparse.Namespace) -> int:
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"loadtest: {exc}", file=sys.stderr)
        return 2
    report = run_loadtest(config, progress=_print_sample)
    out_path = args.out
    if out_path is None:
        date = time.strftime("%Y-%m-%d", time.gmtime())
        out_path = f"LOADTEST_{date}.json"
    write_report(report, out_path)
    results = report["results"]
    print(
        f"loadtest: {results['completed']}/{results['requests']} done, "
        f"{results['lost']} lost, {results['duplicated']} duplicated, "
        f"{results['cache_hits']} cache hits, "
        f"{results['throughput_rps']} req/s -> {out_path}",
        file=sys.stderr,
    )
    if report["soak"] is not None:
        soak = report["soak"]["summary"]
        drift = soak["rss_drift_pct"]
        print(
            f"loadtest: soak rss drift "
            f"{'unmeasured' if drift is None else f'{drift}%'} "
            f"(max {soak['max_rss_bytes'] / (1 << 20):.1f} MB), "
            f"{soak['evicted_total']} evictions, "
            f"{soak['faults_injected']} worker kills",
            file=sys.stderr,
        )
    found = gate_failures(report)
    for line in found:
        print(f"loadtest: FAIL {line}", file=sys.stderr)
    return 1 if found else 0
