"""Long-soak harness: sustained traffic against a live server.

Where :mod:`repro.bench.runner` profiles the *simulator*, the soak
profiles the *control plane*: it boots a real :class:`SimulationServer`
on a daemon thread, drives it with sustained mixed-tenant traffic
(mostly cache hits, so tens of thousands of submissions fit in a CI
minute), and samples the server's memory and accounting invariants the
whole time:

* **RSS flatness** — ``repro_process_rss_bytes`` scraped from
  ``/metrics`` must stay within a tolerance band after warmup; an
  unbounded job table or event list shows up as monotone drift.
* **Budget enforcement** — the job-table's ``terminal_bytes`` must
  respect its configured budget at every sample.
* **Stats/metrics consistency** — every ``/v1/stats`` total must
  exactly equal its ``/metrics`` counter.  The stats totals are read
  from those counters, so this holds by construction; the check keeps
  the HTTP rendering of both documents honest.
* **Tombstones, not 404s** — recently submitted run ids must answer
  200 or 410, never 404, across retention eviction.

The artifact is schema-versioned like BENCH files so EXPERIMENTS.md can
chart soak RSS across months of commits.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import signal
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.metrics import family_total, parse_samples

SOAK_SCHEMA_VERSION = 1

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

DEFAULT_TENANTS = ("alpha", "bravo", "charlie", "delta")
DEFAULT_PRIORITIES = (0, 5, 10, 20, 50, 99)


@dataclass
class SoakConfig:
    """One soak invocation's traffic shape and server knobs."""

    duration_s: float = 30.0
    min_submissions: int = 2000
    workers: int = 2
    # Server-side budgets under test.
    job_budget_bytes: Optional[int] = 1 * 1024 * 1024
    job_min_retention_s: float = 0.0
    max_events_per_job: int = 64
    cache_budget_bytes: Optional[int] = 8 * 1024 * 1024
    # Traffic shape: a small unique-seed pool is simulated once (cache
    # misses), then the sustained phase replays it as cache hits.
    warm_pool: int = 6
    sim_seconds: float = 1.0
    scenario: str = "S-A"
    policy: str = "LRU+CFS"
    tenants: tuple = DEFAULT_TENANTS
    priorities: tuple = DEFAULT_PRIORITIES
    # Sampling cadence (in submissions) and warmup fraction excluded
    # from the drift computation.
    sample_every: int = 250
    warmup_frac: float = 0.2
    # Recent ids probed for the 200/410-never-404 invariant per sample.
    probe_ids: int = 5
    # Fault injection: every N submissions, SIGKILL one pool worker and
    # drive a cache miss through the broken pool, exercising the
    # crash-detect/rebuild/retry path under sustained load (0 = off).
    fault_every: int = 0
    max_rss_drift_pct: Optional[float] = None
    out: Optional[str] = None
    seed: int = 42
    extra: dict = field(default_factory=dict)


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


def _serve_config(config: SoakConfig):
    from repro.serve.http import ServeConfig

    return ServeConfig(
        port=0,
        workers=config.workers,
        cache_budget_bytes=config.cache_budget_bytes,
        job_budget_bytes=config.job_budget_bytes,
        job_min_retention_s=config.job_min_retention_s,
        max_events_per_job=config.max_events_per_job,
        # Fast gauge/GC tick so eviction and RSS stay current between
        # scrapes even when the sustained phase is pure cache hits.
        mem_sample_interval_s=0.5,
    )


def _request(config: SoakConfig, seed: int) -> dict:
    return {
        "scenario": config.scenario,
        "policy": config.policy,
        "bg_case": "bg-null",
        "seconds": config.sim_seconds,
        "seed": seed,
    }


def _kill_one_worker(handle) -> Optional[int]:
    """SIGKILL one live pool worker process; returns its pid or None.

    Reaches into the in-process server's executor on purpose: the
    point is an *unannounced* death — exactly what the OOM killer does
    to a worker on a loaded host — not a graceful pool shutdown.
    """
    try:
        pool = handle.server.state.fleet._pool
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


def run_soak(config: SoakConfig, progress=None) -> Dict[str, object]:
    """Boot a server, soak it, and return the artifact document."""
    from repro.serve.client import ServeClient, ServeError
    from repro.serve.testing import ServerThread

    samples: List[dict] = []
    recent_ids: deque = deque(maxlen=200)
    tombstone_404s = 0
    budget_over_bytes_max = 0
    faults: List[dict] = []
    all_failures: List[str] = []

    with ServerThread(_serve_config(config)) as handle:
        client = ServeClient(handle.base_url, timeout_s=60.0)

        # Warm phase: simulate the unique pool once so the sustained
        # phase is answered from the result cache at ~1ms/submission.
        for i in range(config.warm_pool):
            job = client.run(_request(config, config.seed + i))
            recent_ids.append(job["id"])

        def sample(submissions: int, t0: float) -> dict:
            nonlocal tombstone_404s, budget_over_bytes_max
            # /metrics first: the scrape refreshes the RSS gauge, and
            # the sustained phase is quiescent between submissions so
            # the follow-up /v1/stats reads the same ledgers.
            metrics_text = client.metrics_text()
            stats = client.stats()
            failures = check_consistency(stats, metrics_text)
            parsed = parse_samples(metrics_text)
            retention = stats["retention"]
            budget = retention["budget_bytes"]
            over = (
                max(0, retention["terminal_bytes"] - budget)
                if budget is not None else 0
            )
            budget_over_bytes_max = max(budget_over_bytes_max, over)
            probe = {"checked": 0, "ok_200": 0, "gone_410": 0,
                     "missing_404": 0}
            for job_id in list(recent_ids)[-config.probe_ids:]:
                probe["checked"] += 1
                try:
                    client.get(job_id)
                    probe["ok_200"] += 1
                except ServeError as exc:
                    if exc.status == 410:
                        probe["gone_410"] += 1
                    else:
                        probe["missing_404"] += 1
                        tombstone_404s += 1
                        failures.append(
                            f"run {job_id} answered {exc.status}, "
                            "expected 200 or 410"
                        )
            all_failures.extend(failures)
            doc = {
                "t_s": round(time.monotonic() - t0, 3),
                "submissions": submissions,
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
            samples.append(doc)
            if progress is not None:
                progress(doc)
            return doc

        t0 = time.monotonic()
        submissions = 0
        sample(submissions, t0)
        index = 0
        while (
            time.monotonic() - t0 < config.duration_s
            or submissions < config.min_submissions
        ):
            seed = config.seed + (index % config.warm_pool)
            job = client.submit(
                _request(config, seed),
                tenant=config.tenants[index % len(config.tenants)],
                priority=config.priorities[index % len(config.priorities)],
            )
            recent_ids.append(job["id"])
            submissions += 1
            index += 1
            if (
                config.fault_every
                and submissions % config.fault_every == 0
            ):
                pid = _kill_one_worker(handle)
                if pid is not None:
                    # A unique seed misses the cache, so the dead
                    # worker is discovered *now*: the fleet must see
                    # BrokenProcessPool, rebuild, retry, and still
                    # return a result.
                    victim_job = client.run(
                        _request(
                            config,
                            config.seed + 100_000 + len(faults),
                        ),
                        timeout_s=120.0,
                    )
                    faults.append({
                        "at_submission": submissions,
                        "killed_pid": pid,
                        "probe_state": victim_job["state"],
                    })
                    recent_ids.append(victim_job["id"])
                    submissions += 1
            if submissions % config.sample_every == 0:
                sample(submissions, t0)
        final = sample(submissions, t0)

    # Drift over the post-warmup window: the first retained sample is
    # the baseline, so allocator ramp-up and cache fill don't count.
    warmup = max(1, int(len(samples) * config.warmup_frac))
    window = samples[warmup:] or samples[-1:]
    baseline = window[0]["rss_bytes"] or 1
    drift_pct = 100.0 * (final["rss_bytes"] - baseline) / baseline
    max_rss = max(s["rss_bytes"] for s in samples)
    unique_failures = sorted(set(all_failures))
    summary = {
        "submissions": submissions,
        "duration_s": final["t_s"],
        "submissions_per_sec": (
            round(submissions / final["t_s"], 1) if final["t_s"] else 0.0
        ),
        "samples": len(samples),
        "warmup_samples": warmup,
        "baseline_rss_bytes": baseline,
        "final_rss_bytes": final["rss_bytes"],
        "max_rss_bytes": max_rss,
        "rss_drift_pct": round(drift_pct, 2),
        "budget_over_bytes_max": budget_over_bytes_max,
        "jobs_retained_final": final["jobs_retained"],
        "evicted_total": final["retention"]["evicted_total"],
        "tombstone_404s": tombstone_404s,
        "faults_injected": len(faults),
        "fault_probes_done": sum(
            1 for f in faults if f["probe_state"] == "done"
        ),
        "consistency_failures": unique_failures,
    }
    return {
        "schema_version": SOAK_SCHEMA_VERSION,
        "generated_at": _dt.datetime.now(_dt.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "config": {
            "duration_s": config.duration_s,
            "min_submissions": config.min_submissions,
            "workers": config.workers,
            "job_budget_bytes": config.job_budget_bytes,
            "job_min_retention_s": config.job_min_retention_s,
            "max_events_per_job": config.max_events_per_job,
            "cache_budget_bytes": config.cache_budget_bytes,
            "warm_pool": config.warm_pool,
            "sim_seconds": config.sim_seconds,
            "scenario": config.scenario,
            "policy": config.policy,
            "tenants": list(config.tenants),
            "sample_every": config.sample_every,
            "seed": config.seed,
        },
        "summary": summary,
        "samples": samples,
        "faults": faults,
    }


def default_out_path() -> str:
    return f"SOAK_{_dt.date.today().isoformat()}.json"


def write_soak_file(doc: Dict[str, object], path: str) -> str:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    return path


def config_from_args(args: argparse.Namespace) -> SoakConfig:
    budget_mb = getattr(args, "job_budget_mb", None)
    return SoakConfig(
        duration_s=float(args.soak),
        min_submissions=int(getattr(args, "soak_submissions", 2000)),
        workers=max(1, int(getattr(args, "jobs", 1) or 1)),
        job_budget_bytes=(
            int(budget_mb * 1024 * 1024) if budget_mb else 1024 * 1024
        ),
        sample_every=int(getattr(args, "soak_sample_every", 250)),
        fault_every=int(getattr(args, "soak_fault_every", 0) or 0),
        max_rss_drift_pct=getattr(args, "soak_max_drift_pct", None),
        out=getattr(args, "out", None),
        seed=int(getattr(args, "seed", 42)),
    )


def main(args: argparse.Namespace) -> int:
    config = config_from_args(args)

    def progress(doc: dict) -> None:
        print(
            f"  soak t={doc['t_s']:7.1f}s {doc['submissions']:>6} subs, "
            f"rss {doc['rss_bytes'] / (1 << 20):6.1f} MB, "
            f"{doc['jobs_retained']:>5} retained, "
            f"{len(doc['consistency_failures'])} inconsistencies",
            file=sys.stderr,
        )

    doc = run_soak(config, progress=progress)
    out = config.out or default_out_path()
    write_soak_file(doc, out)
    summary = doc["summary"]
    print(
        f"soak: {summary['submissions']} submissions in "
        f"{summary['duration_s']}s, rss drift {summary['rss_drift_pct']}% "
        f"(max {summary['max_rss_bytes'] / (1 << 20):.1f} MB), "
        f"{summary['evicted_total']} evictions, "
        f"{len(summary['consistency_failures'])} inconsistencies -> {out}"
    )
    failed = False
    if summary["consistency_failures"]:
        print("soak: FAIL stats/metrics diverged:", file=sys.stderr)
        for line in summary["consistency_failures"]:
            print(f"  {line}", file=sys.stderr)
        failed = True
    if summary["budget_over_bytes_max"] > 0 and config.job_min_retention_s == 0:
        print(
            f"soak: FAIL job table exceeded its budget by "
            f"{summary['budget_over_bytes_max']} bytes",
            file=sys.stderr,
        )
        failed = True
    if summary["faults_injected"] > summary["fault_probes_done"]:
        print(
            f"soak: FAIL only {summary['fault_probes_done']} of "
            f"{summary['faults_injected']} post-fault probes completed",
            file=sys.stderr,
        )
        failed = True
    if (
        config.max_rss_drift_pct is not None
        and abs(summary["rss_drift_pct"]) > config.max_rss_drift_pct
    ):
        print(
            f"soak: FAIL rss drift {summary['rss_drift_pct']}% exceeds "
            f"±{config.max_rss_drift_pct}%",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0
