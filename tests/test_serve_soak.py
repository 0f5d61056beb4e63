"""Short in-process soak: the CI-sized version of `repro bench --soak`.

A real server takes a few hundred sustained submissions while the
harness samples RSS, retention budgets, and stats/metrics consistency.
The full 10k+ soak runs in CI's soak-smoke job; this keeps the same
invariants under pytest at a size that fits the tier-1 budget.
"""

from repro.bench.soak import (
    SOAK_SCHEMA_VERSION,
    SoakConfig,
    check_consistency,
    run_soak,
    write_soak_file,
)


def test_short_soak_holds_every_invariant(tmp_path):
    config = SoakConfig(
        duration_s=2.0,
        min_submissions=400,
        workers=1,
        warm_pool=3,
        job_budget_bytes=64 * 1024,
        sample_every=100,
        probe_ids=3,
    )
    doc = run_soak(config)
    summary = doc["summary"]

    assert doc["schema_version"] == SOAK_SCHEMA_VERSION
    assert summary["submissions"] >= 400
    # The invariants the CI gate enforces at 10k submissions:
    assert summary["consistency_failures"] == []
    assert summary["tombstone_404s"] == 0
    assert summary["budget_over_bytes_max"] == 0
    # Retention actually cycled (evictions happened) under the budget.
    assert summary["evicted_total"] > 0
    assert summary["baseline_rss_bytes"] > 0

    # Samples carry the charted series.
    assert len(doc["samples"]) >= 3
    for sample in doc["samples"]:
        assert sample["rss_bytes"] > 0
        assert sample["retention"]["terminal_bytes"] <= 64 * 1024
        assert sample["consistency_failures"] == []

    # The artifact is valid JSON on disk.
    out = write_soak_file(doc, str(tmp_path / "SOAK_test.json"))
    import json

    with open(out) as handle:
        assert json.load(handle)["summary"]["submissions"] >= 400


def test_check_consistency_flags_divergence():
    stats = {
        "jobs": {"submitted_total": 5, "cache_hits": 2,
                 "events_dropped_total": 0},
        "queue": {"enqueued_total": 3, "expired_total": 1,
                  "cancelled_total": 0},
        "cache": {"hits": 2, "misses": 3, "evictions": 0},
        "workers": {"started_total": 3, "completed_total": 3,
                    "failed_total": 0, "retries_total": 1,
                    "crashes_total": 1, "abandoned_total": 0},
        "retention": {"evicted_total": 0},
    }
    metrics = "\n".join([
        "repro_serve_jobs_submitted_total 5",
        "repro_serve_cache_hit_jobs_total 2",
        "repro_serve_job_events_dropped_total 0",
        'repro_serve_queue_enqueued_total{priority_class="normal"} 2',
        'repro_serve_queue_enqueued_total{priority_class="high"} 1',
        "repro_serve_queue_expired_total 0",  # diverges: stats says 1
        "repro_serve_queue_cancelled_total 0",
        'repro_serve_cache_hits_total{tier="memory"} 2',
        "repro_serve_cache_misses_total 3",
        "repro_serve_cache_evictions_total 0",
        "repro_serve_worker_started_total 3",
        "repro_serve_worker_completed_total 3",
        "repro_serve_worker_failed_total 0",
        "repro_serve_worker_retries_total 1",
        "repro_serve_worker_crashes_total 1",
        "repro_serve_worker_abandoned_total 0",
        "repro_serve_jobs_evicted_total 0",
    ])
    failures = check_consistency(stats, metrics)
    assert len(failures) == 1
    assert "expired_total" in failures[0]

    metrics = metrics.replace(
        "repro_serve_queue_expired_total 0",
        "repro_serve_queue_expired_total 1",
    )
    assert check_consistency(stats, metrics) == []
