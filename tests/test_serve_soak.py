"""Short in-process soak: the CI-sized version of `repro loadtest --soak`.

A real node booted by the loadtest takes a few hundred sustained
submissions while the loadtest samples RSS, retention budgets, and
stats/metrics consistency.  The full 10k+ soak runs in CI's soak-smoke
job; this keeps the same invariants under pytest at a size that fits
the tier-1 budget.
"""

import dataclasses
import json

import pytest

from repro.fleet.loadtest import (
    SCHEMA_VERSION,
    LoadtestConfig,
    _Soak,
    check_consistency,
    gate_failures,
    run_loadtest,
    write_report,
)
from repro.serve.http import ServeConfig
from repro.serve.testing import ServerThread


@pytest.fixture(scope="module")
def soak_doc():
    return run_loadtest(LoadtestConfig(
        duration_s=2.0,
        requests=400,
        concurrency=1,
        duplicate_fraction=1.0,
        job_budget_bytes=64 * 1024,
        sample_every=100,
    ))


def test_short_soak_holds_every_invariant(soak_doc, tmp_path):
    doc = soak_doc
    soak = doc["soak"]["summary"]

    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["results"]["requests"] >= 400
    # The invariants the CI gate enforces at 10k submissions:
    assert soak["consistency_failures"] == []
    assert soak["tombstone_404s"] == 0
    assert soak["budget_over_bytes_max"] == 0
    # Retention actually cycled (evictions happened) under the budget.
    assert soak["evicted_total"] > 0
    assert soak["baseline_rss_bytes"] > 0

    # Samples carry the charted series.
    assert len(doc["soak"]["samples"]) >= 3
    for sample in doc["soak"]["samples"]:
        assert sample["rss_bytes"] > 0
        assert sample["retention"]["terminal_bytes"] <= 64 * 1024
        assert sample["consistency_failures"] == []

    # The artifact is valid JSON on disk.
    out = write_report(doc, str(tmp_path / "SOAK_test.json"))
    with open(out) as handle:
        assert json.load(handle)["results"]["requests"] >= 400


def test_artifact_records_every_config_field(soak_doc):
    fields = {f.name for f in dataclasses.fields(LoadtestConfig)}
    assert set(soak_doc["config"]) == fields
    assert soak_doc["config"]["job_budget_bytes"] == 64 * 1024
    assert soak_doc["config"]["fault_every"] == 0


def test_soak_and_loadtest_share_one_schema(soak_doc):
    with ServerThread(ServeConfig(port=0, workers=1)) as node:
        doc = run_loadtest(LoadtestConfig(
            base_url=node.base_url, requests=3, concurrency=1,
            duplicate_fraction=1.0,
        ))
    assert doc["results"]["completed"] == 3
    assert doc["soak"] is None
    assert set(doc) == set(soak_doc)
    assert doc["schema_version"] == soak_doc["schema_version"]


def test_coinciding_cadences_sample_once_per_boundary():
    # A fault probe is a submission, so every fault lands the count one
    # past a sample boundary; the sample due there must still be taken.
    doc = run_loadtest(LoadtestConfig(
        duration_s=0.0,
        requests=60,
        concurrency=1,
        duplicate_fraction=1.0,
        sample_every=10,
        fault_every=20,
    ))
    soak = doc["soak"]["summary"]
    boundaries = [s["submissions"] // 10 for s in doc["soak"]["samples"]]
    assert boundaries == list(range(7))
    assert soak["faults_injected"] == 2
    assert soak["fault_probes_done"] == 2
    assert soak["consistency_failures"] == []


def test_a_soak_runs_one_client():
    with pytest.raises(ValueError, match="one client"):
        LoadtestConfig(duration_s=1.0, concurrency=2)


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


def _soak_report(rss_mb, tombstones, limit=4096, max_drift_pct=10.0):
    """``_Soak.doc`` over synthetic samples, wrapped as a loadtest report."""
    soak = _Soak(LoadtestConfig(duration_s=1.0, concurrency=1), node=None)
    soak.samples = [
        {
            "submissions": 250 * i,
            "rss_bytes": int(mb * (1 << 20)),
            "jobs_retained": 500,
            "retention": {"tombstones": count, "tombstone_limit": limit,
                          "evicted_total": count},
        }
        for i, (mb, count) in enumerate(zip(rss_mb, tombstones))
    ]
    doc = soak.doc()
    report = {
        "results": {"lost": 0, "duplicated": 0, "errors": 0},
        "config": {"max_rss_drift_pct": max_drift_pct},
        "soak": doc,
    }
    return doc["summary"], gate_failures(report)


def test_drift_baseline_is_the_first_sample_with_a_full_tombstone_table():
    # RSS climbs while the table fills, then holds: the fill is the
    # node's warm-up, not a leak.
    fill = [0, 800, 1600, 2400, 3200, 4000, 4096]
    rss = [30.0, 31.0, 32.0, 33.0, 34.0, 35.0, 36.0]
    summary, failures = _soak_report(rss + [36.0] * 8 + [36.1],
                                     fill + [4096] * 9)
    assert summary["warmup_samples"] == 6
    assert summary["baseline_rss_bytes"] == 36 * (1 << 20)
    assert abs(summary["rss_drift_pct"]) < 0.5
    assert failures == []


def test_growth_after_the_table_is_full_fails_the_gate():
    summary, failures = _soak_report(
        [30.0, 33.0, 36.0, 37.0, 38.0, 39.0, 40.0],
        [0, 2048, 4096, 4096, 4096, 4096, 4096],
    )
    assert summary["warmup_samples"] == 2
    assert summary["rss_drift_pct"] == pytest.approx(11.11, abs=0.01)
    assert failures == ["rss drift 11.11% exceeds ±10.0%"]


def test_a_table_that_never_fills_leaves_drift_unmeasured():
    rss, fill = [30.0, 31.0, 32.0], [0, 1000, 2000]
    summary, failures = _soak_report(rss, fill)
    assert summary["rss_drift_pct"] is None
    assert len(failures) == 1 and "drift unmeasured" in failures[0]
    # Without a drift limit there is nothing to fail.
    assert _soak_report(rss, fill, max_drift_pct=None)[1] == []
