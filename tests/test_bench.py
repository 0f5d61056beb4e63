"""Tier-2 tests for the self-profiling benchmark harness (repro.bench)."""

import copy
import json

import pytest

from repro.bench import compare
from repro.bench.runner import (
    BENCH_SCHEMA_VERSION,
    BenchConfig,
    run_bench,
    write_bench_file,
)

# Machine-dependent cell fields; everything else must be deterministic.
_PERF_KEYS = {"wall_s", "events_per_sec", "sim_ms_per_wall_s"}

_CELL_KEYS = {
    "scenario", "policy", "device", "bg_case", "seed", "measured_seconds",
    "wall_s", "events_executed", "events_per_sec", "sim_ms_per_wall_s",
    "fps", "fps_p5", "fps_p95", "ria", "launch_ms",
    "refault", "refault_fg", "refault_bg", "reclaim",
    "lmk_kills", "frozen_apps",
    "psi_mem_some_total_us", "psi_mem_full_total_us",
    "psi_io_some_total_us", "psi_cpu_some_total_us",
}


def _tiny_config():
    return BenchConfig(
        scenarios=("S-A",), policies=("LRU+CFS",), seconds=2.0, seed=7
    )


def test_run_bench_produces_versioned_document(tmp_path):
    doc = run_bench(_tiny_config())
    assert doc["schema_version"] == BENCH_SCHEMA_VERSION
    assert doc["seed"] == 7
    assert doc["jobs"] == 1
    assert doc["workers"] == []
    assert doc["totals"]["runs"] == 1
    assert doc["totals"]["wall_s"] > 0
    assert doc["totals"]["events_per_sec"] > 0
    cell = doc["runs"][0]
    assert set(cell) == _CELL_KEYS
    assert cell["events_executed"] > 0
    assert cell["wall_s"] > 0

    path = write_bench_file(doc, str(tmp_path / "BENCH_test.json"))
    assert json.loads(open(path).read()) == doc


def test_micro_benchmarks_report_rates():
    from repro.bench.micro import fault_loop_micro, lru_micro

    lru = lru_micro(pages=64, rounds=2)
    assert lru["ops"] > 0
    assert lru["ops_per_sec"] > 0

    # Enough iterations to wrap the 2,560-page footprint a few times,
    # so the loop actually reclaims and refaults.
    fault = fault_loop_micro(iterations=8_000)
    assert fault["iterations"] == 8_000
    assert fault["page_faults"] > 0
    assert fault["refaults"] > 0
    assert fault["reclaimed"] > 0
    assert fault["iters_per_sec"] > 0


def test_micro_section_attached_when_enabled():
    config = BenchConfig(
        scenarios=("S-A",),
        policies=("LRU+CFS",),
        seconds=1.0,
        seed=7,
        micro=True,
    )
    doc = run_bench(config)
    assert set(doc["micro"]) == {"lru", "fault_loop"}
    assert doc["micro"]["lru"]["ops_per_sec"] > 0
    assert doc["micro"]["fault_loop"]["iters_per_sec"] > 0


def test_smoke_config_is_short():
    config = BenchConfig.smoke_config()
    assert config.smoke
    assert config.seconds <= 5.0
    assert len(config.scenarios) == 1


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_bench(BenchConfig(scenarios=("S-Z",), policies=("LRU+CFS",)))


def test_progress_callback_sees_every_cell():
    seen = []
    run_bench(_tiny_config(), progress=seen.append)
    assert [c["scenario"] for c in seen] == ["S-A"]


def test_parallel_matches_serial_bit_for_bit():
    """--jobs N must not change any paper-facing number, only timing."""
    config = BenchConfig(
        scenarios=("S-A",), policies=("LRU+CFS", "Ice"), seconds=1.0, seed=7
    )
    serial = run_bench(config)
    parallel = run_bench(
        BenchConfig(
            scenarios=config.scenarios,
            policies=config.policies,
            seconds=config.seconds,
            seed=config.seed,
            jobs=2,
        )
    )
    assert parallel["jobs"] == 2
    # Pool workers are recorded with their share of the matrix.
    assert parallel["workers"]
    assert sum(w["cells"] for w in parallel["workers"]) == 2
    for worker in parallel["workers"]:
        assert worker["wall_s"] > 0
        assert worker["peak_rss_kb"] > 0
    assert len(serial["runs"]) == len(parallel["runs"]) == 2
    for s_cell, p_cell in zip(serial["runs"], parallel["runs"]):
        s_det = {k: v for k, v in s_cell.items() if k not in _PERF_KEYS}
        p_det = {k: v for k, v in p_cell.items() if k not in _PERF_KEYS}
        assert s_det == p_det


def test_profile_mode_embeds_top_table():
    config = BenchConfig(
        scenarios=("S-A",), policies=("LRU+CFS",), seconds=1.0, seed=7,
        profile=True, profile_top=4,
    )
    doc = run_bench(config)
    assert len(doc["profiles"]) == 1
    prof = doc["profiles"][0]
    assert prof["scenario"] == "S-A"
    assert prof["policy"] == "LRU+CFS"
    assert prof["top_n"] == 4
    rows = prof["by_cumulative"]
    assert 0 < len(rows) <= 4
    # Sorted by cumulative time, with the harness entry point on top.
    cums = [row["cumtime_s"] for row in rows]
    assert cums == sorted(cums, reverse=True)
    for row in rows:
        assert set(row) == {"function", "ncalls", "tottime_s", "cumtime_s"}


def _fake_artifact(**overrides):
    cell = {
        "scenario": "S-A", "policy": "Ice", "device": "P20",
        "bg_case": "bg-apps", "seed": 42, "measured_seconds": 2.0,
        "wall_s": 1.0, "events_executed": 1000, "events_per_sec": 1000.0,
        "sim_ms_per_wall_s": 2000.0, "fps": 30.0, "fps_p5": 10.0,
        "fps_p95": 55.0, "ria": 0.9, "launch_ms": 120.0,
        "refault": 5, "refault_fg": 1, "refault_bg": 4, "reclaim": 40,
        "lmk_kills": 0, "frozen_apps": 2,
        "psi_mem_some_total_us": 100, "psi_mem_full_total_us": 50,
        "psi_io_some_total_us": 10, "psi_cpu_some_total_us": 20,
    }
    cell.update(overrides)
    return {"schema_version": BENCH_SCHEMA_VERSION, "runs": [cell]}


def test_compare_identical_docs_is_clean():
    doc = _fake_artifact()
    report = compare.compare_docs(doc, copy.deepcopy(doc))
    assert report["regressions"] == []
    assert report["perf_notes"] == []


def test_compare_flags_paper_drift_exactly():
    old = _fake_artifact()
    new = _fake_artifact(refault=6)
    report = compare.compare_docs(old, new)
    assert [r["metric"] for r in report["regressions"]] == ["refault"]
    # A tolerance wide enough swallows it.
    report = compare.compare_docs(old, new, abs_tol=1.0)
    assert report["regressions"] == []


def test_compare_perf_drift_warns_unless_promoted():
    old = _fake_artifact()
    new = _fake_artifact(wall_s=2.0, events_per_sec=500.0)
    report = compare.compare_docs(old, new, perf_rel_tol=0.25)
    assert report["regressions"] == []
    assert {n["metric"] for n in report["perf_notes"]} == {
        "wall_s", "events_per_sec"
    }
    report = compare.compare_docs(
        old, new, perf_rel_tol=0.25, fail_on_perf=True
    )
    assert {r["metric"] for r in report["regressions"]} == {
        "wall_s", "events_per_sec"
    }
    # Faster is never a regression, even with --fail-on-perf.
    faster = _fake_artifact(wall_s=0.1, events_per_sec=10000.0)
    report = compare.compare_docs(old, faster, fail_on_perf=True)
    assert report["regressions"] == []


def test_compare_missing_cell_is_shape_regression():
    old = _fake_artifact()
    new = copy.deepcopy(old)
    new["runs"] = []
    report = compare.compare_docs(old, new)
    assert report["regressions"]
    assert all(r["kind"] == "shape" for r in report["regressions"])


def test_compare_cli_exit_codes(tmp_path, capsys):
    old_path = tmp_path / "old.json"
    new_path = tmp_path / "new.json"
    old_path.write_text(json.dumps(_fake_artifact()))

    new_path.write_text(json.dumps(_fake_artifact()))
    assert compare.main([str(old_path), str(new_path)]) == 0

    new_path.write_text(json.dumps(_fake_artifact(lmk_kills=3)))
    assert compare.main([str(old_path), str(new_path)]) == 1

    assert compare.main([str(old_path), str(tmp_path / "absent.json")]) == 2
    new_path.write_text("{}")
    assert compare.main([str(old_path), str(new_path)]) == 2
    capsys.readouterr()  # swallow gate chatter


def test_committed_artifact_matches_current_schema():
    """The repo carries a BENCH_*.json; it must parse under this schema."""
    import glob
    import os

    repo_root = os.path.join(os.path.dirname(__file__), "..")
    artifacts = sorted(glob.glob(os.path.join(repo_root, "BENCH_*.json")))
    assert artifacts, "expected a committed BENCH_<date>.json artifact"
    doc = json.load(open(artifacts[-1]))
    assert doc["schema_version"] == BENCH_SCHEMA_VERSION
    assert doc["totals"]["runs"] >= 3
    scenarios = {cell["scenario"] for cell in doc["runs"]}
    assert len(scenarios) >= 3  # paper-facing metrics across ≥3 scenarios
    for cell in doc["runs"]:
        assert set(cell) == _CELL_KEYS
