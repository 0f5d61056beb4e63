"""Tier-2 tests for the benchmark harness (repro.bench)."""

import copy
import json

import pytest

from repro.__main__ import main as cli_main
from repro.bench import compare, runner
from repro.bench.ledger import (
    TOP_FUNCTIONS,
    count_calls,
    function_label,
    package_of,
    top_functions,
)
from repro.bench.runner import (
    BENCH_SCHEMA_VERSION,
    BenchConfig,
    LedgerDrift,
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
    [calls] = doc["ledger"]["cells"]
    assert compare.cell_key(calls) == compare.cell_key(cell)
    assert set(calls) == set(compare.CELL_KEY_FIELDS) | {
        "python_calls", "c_calls"
    }
    for package in ("sim", "sched", "kernel", "system"):
        assert calls["python_calls"][package] > 0
        assert calls["c_calls"][package] > 0
    top = doc["ledger"]["top_functions"]
    assert len(top) == TOP_FUNCTIONS
    counts = [row["calls"] for row in top]
    assert counts == sorted(counts, reverse=True)
    assert top[0]["function"].startswith("repro/")

    path = write_bench_file(doc, str(tmp_path / "BENCH_test.json"))
    assert json.loads(open(path).read()) == doc


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
    # The call ledger is exact: the same counts in a pool worker as here.
    assert len(serial["ledger"]["cells"]) == 2
    assert serial["ledger"]["top_functions"]
    assert serial["ledger"] == parallel["ledger"]


def test_ledger_pass_must_reproduce_the_timed_pass(monkeypatch, tmp_path,
                                                   capsys):
    real_run_cell = runner._run_cell
    passes = []

    def second_pass_drifts(config, scenario, policy):
        cell, wall_s = real_run_cell(config, scenario, policy)
        passes.append(scenario)
        if len(passes) % 2 == 0:  # the ledger pass
            cell = dict(cell, refault=cell["refault"] + 1)
        return cell, wall_s

    monkeypatch.setattr(runner, "_run_cell", second_pass_drifts)
    with pytest.raises(LedgerDrift, match="S-A/LRU\\+CFS refault"):
        run_bench(_tiny_config())
    out = tmp_path / "BENCH_drift.json"
    assert cli_main(["bench", "--scenarios", "S-A", "--policies", "LRU+CFS",
                     "--seconds", "1", "--out", str(out)]) == 1
    assert "ledger pass changed paper metrics" in capsys.readouterr().err
    assert not out.exists()


def test_ledger_counts_python_calls_by_callee_and_c_calls_by_caller():
    from repro.metrics.stats import percentile

    def work():
        # Each call makes two C calls (sorted, len) in repro.metrics.
        return [percentile([2.0], 50.0) for _ in range(3)]

    result, calls = count_calls(work)
    assert result == [2.0, 2.0, 2.0]
    assert calls["python"]["metrics"] == 3
    assert calls["c"]["metrics"] == 6
    assert calls["python"]["other"] >= 1  # work() lives in the tests
    code = percentile.__code__
    label = function_label(code.co_filename, code.co_firstlineno,
                           code.co_name, "repro.metrics.stats")
    assert label == f"repro/metrics/stats.py:{code.co_firstlineno}(percentile)"
    assert calls["functions"][label] == 3


def test_ledger_package_and_label_rules():
    assert package_of("repro.sched.cfs") == "sched"
    assert package_of("repro.system") == "system"
    assert package_of("repro") == "repro"
    assert package_of("reprozip") == "other"
    assert package_of("random") == "other"
    assert package_of(None) == "other"
    # Code read from no file (a dataclass's generated __init__) is
    # named by its module; other files by their base name.
    assert function_label("<string>", 2, "__init__", "repro.kernel.mm") == (
        "<repro.kernel.mm>:2(__init__)"
    )
    assert function_label("/usr/lib/python3/random.py", 10, "choice",
                          "random") == "random.py:10(choice)"
    # Tables merge; ties go by label; the table keeps the top 20.
    assert top_functions([{"b": 2, "a": 1}, {"a": 1, "c": 5}]) == [
        {"function": "c", "calls": 5},
        {"function": "a", "calls": 2},
        {"function": "b", "calls": 2},
    ]
    many = {f"f{i:02d}": i for i in range(TOP_FUNCTIONS + 5)}
    assert [row["function"] for row in top_functions([many])] == [
        f"f{i:02d}" for i in range(TOP_FUNCTIONS + 4, 4, -1)
    ]


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


def test_compare_perf_drift_warns_unless_promoted():
    """Perf drift is only ever a note; nothing promotes it to a failure."""
    old = _fake_artifact()
    new = _fake_artifact(wall_s=2.0, events_per_sec=500.0)
    report = compare.compare_docs(old, new)
    assert report["regressions"] == []
    assert {n["metric"] for n in report["perf_notes"]} == {
        "wall_s", "events_per_sec"
    }
    # Faster earns no note.
    faster = _fake_artifact(wall_s=0.1, events_per_sec=10000.0)
    report = compare.compare_docs(old, faster)
    assert report["regressions"] == []
    assert report["perf_notes"] == []


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

    def gate(new):
        return cli_main(["bench", "compare", str(old_path), str(new)])

    new_path.write_text(json.dumps(_fake_artifact()))
    assert gate(new_path) == 0

    new_path.write_text(json.dumps(_fake_artifact(lmk_kills=3)))
    assert gate(new_path) == 1

    assert gate(tmp_path / "absent.json") == 2
    new_path.write_text("{}")
    assert gate(new_path) == 2
    capsys.readouterr()  # swallow gate chatter


def _with_ledger(doc, python, c, version="3.11.7"):
    cell = doc["runs"][0]
    doc["host"] = {"python": version}
    doc["ledger"] = {
        "cells": [{
            **{field: cell[field] for field in compare.CELL_KEY_FIELDS},
            "python_calls": python,
            "c_calls": c,
        }],
        "top_functions": [],
    }
    return doc


def test_compare_prints_call_deltas_as_information(tmp_path, capsys):
    old = _with_ledger(_fake_artifact(), {"sched": 100, "kernel": 50},
                       {"sched": 400})
    new = _with_ledger(_fake_artifact(), {"sched": 80, "kernel": 50,
                                          "core": 7}, {"sched": 400})
    assert compare.ledger_totals(old, new) == {
        "cells": 1,
        "packages": {
            "core": {"python": [0, 7], "c": [0, 0]},
            "kernel": {"python": [50, 50], "c": [0, 0]},
            "sched": {"python": [100, 80], "c": [400, 400]},
        },
    }
    assert compare.ledger_totals(_fake_artifact(), new) is None
    # No cells in common: nothing to total.
    other = copy.deepcopy(new)
    other["ledger"]["cells"][0]["seed"] = 7
    assert compare.ledger_totals(old, other) == {"cells": 0, "packages": {}}

    paths = []
    for name, doc in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    # Fewer calls is information, never a failure.
    assert cli_main(["bench", "compare", *map(str, paths)]) == 0
    out = capsys.readouterr().out
    assert "call ledger over 1 shared cells" in out
    assert "-20.0%" in out
    assert "host.python differs" not in out

    paths[1].write_text(json.dumps(_with_ledger(
        _fake_artifact(), {"sched": 80}, {"sched": 400}, version="3.12.1")))
    assert cli_main(["bench", "compare", *map(str, paths)]) == 0
    assert "host.python differs (3.11.7 -> 3.12.1)" in capsys.readouterr().out


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
    # A call ledger for every cell, and only for those.
    ledger = doc["ledger"]
    assert [compare.cell_key(c) for c in ledger["cells"]] == [
        compare.cell_key(c) for c in doc["runs"]
    ]
    for calls in ledger["cells"]:
        assert sum(calls["python_calls"].values()) > 0
        assert sum(calls["c_calls"].values()) > 0
    assert len(ledger["top_functions"]) == TOP_FUNCTIONS
