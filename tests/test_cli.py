"""Tests for the `python -m repro` CLI."""

import json
import re

import pytest

from repro.__main__ import main
from repro.devices.specs import DEVICES
from repro.policies.registry import available_policies

COMMANDS = (
    "scenario", "compare", "trace", "dump", "watch", "bench", "serve",
    "coordinator", "loadtest", "submit", "table1", "overhead",
)


def _help_text(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 0
    return capsys.readouterr().out


def test_help_lists_every_command(capsys):
    usage = _help_text(["--help"], capsys)
    listed = re.search(r"\{([^}]*)\}", usage).group(1).split(",")
    assert sorted(listed) == sorted(COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [[command, "--help"] for command in COMMANDS]
    + [["bench", "compare", "--help"]],
    ids=lambda argv: " ".join(argv[:-1]),
)
def test_every_command_parser_builds(argv, capsys):
    # Commands import what they run lazily; this keeps every parser
    # (and everything it imports at parse time) exercised.
    assert "usage:" in _help_text(argv, capsys)


@pytest.mark.parametrize("command", ["scenario", "submit", "bench"])
def test_device_choices_come_from_the_device_table(command, capsys):
    assert "{" + ",".join(DEVICES) + "}" in _help_text(
        [command, "--help"], capsys
    )


def test_overhead_command(capsys):
    assert main(["overhead"]) == 0
    out = capsys.readouterr().out
    assert "mapping table" in out
    assert "32768" in out


def test_scenario_command_runs(capsys):
    code = main([
        "scenario", "--scenario", "S-A", "--policy", "LRU+CFS",
        "--bg-case", "bg-null", "--seconds", "5", "--seed", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "fps" in out and "LRU+CFS" in out


def test_compare_command_runs(capsys):
    code = main([
        "compare", "--scenario", "S-A", "--policies", "LRU+CFS",
        "--bg-case", "bg-null", "--seconds", "5",
    ])
    assert code == 0
    assert "fps" in capsys.readouterr().out


def test_unknown_policy_rejected(capsys):
    code = main(["scenario", "--policy", "SmartSwap"])
    assert code == 2
    err = capsys.readouterr().err
    assert "SmartSwap" in err
    for name in available_policies():
        assert name in err


def test_command_required():
    with pytest.raises(SystemExit):
        main([])


def test_scenario_json_output(capsys):
    code = main([
        "scenario", "--scenario", "S-A", "--policy", "LRU+CFS",
        "--bg-case", "bg-null", "--seconds", "5", "--seed", "3", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "S-A"
    assert payload["policy"] == "LRU+CFS"
    for key in ("fps", "ria", "refault", "bg_refault_share", "lmk_kills"):
        assert key in payload


def test_compare_json_emits_one_object_per_run(capsys):
    code = main([
        "compare", "--scenario", "S-A", "--policies", "LRU+CFS,Ice",
        "--bg-case", "bg-null", "--seconds", "5", "--json",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    payloads = [json.loads(line) for line in lines]
    assert [p["policy"] for p in payloads] == ["LRU+CFS", "Ice"]


def test_compare_rejects_unknown_policy(capsys):
    code = main([
        "compare", "--scenario", "S-A", "--policies", "LRU+CFS,NoSuchPolicy",
        "--seconds", "5",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "NoSuchPolicy" in err
    for name in available_policies():
        assert name in err


def test_compare_rejects_empty_policy_list(capsys):
    code = main(["compare", "--policies", ",", "--seconds", "5"])
    assert code == 2
    assert "valid choices" in capsys.readouterr().err


def test_scenario_trace_out_writes_chrome_trace(tmp_path, capsys):
    trace_path = tmp_path / "run.trace.json"
    series_path = tmp_path / "run.csv"
    code = main([
        "scenario", "--scenario", "S-A", "--policy", "Ice",
        "--seconds", "5", "--seed", "3",
        "--trace-out", str(trace_path),
        "--timeseries-out", str(series_path),
    ])
    assert code == 0
    document = json.loads(trace_path.read_text())
    assert document["displayTimeUnit"] == "ms"
    assert document["otherData"]["policy"] == "Ice"
    events = document["traceEvents"]
    names = {event["name"] for event in events}
    phases = {event["ph"] for event in events}
    assert {"M", "X", "C"} <= phases
    assert "free_mem" in names and "fps" in names
    assert series_path.read_text().startswith("time_ms,")


def test_compare_trace_out_is_per_policy(tmp_path, capsys):
    trace_path = tmp_path / "cmp.trace.json"
    code = main([
        "compare", "--scenario", "S-A", "--policies", "LRU+CFS,Ice",
        "--bg-case", "bg-null", "--seconds", "5",
        "--trace-out", str(trace_path),
    ])
    assert code == 0
    assert (tmp_path / "cmp.trace.LRU_CFS.json").exists()
    assert (tmp_path / "cmp.trace.Ice.json").exists()


def test_trace_command_runs(tmp_path, capsys):
    out_path = tmp_path / "ice.trace.json"
    code = main([
        "trace", "--scenario", "S-A", "--policy", "Ice",
        "--seconds", "5", "--out", str(out_path),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "fps" in captured.out
    assert "trace:" in captured.err
    document = json.loads(out_path.read_text())
    assert document["traceEvents"]


def test_dump_json_emits_proc_snapshot(capsys):
    assert main(["dump", "--scenario", "S-A", "--seconds", "2",
                 "--format", "json", "--seed", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["meta"]["scenario"] == "S-A"
    assert doc["meta"]["seed"] == 5
    proc = doc["proc"]
    assert "meminfo" in proc and "vmstat" in proc
    for resource in ("memory", "io", "cpu"):
        for kind in ("some", "full"):
            line = proc["pressure"][resource][kind]
            assert set(line) == {"avg10", "avg60", "avg300", "total_us"}


def test_dump_text_selected_paths(capsys):
    assert main(["dump", "--scenario", "S-A", "--seconds", "2",
                 "--paths", "pressure/memory", "meminfo"]) == 0
    out = capsys.readouterr().out
    assert "==> pressure/memory <==" in out
    assert "some avg10=" in out
    assert "MemTotal:" in out


def test_watch_prints_sampled_rows(capsys):
    assert main(["watch", "--scenario", "S-A", "--seconds", "2",
                 "--every", "1"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert "mem.some" in lines[0]  # header
    assert "samples over" in out


def test_bench_smoke_writes_artifact(tmp_path, capsys):
    out_path = tmp_path / "BENCH_ci.json"
    assert main(["bench", "--smoke", "--policies", "LRU+CFS",
                 "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["smoke"] is True
    assert doc["runs"][0]["policy"] == "LRU+CFS"


def test_same_seed_runs_are_deterministic(capsys):
    argv = ["scenario", "--scenario", "S-A", "--seconds", "2",
            "--seed", "99", "--json"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
