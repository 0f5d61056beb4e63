"""Tests for the `python -m repro` CLI."""

import argparse
import json
import re

import pytest

from repro.__main__ import build_parser, main
from repro.devices.specs import DEVICES
from repro.policies.registry import available_policies

COMMANDS = (
    "scenario", "watch", "bench", "serve", "coordinator", "loadtest",
    "submit", "figures",
)


def _help_text(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 0
    return capsys.readouterr().out


def _settable_values(parser) -> int:
    """Argparse actions other than help, positionals included, over
    every subcommand."""
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            count += sum(map(_settable_values, action.choices.values()))
        elif not isinstance(action, argparse._HelpAction):
            count += 1
    return count


def test_settable_value_count_is_pinned():
    # Every option has a caller (DESIGN decision 23); a change that adds
    # or removes one moves this pin in its own diff.
    assert _settable_values(build_parser()) == 69


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
    # §6.4's numbers print through `repro figures`.
    assert main(["figures", "sec641", "sec642"]) == 0
    out = capsys.readouterr().out
    assert "mapping table" in out
    assert "32768" in out
    assert "us per lookup" in out


def test_figures_rejects_unknown_ids_before_running(capsys, tmp_path):
    out_path = tmp_path / "figures.json"
    code = main(["figures", "table1", "fig99", "--out", str(out_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'fig99'" in captured.err
    assert "table1, fig1, fig2a" in captured.err
    assert not out_path.exists()


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
        "scenario", "--scenario", "S-A", "--policy", "LRU+CFS,Ice",
        "--bg-case", "bg-null", "--seconds", "5",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("|")[0].strip() for line in lines] == ["LRU+CFS", "Ice"]
    assert all("fps" in line for line in lines)


def test_unknown_policy_rejected(capsys):
    code = main(["scenario", "--policy", "SmartSwap"])
    assert code == 2
    err = capsys.readouterr().err
    assert "SmartSwap" in err
    for name in available_policies():
        assert name in err


@pytest.mark.parametrize("argv", [
    ["scenario", "--bg", "-3", "--seconds", "1"],
    ["scenario", "--seconds", "0"],
    ["scenario", "--seconds", "-5"],
    ["scenario", "--seconds", "1", "--bg-case", "bg-null", "--proc", "nope"],
    ["submit", "--seconds", "0"],
    ["submit", "--bg", "-2"],
], ids=" ".join)
def test_run_flags_are_validated_before_anything_runs(argv, capsys):
    # The same checks as a served submission: no run, no connection.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_watch_needs_a_serve_url():
    with pytest.raises(SystemExit) as exc_info:
        main(["watch", "--iterations", "1"])
    assert exc_info.value.code == 2


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
        "scenario", "--scenario", "S-A", "--policy", "LRU+CFS,Ice",
        "--bg-case", "bg-null", "--seconds", "5", "--json",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    payloads = [json.loads(line) for line in lines]
    assert [p["policy"] for p in payloads] == ["LRU+CFS", "Ice"]


def test_compare_rejects_unknown_policy(capsys):
    code = main([
        "scenario", "--scenario", "S-A", "--policy", "LRU+CFS,NoSuchPolicy",
        "--seconds", "5",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "NoSuchPolicy" in err
    for name in available_policies():
        assert name in err


def test_compare_rejects_empty_policy_list(capsys):
    code = main(["scenario", "--policy", ",", "--seconds", "5"])
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
        "scenario", "--scenario", "S-A", "--policy", "LRU+CFS,Ice",
        "--bg-case", "bg-null", "--seconds", "5",
        "--trace-out", str(trace_path),
    ])
    assert code == 0
    assert (tmp_path / "cmp.trace.LRU_CFS.json").exists()
    assert (tmp_path / "cmp.trace.Ice.json").exists()


def test_trace_command_runs(tmp_path, capsys):
    out_path = tmp_path / "ice.trace.json"
    code = main([
        "scenario", "--scenario", "S-A", "--policy", "Ice",
        "--seconds", "5", "--trace-out", str(out_path),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "fps" in captured.out
    assert "trace:" in captured.err
    assert "frame_ms: n=" in captured.err  # histogram summary
    document = json.loads(out_path.read_text())
    assert document["traceEvents"]


def test_dump_json_emits_proc_snapshot(capsys):
    assert main(["scenario", "--scenario", "S-A", "--seconds", "2",
                 "--json", "--proc", "--seed", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"] == "S-A"
    assert doc["seed"] == 5
    proc = doc["proc"]
    assert "meminfo" in proc and "vmstat" in proc
    for resource in ("memory", "io", "cpu"):
        for kind in ("some", "full"):
            line = proc["pressure"][resource][kind]
            assert set(line) == {"avg10", "avg60", "avg300", "total_us"}


def test_dump_text_selected_paths(capsys):
    assert main(["scenario", "--scenario", "S-A", "--seconds", "2",
                 "--proc", "pressure/memory", "meminfo"]) == 0
    out = capsys.readouterr().out
    assert "fps" in out.splitlines()[0]  # the result line comes first
    assert "==> pressure/memory <==" in out
    assert "some avg10=" in out
    assert "MemTotal:" in out
    assert "==> vmstat <==" not in out


def test_watch_prints_sampled_rows(capsys):
    assert main(["scenario", "--scenario", "S-A", "--seconds", "2",
                 "--watch", "--sample-ms", "1000"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert "mem.some" in lines[0]  # header
    assert "samples over" in out
    assert "fps" in lines[-1]  # the result line


def test_scenario_and_submit_print_the_same_result(capsys):
    from repro.serve.http import ServeConfig
    from repro.serve.testing import ServerThread

    flags = ["--scenario", "S-A", "--bg-case", "bg-null", "--seconds", "2",
             "--seed", "11", "--policy", "LRU+CFS,Ice"]
    assert main(["scenario", *flags, "--json"]) == 0
    local = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert main(["scenario", *flags]) == 0
    local_lines = capsys.readouterr().out.splitlines()
    with ServerThread(ServeConfig(port=0, workers=1)) as thread:
        assert main(["submit", "--url", thread.base_url, *flags,
                     "--json"]) == 0
        served = [json.loads(line)
                  for line in capsys.readouterr().out.splitlines()]
        assert main(["submit", "--url", thread.base_url, *flags]) == 0
        served_lines = capsys.readouterr().out.splitlines()
    assert [doc["policy"] for doc in local] == ["LRU+CFS", "Ice"]
    assert served == local
    assert served_lines == [line + " | via cache" for line in local_lines]


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
