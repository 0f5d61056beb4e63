"""The benchmark runner: matrix execution, measurement, JSON artifact.

Each matrix cell is one ``run_scenario`` invocation.  The harness
measures the *simulator itself* — wall time, simulated events per wall
second, peak RSS — alongside the paper-facing metrics of the run, so a
commit that slows the event loop or regresses FPS shows up in the same
artifact.  After its timed pass each cell runs once more under the work
ledger (:mod:`repro.bench.ledger`), which counts its Python and C calls
per package: the record of work that host noise cannot blur.

Cells are independent (every ``run_scenario`` builds its own system,
whose page slab and id sequences nothing else shares, and derives its
randomness from the cell seed alone), so the matrix can fan out across
a process pool with ``jobs > 1``.  Results are merged back in matrix
order and are bit-identical to a serial run on every paper-facing
metric and in the ledger; only the wall-clock fields differ.

The artifact is schema-versioned (:data:`BENCH_SCHEMA_VERSION` bumps on
any shape change) so downstream tooling can diff BENCH files across
months of commits without guessing at their layout.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import gc
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bench.compare import CELL_KEY_FIELDS, PAPER_METRICS
from repro.bench.ledger import count_calls, top_functions
from repro.bench.options import DEFAULT_POLICIES, DEFAULT_SCENARIOS
from repro.devices.specs import get_device
from repro.experiments.pool import ordered_map
from repro.experiments.scenarios import BgCase, SCENARIOS, run_scenario
from repro.metrics.stats import percentile

# v2: parallel-mode worker stats, unrounded wall totals, "jobs" knob
# recorded at top level.
# v3: optional "micro" section (slab hot-path microbenchmarks).
# v4: "ledger" section (per-cell call counts per package and the most
# called functions); the "profiles" and "micro" sections are gone.
BENCH_SCHEMA_VERSION = 4


def _peak_rss_kb() -> Optional[int]:
    """Peak RSS of this process in KiB (None where unsupported)."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is KiB on Linux, bytes on macOS.
    if sys.platform == "darwin":
        return int(usage.ru_maxrss // 1024)
    return int(usage.ru_maxrss)


@dataclass
class BenchConfig:
    """One benchmark invocation's matrix and knobs."""

    scenarios: tuple = DEFAULT_SCENARIOS
    policies: tuple = DEFAULT_POLICIES
    device: str = "P20"
    seconds: float = 20.0
    seed: int = 42
    bg_case: str = BgCase.APPS
    smoke: bool = False
    jobs: int = 1

    @classmethod
    def smoke_config(cls) -> "BenchConfig":
        """The CI configuration: one short cell per policy."""
        return cls(scenarios=("S-A",), seconds=5.0, smoke=True)

    def cells(self) -> List[Tuple[str, str]]:
        """The matrix in canonical (scenario-major) order."""
        for scenario in self.scenarios:
            if scenario not in SCENARIOS:
                raise ValueError(
                    f"unknown scenario {scenario!r}; valid: {sorted(SCENARIOS)}"
                )
        return [(s, p) for s in self.scenarios for p in self.policies]


def _run_cell(
    config: BenchConfig, scenario: str, policy: str
) -> Tuple[Dict[str, object], float]:
    """Run one cell; returns ``(cell_dict, unrounded_wall_s)``.

    The cyclic GC is paused for the measured window: the simulator
    allocates heavily but acyclically, so collector passes are pure
    measurement noise.  A full collection runs before each cell to give
    every cell the same starting heap.
    """
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        wall_start = time.perf_counter()
        result = run_scenario(
            scenario,
            policy=policy,
            spec=get_device(config.device),
            bg_case=config.bg_case,
            seconds=config.seconds,
            seed=config.seed,
        )
        wall_s = time.perf_counter() - wall_start
    finally:
        if gc_was_enabled:
            gc.enable()
    timeline = result.fps_timeline
    cell = {
        "scenario": scenario,
        "policy": policy,
        "device": config.device,
        "bg_case": config.bg_case,
        "seed": config.seed,
        "measured_seconds": config.seconds,
        # Simulator performance.
        "wall_s": round(wall_s, 3),
        "events_executed": result.events_executed,
        "events_per_sec": round(result.events_executed / wall_s) if wall_s > 0 else 0,
        "sim_ms_per_wall_s": (
            round(result.system.sim.now / wall_s) if wall_s > 0 else 0
        ),
        # Paper-facing metrics.
        "fps": round(result.fps, 2),
        "fps_p5": round(percentile(timeline, 5.0), 2),
        "fps_p95": round(percentile(timeline, 95.0), 2),
        "ria": round(result.ria, 4),
        "launch_ms": round(result.launch_ms, 1),
        "refault": result.refault,
        "refault_fg": result.refault_fg,
        "refault_bg": result.refault_bg,
        "reclaim": result.reclaim,
        "lmk_kills": result.lmk_kills,
        "frozen_apps": result.frozen_apps,
        "psi_mem_some_total_us": result.psi["memory"]["some"]["total_us"],
        "psi_mem_full_total_us": result.psi["memory"]["full"]["total_us"],
        "psi_io_some_total_us": result.psi["io"]["some"]["total_us"],
        "psi_cpu_some_total_us": result.psi["cpu"]["some"]["total_us"],
    }
    return cell, wall_s


class LedgerDrift(RuntimeError):
    """A cell's ledger pass disagreed with its timed pass."""


def _measure_cell(payload: Tuple[BenchConfig, str, str]) -> Dict[str, object]:
    """One cell's timed pass, then its ledger pass, in this process.

    The ledger pass runs the cell again under :func:`count_calls`.  It
    comes second so that whatever the cell imports or caches on first
    use is already there, whichever process runs it and in what order;
    its paper metrics must equal the timed pass's.
    """
    config, scenario, policy = payload
    cell, wall_s = _run_cell(config, scenario, policy)
    (again, _), calls = count_calls(_run_cell, config, scenario, policy)
    return {
        "cell": cell,
        "wall_s": wall_s,
        "calls": calls,
        "drift": [m for m in PAPER_METRICS if again[m] != cell[m]],
        "worker_pid": os.getpid(),
        "worker_peak_rss_kb": _peak_rss_kb(),
    }


def _merge(outcomes, progress, pooled: bool) -> Dict[str, object]:
    """Fold per-cell outcomes, in matrix order, into the artifact's parts."""
    runs: List[Dict[str, object]] = []
    ledger_cells: List[Dict[str, object]] = []
    functions: List[Dict[str, int]] = []
    drift: List[str] = []
    total_wall = 0.0
    per_worker: Dict[int, Dict[str, object]] = {}
    for outcome in outcomes:
        cell = outcome["cell"]
        runs.append(cell)
        total_wall += outcome["wall_s"]
        calls = outcome["calls"]
        ledger_cells.append({
            **{field: cell[field] for field in CELL_KEY_FIELDS},
            "python_calls": calls["python"],
            "c_calls": calls["c"],
        })
        functions.append(calls["functions"])
        drift += [
            f"{cell['scenario']}/{cell['policy']} {metric}"
            for metric in outcome["drift"]
        ]
        if pooled:
            pid = outcome["worker_pid"]
            stats = per_worker.setdefault(pid, {
                "pid": pid, "cells": 0, "wall_s": 0.0, "peak_rss_kb": None,
            })
            stats["cells"] += 1
            stats["wall_s"] += outcome["wall_s"]
            rss = outcome["worker_peak_rss_kb"]
            if rss is not None and (
                stats["peak_rss_kb"] is None or rss > stats["peak_rss_kb"]
            ):
                stats["peak_rss_kb"] = rss
        if progress is not None:
            progress(cell)
    if drift:
        raise LedgerDrift(
            "the ledger pass changed paper metrics: " + ", ".join(drift)
        )
    workers = [per_worker[pid] for pid in sorted(per_worker)]
    for stats in workers:
        stats["wall_s"] = round(stats["wall_s"], 3)
    return {
        "runs": runs,
        "total_wall": total_wall,
        "workers": workers,
        "ledger": {
            "cells": ledger_cells,
            "top_functions": top_functions(functions),
        },
    }


def _run_matrix(config: BenchConfig, progress) -> Dict[str, object]:
    """Every cell, serially or over a process pool, merged in the same
    canonical matrix order either way."""
    payloads = [(config, scenario, policy) for scenario, policy in config.cells()]
    outcomes = ordered_map(_measure_cell, payloads, config.jobs)
    return _merge(outcomes, progress, pooled=config.jobs > 1)


def run_bench(config: BenchConfig, progress=None) -> Dict[str, object]:
    """Execute the matrix; returns the full artifact document.

    Raises :class:`LedgerDrift` when a cell's ledger pass disagrees
    with its timed pass on any paper metric.
    """
    config.cells()  # validate scenario ids before any work
    matrix = _run_matrix(config, progress)
    runs, total_wall = matrix["runs"], matrix["total_wall"]
    total_events = sum(cell["events_executed"] for cell in runs)
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "generated_at": _dt.datetime.now(_dt.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "smoke": config.smoke,
        "seed": config.seed,
        "device": config.device,
        "measured_seconds": config.seconds,
        "jobs": config.jobs,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "totals": {
            "runs": len(runs),
            # Totals accumulate the *unrounded* per-cell walls; only the
            # artifact rendering rounds (a matrix of per-cell roundings
            # used to skew events_per_sec by up to 0.5 ms x cells).
            "wall_s": round(total_wall, 3),
            "events_executed": total_events,
            "events_per_sec": (
                round(total_events / total_wall) if total_wall > 0 else 0
            ),
            "peak_rss_kb": _peak_rss_kb(),
        },
        "workers": matrix["workers"],
        "runs": runs,
        "ledger": matrix["ledger"],
    }


def default_out_path() -> str:
    return f"BENCH_{_dt.date.today().isoformat()}.json"


def write_bench_file(doc: Dict[str, object], path: str) -> str:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def config_from_args(args: argparse.Namespace) -> BenchConfig:
    policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
    jobs = max(1, args.jobs)
    if args.smoke:
        base = BenchConfig.smoke_config()
        return BenchConfig(
            scenarios=base.scenarios,
            policies=policies,
            device=args.device,
            seconds=base.seconds,
            seed=args.seed,
            smoke=True,
            jobs=jobs,
        )
    return BenchConfig(
        scenarios=tuple(s.strip() for s in args.scenarios.split(",") if s.strip()),
        policies=policies,
        device=args.device,
        seconds=args.seconds,
        seed=args.seed,
        jobs=jobs,
    )


def main(args: argparse.Namespace) -> int:
    config = config_from_args(args)

    def progress(cell: Dict[str, object]) -> None:
        print(
            f"  {cell['scenario']} / {cell['policy']:>8}: "
            f"{cell['wall_s']:6.2f}s wall, "
            f"{cell['events_per_sec']:>8} ev/s, "
            f"{cell['fps']:5.1f} fps, {cell['refault']} refaults",
            file=sys.stderr,
        )

    try:
        doc = run_bench(config, progress=progress)
    except LedgerDrift as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    out = args.out or default_out_path()
    write_bench_file(doc, out)
    totals = doc["totals"]
    mode = f", jobs={config.jobs}" if config.jobs > 1 else ""
    ledger = doc["ledger"]["cells"]
    print(
        f"bench: {totals['runs']} runs in {totals['wall_s']}s wall "
        f"({totals['events_per_sec']} events/s, "
        f"peak RSS {totals['peak_rss_kb']} kB{mode}; ledger "
        f"{sum(sum(c['python_calls'].values()) for c in ledger)} Python, "
        f"{sum(sum(c['c_calls'].values()) for c in ledger)} C calls) -> {out}"
    )
    return 0
