"""Perf-regression gate: diff two BENCH artifacts.

``repro bench compare OLD NEW`` pairs up matrix cells by their identity
key and applies one rule: every paper metric (fps, refaults, RIA, ...)
must match exactly.  The simulator is seeded, so any drift means
behaviour changed; it is a regression and fails the gate.  Perf metrics
(wall_s, events_per_sec, sim_ms_per_wall_s) measure the host as much as
the code, so a cell more than a quarter slower is only a note.

When both artifacts carry a work ledger (schema 4), the gate also
prints each package's Python and C call counts over the cells both
hold, old against new.  Counts are exact on any host, but they depend
on the interpreter version, so the gate says when ``host.python``
differs.  They are information, never a failure.

Exit codes: 0 clean, 1 regression(s), 2 usage/shape error — so CI can
wire the gate as a plain job step.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Iterable, List, Optional, Tuple

# Identity: which cell is this?  Cells are paired on this key.
CELL_KEY_FIELDS = (
    "scenario",
    "policy",
    "device",
    "bg_case",
    "seed",
    "measured_seconds",
)

# Deterministic, paper-facing outputs: drift here is a behaviour change.
PAPER_METRICS = (
    "events_executed",
    "fps",
    "fps_p5",
    "fps_p95",
    "ria",
    "launch_ms",
    "refault",
    "refault_fg",
    "refault_bg",
    "reclaim",
    "lmk_kills",
    "frozen_apps",
    "psi_mem_some_total_us",
    "psi_mem_full_total_us",
    "psi_io_some_total_us",
    "psi_cpu_some_total_us",
)

# Machine-dependent measurements: drift here is only a note.
PERF_METRICS = (
    "wall_s",
    "events_per_sec",
    "sim_ms_per_wall_s",
)
# A cell this much slower on a perf metric gets a note.
PERF_NOTE_FRAC = 0.25


class CompareError(ValueError):
    """Artifact shape problems (missing cells, wrong schema...)."""


def cell_key(cell: Dict[str, object]) -> Tuple:
    try:
        return tuple(cell[field] for field in CELL_KEY_FIELDS)
    except KeyError as exc:
        raise CompareError(f"cell is missing identity field {exc}") from exc


def load_artifact(path: str) -> Dict[str, object]:
    with open(path) as handle:
        doc = json.load(handle)
    if "runs" not in doc or "schema_version" not in doc:
        raise CompareError(f"{path} does not look like a BENCH artifact")
    return doc


def compare_docs(
    old: Dict[str, object], new: Dict[str, object]
) -> Dict[str, List[Dict[str, object]]]:
    """Diff two artifact documents.

    Returns ``{"regressions": [...], "perf_notes": [...],
    "missing": [...]}``.  ``regressions`` non-empty means the gate
    fails: a paper metric differs, or a cell or metric is missing.
    """
    old_cells = {cell_key(c): c for c in old["runs"]}
    new_cells = {cell_key(c): c for c in new["runs"]}
    regressions: List[Dict[str, object]] = []
    perf_notes: List[Dict[str, object]] = []
    missing: List[Dict[str, object]] = []

    for key, old_cell in old_cells.items():
        new_cell = new_cells.get(key)
        label = "/".join(str(part) for part in key)
        if new_cell is None:
            missing.append({"cell": label, "problem": "absent from NEW"})
            continue
        for metric in PAPER_METRICS:
            if metric not in old_cell:
                continue  # older schema without this column
            if metric not in new_cell:
                missing.append(
                    {"cell": label, "problem": f"NEW lacks metric {metric}"}
                )
                continue
            if float(old_cell[metric]) != float(new_cell[metric]):
                regressions.append(
                    {
                        "cell": label,
                        "metric": metric,
                        "old": old_cell[metric],
                        "new": new_cell[metric],
                        "kind": "paper",
                    }
                )
        for metric in PERF_METRICS:
            if metric not in old_cell or metric not in new_cell:
                continue
            old_val = float(old_cell[metric])
            new_val = float(new_cell[metric])
            # Only slower earns a note: less wall per event or more
            # events per second is an improvement.
            slower = (
                new_val > old_val if metric == "wall_s" else new_val < old_val
            )
            if slower and abs(new_val - old_val) > PERF_NOTE_FRAC * abs(old_val):
                perf_notes.append({
                    "cell": label,
                    "metric": metric,
                    "old": old_cell[metric],
                    "new": new_cell[metric],
                    "kind": "perf",
                })
    for key in new_cells:
        if key not in old_cells:
            label = "/".join(str(part) for part in key)
            perf_notes.append({"cell": label, "problem": "absent from OLD"})
    if missing:
        # Shape mismatches are hard failures: a gate that silently
        # compares nothing would always pass.
        regressions.extend(
            {**entry, "metric": "<shape>", "kind": "shape"} for entry in missing
        )
    return {
        "regressions": regressions,
        "perf_notes": perf_notes,
        "missing": missing,
    }


def _render(entries: Iterable[Dict[str, object]], stream) -> None:
    for entry in entries:
        if "problem" in entry:
            print(f"  {entry['cell']}: {entry['problem']}", file=stream)
        else:
            print(
                f"  {entry['cell']}: {entry['metric']} "
                f"{entry['old']} -> {entry['new']}",
                file=stream,
            )


def ledger_totals(
    old: Dict[str, object], new: Dict[str, object]
) -> Optional[Dict[str, object]]:
    """Per-package call counts, old and new, over the cells both ledgers
    hold; None when either artifact has no ledger.

    Returns ``{"cells": n, "packages": {package: {"python": [old, new],
    "c": [old, new]}}}``.
    """
    if "ledger" not in old or "ledger" not in new:
        return None
    old_cells = {cell_key(c): c for c in old["ledger"]["cells"]}
    pairs = [
        (old_cells[cell_key(c)], c)
        for c in new["ledger"]["cells"] if cell_key(c) in old_cells
    ]
    packages: Dict[str, Dict[str, List[int]]] = {}
    for pair in pairs:
        for side, cell in enumerate(pair):
            for kind in ("python", "c"):
                for package, calls in cell[f"{kind}_calls"].items():
                    row = packages.setdefault(
                        package, {"python": [0, 0], "c": [0, 0]}
                    )
                    row[kind][side] += calls
    return {"cells": len(pairs), "packages": dict(sorted(packages.items()))}


def _render_ledger(totals: Dict[str, object], stream) -> None:
    def delta(pair: List[int]) -> str:
        old, new = pair
        change = f"{(new - old) / old:+.1%}" if old else "new"
        return f"{old:>12,} -> {new:>12,} {change:>7}"

    rows = totals["packages"]
    total = {
        kind: [sum(row[kind][side] for row in rows.values()) for side in (0, 1)]
        for kind in ("python", "c")
    }
    print(f"  {'package':<12} {'Python calls':^36} {'C calls':^36}",
          file=stream)
    for package, row in [*rows.items(), ("total", total)]:
        print(f"  {package:<12} {delta(row['python'])} {delta(row['c'])}",
              file=stream)


def run_compare(args: argparse.Namespace) -> int:
    """The ``repro bench compare OLD NEW`` gate."""
    try:
        old = load_artifact(args.old)
        new = load_artifact(args.new)
        report = compare_docs(old, new)
        ledger = ledger_totals(old, new)
    except (CompareError, OSError, json.JSONDecodeError) as exc:
        print(f"bench compare: {exc}", file=sys.stderr)
        return 2
    if report["perf_notes"]:
        print("bench compare: perf drift (informational):", file=sys.stderr)
        _render(report["perf_notes"], sys.stderr)
    if ledger is not None:
        print(f"bench compare: call ledger over {ledger['cells']} shared "
              "cells (informational):")
        _render_ledger(ledger, sys.stdout)
        versions = [doc.get("host", {}).get("python") for doc in (old, new)]
        if versions[0] != versions[1]:
            print(f"bench compare: host.python differs ({versions[0]} -> "
                  f"{versions[1]}); call counts depend on the interpreter")
    if report["regressions"]:
        print("bench compare: REGRESSIONS:", file=sys.stderr)
        _render(report["regressions"], sys.stderr)
        print(
            f"bench compare: FAIL "
            f"({len(report['regressions'])} regression(s) "
            f"{args.old} -> {args.new})",
            file=sys.stderr,
        )
        return 1
    cells = len(old["runs"])
    print(f"bench compare: OK ({cells} cells, {args.old} -> {args.new})")
    return 0
