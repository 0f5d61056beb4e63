"""`repro figures`: the evaluation's tables and figures as seeded cells.

Each id (DESIGN.md §3 and decision 22) names its cells and a reduction
of their results into the rows its table prints.  A cell is keyed by
the sorted-key JSON of its function and arguments, so ids that share a
run share its key, and :func:`run_figures` runs each key once.  Floats
are rounded to 6 decimals (``sum()`` of floats rounds differently from
Python 3.12 on), and host-timed numbers are printed, never stored.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List, Sequence

from repro.apps.catalog import catalog_apps, extended_catalog
from repro.devices.specs import get_device
from repro.experiments import (
    ablations, cpu_utilization, frame_rate, io_cpu, launch_study, overhead,
    page_categorization, reclaim_study, refault_analysis, user_study,
)
from repro.experiments.pool import ordered_map, pool_width
from repro.experiments.scenarios import (
    DEFAULT_BG_COUNT, BgCase, SCENARIOS, run_scenario,
)

SEED = 7
USERS = {user.user_id: user for user in user_study.STUDY_USERS}


@dataclass(frozen=True)
class Cell:
    """One seeded run: ``fn(**kwargs)``, with JSON-valued arguments."""

    fn: Callable
    kwargs: dict

    @property
    def key(self) -> str:
        name = f"{self.fn.__module__}.{self.fn.__qualname__}"
        return json.dumps({"fn": name, "kwargs": self.kwargs}, sort_keys=True)


@dataclass
class Figure:
    cells: List[Cell]
    reduce: Callable[[list], object]  # cell results, in order -> rows
    render: Callable[[object], str]   # rows -> the printed table


def scenario_cell(scenario, policy, device, bg_case, bg_count, seconds,
                  settle_s, seed) -> dict:
    """:func:`run_scenario` with its device named: the run's scalars."""
    return run_scenario(
        scenario, policy=policy, spec=get_device(device), bg_case=bg_case,
        bg_count=bg_count, seconds=seconds, settle_s=settle_s, seed=seed,
    ).to_dict()


def study_user(user_id: str, days: int, day_minutes: float):
    """:func:`simulate_user` for the volunteer named ``user_id``."""
    return user_study.simulate_user(USERS[user_id], days=days,
                                    day_minutes=day_minutes)


def _scenario(scenario, policy="LRU+CFS", device="P20", bg_case=BgCase.APPS,
              bg_count=None, seconds=45.0, settle_s=5.0) -> Cell:
    if bg_count is None:
        bg_count = DEFAULT_BG_COUNT[device]
    return Cell(scenario_cell, dict(
        scenario=scenario, policy=policy, device=device, bg_case=bg_case,
        bg_count=bg_count, seconds=seconds, settle_s=settle_s, seed=SEED,
    ))


def _launches(policies, rounds, use_seconds) -> List[Cell]:
    return [Cell(launch_study.launch_study, dict(
        policy=policy, rounds=rounds, use_seconds=use_seconds, seed=SEED,
    )) for policy in policies]


def _categorization(profiles, window_s, disable_idle_gc) -> List[Cell]:
    """One cell per 4-app batch of :func:`figure4`, seeded as it seeds
    the batch."""
    names = [profile.package for profile in profiles]
    return [Cell(page_categorization.figure4, dict(
        packages=names[start : start + 4], window_s=window_s,
        disable_idle_gc=disable_idle_gc, seed=SEED + start,
    )) for start in range(0, len(names), 4)]


def _pick(results, *names) -> List[dict]:
    return [{name: r[name] for name in names} for r in results]


def _groups(results, size=len(SCENARIOS)):
    return zip(*[iter(results)] * size)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


# The catalogue, in DESIGN.md §3's order.
def _table1() -> Figure:
    counts, rounds = (0, 2, 4, 6, 8), 2
    return Figure(
        [Cell(cpu_utilization.measure_cpu_utilization, dict(
            bg_apps=count, seconds=20.0, seed=42 + 1000 * r,
        )) for count in counts for r in range(rounds)],
        lambda results: [
            {"bg_apps": count, "average": _mean(r.average for r in group),
             "peak": _mean(r.peak for r in group)}
            for count, group in zip(counts, _groups(results, rounds))
        ],
        lambda rows: cpu_utilization.format_table1(
            [cpu_utilization.CpuUtilizationRow(**row) for row in rows]),
    )


def _fig1() -> Figure:
    scenarios = ("S-A", "S-B")
    return Figure(
        [_scenario(scenario, bg_case=case, seconds=90.0, settle_s=0.0)
         for scenario in scenarios for case in BgCase.ALL],
        lambda results: _pick(results, "scenario", "bg_case", "fps", "ria",
                              "fps_timeline"),
        lambda rows: "\n".join(
            f"[{scenario}]\n" + frame_rate.format_figure1({
                row["bg_case"]: SimpleNamespace(**row)
                for row in rows if row["scenario"] == scenario
            }) for scenario in scenarios),
    )


def _fig2a() -> Figure:
    return Figure(
        [_scenario("S-A", bg_case=case, seconds=90.0, settle_s=0.0)
         for case in (BgCase.NULL, BgCase.MEMTESTER, BgCase.APPS)],
        lambda results: [{"case": r["bg_case"], "reclaim": r["reclaim"],
                          "refault": r["refault"]} for r in results],
        lambda rows: refault_analysis.format_figure2a(
            [refault_analysis.Figure2aRow(**row) for row in rows]),
    )


def _fig2b() -> Figure:
    return Figure(
        [Cell(refault_analysis.collect_slices, dict(
            scenarios=[scenario], bg_counts=[count], slices_per_scenario=3,
            slice_seconds=20.0, seed=SEED,
        )) for scenario in ("S-A", "S-C") for count in (4, 6, 7, 8)],
        lambda results: [asdict(row) for row in refault_analysis.figure2b(
            [sample for cell in results for sample in cell])],
        lambda rows: refault_analysis.format_figure2b(
            [refault_analysis.DecileRow(**row) for row in rows]),
    )


def _user_cells(users) -> List[Cell]:
    return [Cell(study_user, dict(user_id=user.user_id, days=3,
                                  day_minutes=4.0)) for user in users]


def _fig3a() -> Figure:
    return Figure(
        _user_cells(user_study.STUDY_USERS),
        lambda results: [
            {"user_id": r.user.user_id, "days": [asdict(d) for d in r.days]}
            for r in results
        ],
        lambda rows: user_study.format_figure3a([user_study.UserStudyResult(
            user=USERS[row["user_id"]],
            days=[user_study.DayStats(**day) for day in row["days"]],
        ) for row in rows]),
    )


def _fig3b() -> Figure:
    first = user_study.STUDY_USERS[0]
    return Figure(
        _user_cells([first]),
        lambda results: [asdict(point) for point in results[0].timeline],
        lambda rows: user_study.format_figure3b(user_study.UserStudyResult(
            user=first,
            timeline=[user_study.TimelinePoint(**row) for row in rows],
        )),
    )


def _fig4() -> Figure:
    return Figure(
        _categorization(extended_catalog(), 25.0, False),
        lambda results: [asdict(app) for summary in results
                         for app in summary.apps],
        lambda rows: page_categorization.format_figure4(
            page_categorization.CategorizationSummary(apps=[
                page_categorization.AppRefaultBreakdown(**row) for row in rows
            ])),
    )


def _sec32() -> Figure:
    """§3.2: refaults with the idle runtime GC on, then off."""
    cells = [cell for disable in (False, True)
             for cell in _categorization(catalog_apps(), 20.0, disable)]

    def reduce(results):
        half = len(results) // 2
        return [{
            "idle_gc": idle_gc,
            "reclaimed": sum(s.total_reclaimed for s in part),
            "refaulted": sum(s.total_refaulted for s in part),
        } for idle_gc, part in ((True, results[:half]),
                                (False, results[half:]))]

    return Figure(cells, reduce, lambda rows: "\n".join(
        f"idle GC {'on ' if row['idle_gc'] else 'off'}: refaulted "
        f"{row['refaulted']} of {row['reclaimed']}" for row in rows))


def _fig8() -> Figure:
    return Figure(
        [_scenario(scenario, policy, device=device)
         for device in ("Pixel3", "P20") for scenario in SCENARIOS
         for policy in frame_rate.SCHEMES],
        lambda results: [{**row, "rounds": 1} for row in _pick(
            results, "scenario", "device", "policy", "fps", "ria")],
        lambda rows: frame_rate.format_figure8(
            [frame_rate.Figure8Cell(**row) for row in rows]),
    )


def _fig9() -> Figure:
    counts, policies = (0, 2, 4, 6, 8), ("LRU+CFS", "Ice")
    keys = [(count, policy) for count in counts for policy in policies]
    return Figure(
        [_scenario(scenario, policy,
                   bg_case=BgCase.APPS if count else BgCase.NULL,
                   bg_count=count, seconds=40.0)
         for count, policy in keys for scenario in SCENARIOS],
        lambda results: [{
            "config": f"{count}B+F" if count else "F", "bg_count": count,
            "policy": policy, "fps": _mean(r["fps"] for r in group),
            "ria": _mean(r["ria"] for r in group),
        } for (count, policy), group in zip(keys, _groups(results))],
        lambda rows: frame_rate.format_figure9(
            [frame_rate.Figure9Point(**row) for row in rows]),
    )


def _reclaim(policies, title, summary=False) -> Figure:
    def render(rows):
        cells = [reclaim_study.ReclaimCell(**row) for row in rows]
        text = reclaim_study.format_matrix(cells, title)
        if summary:
            text += "\n" + reclaim_study.reduction_summary(cells)
        return text

    return Figure(
        [_scenario(scenario, policy)
         for scenario in SCENARIOS for policy in policies],
        lambda results: _pick(results, "scenario", "policy", "refault",
                              "reclaim"),
        render,
    )


def _sec622() -> Figure:
    def totals(policy, runs):
        reads = sum(r["io_read_pages"] for r in runs)
        writes = sum(r["io_write_pages"] for r in runs)
        return {"policy": policy, "io_pages": reads + writes,
                "io_read_pages": reads, "io_write_pages": writes,
                "zram_ops": sum(r["pswpin"] + r["pswpout"] for r in runs),
                "cpu_avg": _mean(r["cpu_avg"] for r in runs)}

    def reduce(results):
        base, ice = (totals(policy, runs) for policy, runs in
                     zip(("LRU+CFS", "Ice"), _groups(results)))
        return {"baseline": base, "ice": ice,
                "io_reduction": 1.0 - ice["io_pages"] / base["io_pages"],
                "cpu_baseline": base["cpu_avg"], "cpu_ice": ice["cpu_avg"]}

    return Figure(
        [_scenario(scenario, policy, seconds=40.0)
         for policy in ("LRU+CFS", "Ice") for scenario in SCENARIOS],
        reduce,
        lambda rows: io_cpu.format_pressure({
            **rows, "baseline": io_cpu.PressureResult(**rows["baseline"]),
            "ice": io_cpu.PressureResult(**rows["ice"]),
        }),
    )


def _launch_rows(results) -> List[dict]:
    return [{"policy": r.policy, "average_ms": r.average_ms,
             "cold_ms": r.cold_ms, "hot_ms": r.hot_ms,
             "hot_launches": r.hot_launches, "lmk_kills": r.lmk_kills}
            for r in results]


def _render_sec631(row) -> str:
    outcome = launch_study.WorstCaseResult(**row)
    return (f"worst-case hot launch: normal={outcome.normal_hot_ms:.0f} ms, "
            f"worst={outcome.worst_hot_ms:.0f} ms "
            f"({outcome.slowdown:.2f}x; paper: 1.98x)")


def _ablation_freezing() -> Figure:
    return Figure(
        _launches(("Ice", "FreezeAll"), 3, 5.0),
        lambda results: [{
            "policy": r.policy, "launches": len(r.samples),
            "hot": sum(1 for s in r.samples if s.style == "hot"),
            "thawed": sum(1 for s in r.samples if s.thaw_ms > 0),
        } for r in results],
        lambda rows: "ablation: selective (Ice) vs aggressive (FreezeAll) "
        "freezing\n  launches paying a thaw: " + ", ".join(
            f"{row['policy']} {row['thawed']} / {row['launches']} "
            f"({row['hot']} hot)" for row in rows),
    )


def _ablation_delta() -> Figure:
    return Figure(
        [_scenario("S-A", policy, seconds=60.0)
         for policy in ("Ice", "Ice-delta1")],
        lambda results: _pick(results, "policy", "refault", "fps"),
        lambda rows: "ablation: MDT weight coefficient δ\n" + "\n".join(
            f"  {label}: {row['refault']:5d} refaults, {row['fps']:5.1f} fps"
            for label, row in zip(("δ=8 (paper)", "δ=1        "), rows)),
    )


FIGURES: Dict[str, Figure] = {
    "table1": _table1(),
    "fig1": _fig1(),
    "fig2a": _fig2a(),
    "fig2b": _fig2b(),
    "fig3a": _fig3a(),
    "fig3b": _fig3b(),
    "fig4": _fig4(),
    "sec32": _sec32(),
    "fig8": _fig8(),
    "fig9": _fig9(),
    "fig10": _reclaim(("LRU+CFS", "UCSG", "Acclaim", "Ice"),
                      "Figure 10: refault / reclaim by scheme (P20)",
                      summary=True),
    "table5": _reclaim(("LRU+CFS", "PowerManager", "Ice"),
                       "Table 5: power manager vs Ice (P20)"),
    "sec622": _sec622(),
    "fig11a": Figure(
        _launches(("LRU+CFS", "Ice"), 4, 10.0), _launch_rows,
        lambda rows: launch_study.format_launch_study(
            {row["policy"]: SimpleNamespace(**row) for row in rows}),
    ),
    "fig11b": Figure(
        _launches(("LRU+CFS", "Ice"), 4, 10.0),
        lambda results: _pick(_launch_rows(results), "policy", "hot_launches"),
        lambda rows: "Figure 11(b): hot launches in rounds 2+: " + ", ".join(
            f"{row['policy']} {row['hot_launches']}" for row in rows),
    ),
    "sec631": Figure(
        [Cell(launch_study.worst_case_hot_launch, dict(seed=SEED))],
        lambda results: asdict(results[0]), _render_sec631,
    ),
    "sec641": Figure(
        [Cell(overhead.mapping_table_overhead,
              dict(apps=20, processes_per_app=3))],
        lambda results: asdict(results[0]),
        lambda row: overhead.format_overhead(
            memory=overhead.MemoryOverheadResult(**row)),
    ),
    "sec642": Figure(
        [Cell(overhead.thaw_latency_ms, dict(processes=3))],
        lambda results: {"thaw_ms": results[0]},
        # The indexing time is the host's, so it is measured here.
        lambda row: overhead.format_overhead(
            indexing=overhead.indexing_overhead(), thaw_ms=row["thaw_ms"]),
    ),
    "ablation-freezing": _ablation_freezing(),
    "ablation-delta": _ablation_delta(),
    "ablation-whitelist": Figure(
        [Cell(ablations.whitelist_study, dict(seconds=40.0, seed=SEED))],
        lambda results: results[0],
        lambda row: f"ablation: whitelist — perceptible app {row['package']} "
        f"frozen pids: {row['frozen']} (whitelist vetoes observed: "
        f"{row['whitelisted']})",
    ),
}


def _run_cell(cell: Cell):
    with ablations.strawmen():
        return cell.fn(**cell.kwargs)


def _rounded(value):
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def check_ids(ids: Sequence[str]) -> None:
    """Raise ``ValueError``, listing the valid ids, for an unknown one."""
    unknown = [figure_id for figure_id in ids if figure_id not in FIGURES]
    if unknown:
        raise ValueError(
            f"unknown figure id {', '.join(map(repr, unknown))}; "
            f"valid: {', '.join(FIGURES)}"
        )


def distinct_cells(ids: Sequence[str]) -> Dict[str, Cell]:
    """The cells of ``ids`` by key, each once, in catalogue order."""
    cells: Dict[str, Cell] = {}
    for figure_id, figure in FIGURES.items():
        if figure_id in ids:
            for cell in figure.cells:
                cells.setdefault(cell.key, cell)
    return cells


def run_figures(ids: Sequence[str], width: int = 0) -> Dict[str, object]:
    """The rows of each of ``ids``, from each distinct cell run once
    over ``width`` processes (0: as many as this process may use)."""
    check_ids(ids)
    cells = distinct_cells(ids)
    outcomes = ordered_map(_run_cell, list(cells.values()),
                           width or pool_width())
    results = dict(zip(cells, outcomes))
    return {
        figure_id: _rounded(fig.reduce([results[c.key] for c in fig.cells]))
        for figure_id, fig in FIGURES.items() if figure_id in ids
    }


def dumps(doc: Dict[str, object]) -> str:
    """The artifact's bytes: sorted keys, a fixed indent, no host data."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def main(args: argparse.Namespace) -> int:
    ids = args.ids or list(FIGURES)
    try:
        check_ids(ids)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    doc = run_figures(ids)
    for figure_id, rows in doc.items():
        print(FIGURES[figure_id].render(rows) + "\n")
    print(f"figures: {len(distinct_cells(ids))} distinct cells over "
          f"{pool_width()} processes in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(dumps(doc))
    return 0
