"""`repro figures`: the evaluation's tables and figures as seeded cells.

Each id (DESIGN.md §3 and decisions 22 and 25) owns three things, kept
together below: its cells, a reduction of their results into rows, and
a render of those rows into the table it prints.  The render reads the
rows exactly as ``FIGURES.json`` stores them, so the printed table and
the committed file have one source, and EXPERIMENTS.md quotes each
render verbatim.  A cell is keyed by the sorted-key JSON of its
function and arguments, so ids that share a run share its key, and
:func:`run_figures` runs each key once.  Floats are rounded to 6
decimals (``sum()`` of floats rounds differently from Python 3.12 on),
and host-timed numbers are printed, never stored.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Sequence

from repro.apps.catalog import catalog_apps, extended_catalog
from repro.devices.specs import get_device
from repro.experiments import (
    ablations, cpu_utilization, launch_study, overhead, page_categorization,
    refault_analysis, user_study,
)
from repro.experiments.pool import ordered_map, pool_width
from repro.experiments.scenarios import (
    DEFAULT_BG_COUNT, BgCase, SCENARIOS, run_scenario,
)

SEED = 7
USERS = {user.user_id: user for user in user_study.STUDY_USERS}
# Figure 8's schemes, in its column order.
SCHEMES = ("LRU+CFS", "UCSG", "Acclaim", "Ice")


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
    render: Callable[[object], str]   # stored rows -> the printed table


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


def _by(rows, key, column="policy") -> Dict[object, Dict[str, dict]]:
    """``rows`` as ``{key(row): {row[column]: row}}``, in row order."""
    table: Dict[object, Dict[str, dict]] = {}
    for row in rows:
        table.setdefault(key(row), {})[row[column]] = row
    return table


# The catalogue, in DESIGN.md §3's order.

# Table 1.  Paper: ~43% average CPU (52% peak) with no BG apps, ~55%
# (69% peak) with eight.
def _table1() -> Figure:
    counts, rounds = (0, 2, 4, 6, 8), 2

    def render(rows):
        return "\n".join([
            "Table 1: CPU utilization with N apps in the BG (no FG app)",
            f"{'BG apps':>8} | {'Average':>8} | {'Peak':>8}",
            "-" * 32,
        ] + [f"{row['bg_apps']:>8} | {row['average']:>7.0%} | "
             f"{row['peak']:>7.0%}" for row in rows])

    return Figure(
        [Cell(cpu_utilization.measure_cpu_utilization, dict(
            bg_apps=count, seconds=20.0, seed=42 + 1000 * r,
        )) for count in counts for r in range(rounds)],
        lambda results: [
            {"bg_apps": count, "average": _mean(r["average"] for r in group),
             "peak": _mean(r["peak"] for r in group)}
            for count, group in zip(counts, _groups(results, rounds))
        ],
        render,
    )


# Figure 1.  Per-second FPS of the baseline under each BG case,
# measured from FG-launch completion (settle 0) so the BG-memtester
# transient shows.
def _fig1() -> Figure:
    def render(rows):
        lines = []
        for scenario, cases in _by(
                rows, lambda row: row["scenario"], "bg_case").items():
            lines += [f"[{scenario}]",
                      "Figure 1: FPS per second under each BG case"]
            for case, row in cases.items():
                series = " ".join(f"{v:2d}" for v in row["fps_timeline"][:60])
                lines.append(f"{case:14s} avg={row['fps']:5.1f}  [{series}]")
        return "\n".join(lines)

    return Figure(
        [_scenario(scenario, bg_case=case, seconds=90.0, settle_s=0.0)
         for scenario in ("S-A", "S-B") for case in BgCase.ALL],
        lambda results: _pick(results, "scenario", "bg_case", "fps", "ria",
                              "fps_timeline"),
        render,
    )


def _fig2a() -> Figure:
    def render(rows):
        return "\n".join([
            "Figure 2(a): reclaimed and refaulted pages in total",
            f"{'case':>14} | {'Reclaim':>8} | {'Refault':>8}",
            "-" * 38,
        ] + [f"{row['case']:>14} | {row['reclaim']:>8} | {row['refault']:>8}"
             for row in rows])

    return Figure(
        [_scenario("S-A", bg_case=case, seconds=90.0, settle_s=0.0)
         for case in (BgCase.NULL, BgCase.MEMTESTER, BgCase.APPS)],
        lambda results: [{"case": r["bg_case"], "reclaim": r["reclaim"],
                          "refault": r["refault"]} for r in results],
        render,
    )


def _fig2b() -> Figure:
    def render(rows):
        return "\n".join([
            "Figure 2(b): frame rate vs BG refaults (30 s slices, deciles)",
            f"{'decile':>14} | {'FPS':>6} | {'reclaims':>9} | "
            f"{'BG refaults':>11}",
            "-" * 52,
        ] + [f"{row['decile']:>14} | {row['fps']:>6.1f} | "
             f"{row['reclaims']:>9.0f} | {row['bg_refaults']:>11.0f}"
             for row in rows])

    return Figure(
        [Cell(refault_analysis.collect_slices, dict(
            scenarios=[scenario], bg_counts=[count], slices_per_scenario=3,
            slice_seconds=20.0, seed=SEED,
        )) for scenario in ("S-A", "S-C") for count in (4, 6, 7, 8)],
        lambda results: refault_analysis.figure2b(
            [sample for cell in results for sample in cell]),
        render,
    )


def _user_cells(users) -> List[Cell]:
    return [Cell(study_user, dict(user_id=user.user_id, days=3,
                                  day_minutes=4.0)) for user in users]


def _fig3a() -> Figure:
    def render(rows):
        results = [user_study.UserStudyResult(
            user=USERS[row["user_id"]],
            days=[user_study.DayStats(**day) for day in row["days"]],
        ) for row in rows]
        lines = [
            "Figure 3(a): evicted/refaulted pages per (compressed) day",
            f"{'user':>7} {'device':>7} | {'evicted/day':>11} | "
            f"{'refault/day':>11} | {'ratio':>6} | {'BG share':>8}",
            "-" * 64,
        ]
        for result in results:
            n_days = max(1, len(result.days))
            lines.append(
                f"{result.user.user_id:>7} {result.user.device:>7} | "
                f"{result.total_evicted // n_days:>11} | "
                f"{result.total_refaulted // n_days:>11} | "
                f"{result.refault_ratio:>6.0%} | {result.bg_share:>8.0%}"
            )
        lines += ["-" * 64, (
            f"{'mean':>15} | {'':>11} | {'':>11} | "
            f"{_mean(r.refault_ratio for r in results):>6.0%} | "
            f"{_mean(r.bg_share for r in results):>8.0%}"
        )]
        return "\n".join(lines)

    return Figure(
        _user_cells(user_study.STUDY_USERS),
        lambda results: [
            {"user_id": r.user.user_id, "days": [asdict(d) for d in r.days]}
            for r in results
        ],
        render,
    )


def _fig3b() -> Figure:
    first = user_study.STUDY_USERS[0]

    def render(rows):
        lines = [
            f"Figure 3(b): cumulative evictions/refaults over time "
            f"({first.user_id}, {first.device})",
            f"{'t(s)':>7} | {'evicted':>9} | {'refaulted':>9} | "
            f"{'ratio':>6} | {'BG share':>8}",
            "-" * 50,
        ]
        for row in rows[::max(1, len(rows) // 20)]:
            evicted, refaulted = row["evicted"], row["refaulted"]
            ratio = refaulted / evicted if evicted else 0.0
            share = row["refault_bg"] / refaulted if refaulted else 0.0
            lines.append(
                f"{row['time_s']:>7.0f} | {evicted:>9} | {refaulted:>9} | "
                f"{ratio:>6.0%} | {share:>8.0%}"
            )
        return "\n".join(lines)

    return Figure(
        _user_cells([first]),
        lambda results: [asdict(point) for point in results[0].timeline],
        render,
    )


def _fig4() -> Figure:
    def render(rows):
        summary = page_categorization.CategorizationSummary(apps=[
            page_categorization.AppRefaultBreakdown(**row) for row in rows
        ])
        lines = [
            "Figure 4: categorization of refaulted pages "
            "(per-process reclaim study)",
            f"{'app':>18} | {'reclaimed':>9} | {'refaulted':>9} | "
            f"{'frac':>5} | {'file':>5} | {'java':>5} | {'native':>6}",
            "-" * 78,
        ]
        for app in summary.apps:
            lines.append(
                f"{app.package:>18} | {app.reclaimed:>9} | "
                f"{app.refaulted:>9} | {app.refault_fraction:>5.0%} | "
                f"{app.refaulted_file:>5} | {app.refaulted_java:>5} | "
                f"{app.refaulted_native:>6}"
            )
        lines += ["-" * 78, (
            f"aggregate: refault fraction {summary.refault_fraction:.1%}; "
            f"file {summary.file_share:.1%} vs anon "
            f"{summary.anon_share:.1%}; anon split native "
            f"{summary.native_share_of_anon:.1%} / "
            f"java {summary.java_share_of_anon:.1%}"
        )]
        return "\n".join(lines)

    return Figure(
        _categorization(extended_catalog(), 25.0, False),
        lambda results: [asdict(app) for summary in results
                         for app in summary.apps],
        render,
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


# Figure 8.  FPS and RIA of the four schemes on the four scenarios of
# both devices, with the memory-exhausting BG population (8 apps on the
# P20, 6 on the Pixel3).
def _fig8() -> Figure:
    def render(rows):
        lines = [
            "Figure 8: frame rate comparison (FPS / RIA)",
            f"{'device':>8} {'scenario':>9} | "
            + " | ".join(f"{scheme:>14}" for scheme in SCHEMES),
        ]
        for (device, scenario), cells in _by(
                rows, lambda row: (row["device"], row["scenario"])).items():
            lines.append(f"{device:>8} {scenario:>9} | " + " | ".join(
                (f"{cells[s]['fps']:5.1f} / {cells[s]['ria']:4.0%}"
                 if s in cells else "").rjust(14) for s in SCHEMES))
        return "\n".join(lines)

    return Figure(
        [_scenario(scenario, policy, device=device)
         for device in ("Pixel3", "P20") for scenario in SCENARIOS
         for policy in SCHEMES],
        lambda results: [{**row, "rounds": 1} for row in _pick(
            results, "scenario", "device", "policy", "fps", "ria")],
        render,
    )


# Figure 9.  FPS and RIA averaged over the four scenarios as the cached
# BG population sweeps F, 2B+F, ... 8B+F, baseline vs Ice.
def _fig9() -> Figure:
    counts, policies = (0, 2, 4, 6, 8), ("LRU+CFS", "Ice")
    keys = [(count, policy) for count in counts for policy in policies]

    def render(rows):
        lines = [
            "Figure 9: frame rate vs number of BG applications",
            f"{'config':>7} | " + " | ".join(f"{p:>13}" for p in policies),
        ]
        for config, cells in _by(rows, lambda row: row["config"]).items():
            lines.append(f"{config:>7} | " + " | ".join(
                (f"{cells[p]['fps']:5.1f}/{cells[p]['ria']:4.0%}"
                 if p in cells else "").rjust(13) for p in policies))
        return "\n".join(lines)

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
        render,
    )


def _reduction_summary(rows, baseline="LRU+CFS") -> List[str]:
    """Each scheme's mean refault and reclaim ratio to the baseline's,
    over the scenarios where the baseline refaulted."""
    by_scenario = _by(rows, lambda row: row["scenario"])
    lines = [f"reduction vs {baseline}:"]
    for scheme in sorted({row["policy"] for row in rows} - {baseline}):
        refaults, reclaims = [], []
        for cells in by_scenario.values():
            base, cell = cells.get(baseline), cells.get(scheme)
            if base is None or cell is None or base["refault"] == 0:
                continue
            refaults.append(cell["refault"] / base["refault"])
            reclaims.append(cell["reclaim"] / base["reclaim"]
                            if base["reclaim"] else 0)
        if refaults:
            lines.append(
                f"  {scheme:>12}: refaults at {_mean(refaults):.0%} of "
                f"baseline, reclaims at {_mean(reclaims):.0%}"
            )
    return lines


# Figure 10 and Table 5.  Refaulted and reclaimed pages per scheme on
# the four scenarios (P20); Table 5 sets the fixed-cycle power manager
# against Ice.
def _reclaim(policies, title, summary=False) -> Figure:
    def render(rows):
        schemes = list(dict.fromkeys(row["policy"] for row in rows))
        lines = [
            title,
            f"{'scenario':>9} | "
            + " | ".join(f"{scheme:>22}" for scheme in schemes),
            f"{'':>9} | "
            + " | ".join(f"{'refault / reclaim':>22}" for _ in schemes),
            "-" * (12 + 25 * len(schemes)),
        ]
        for scenario, cells in _by(rows, lambda row: row["scenario"]).items():
            lines.append(f"{scenario:>9} | " + " | ".join(
                f"{cells[s]['refault']:>9.0f} / {cells[s]['reclaim']:>10.0f}"
                if s in cells else " " * 22 for s in schemes))
        if summary:
            lines += _reduction_summary(rows)
        return "\n".join(lines)

    return Figure(
        [_scenario(scenario, policy)
         for scenario in SCENARIOS for policy in policies],
        lambda results: _pick(results, "scenario", "policy", "refault",
                              "reclaim"),
        render,
    )


# §6.2.2.  I/O pages, ZRAM operations and CPU utilization summed over
# the four scenarios, baseline vs Ice (paper: I/O −9.2%, CPU 55.8% ->
# 47.3%).
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

    def line(label, row):
        return (f"{label:>10} | {row['io_pages']:>10} | "
                f"{row['io_read_pages']:>8} | {row['io_write_pages']:>8} | "
                f"{row['zram_ops']:>9} | {row['cpu_avg']:>7.1%}")

    def render(rows):
        return "\n".join([
            "§6.2.2: I/O and CPU pressure (four scenarios, repeated rounds)",
            f"{'':>10} | {'I/O pages':>10} | {'reads':>8} | {'writes':>8} | "
            f"{'zram ops':>9} | {'CPU avg':>8}",
            "-" * 66,
            line("LRU+CFS", rows["baseline"]),
            line("Ice", rows["ice"]),
            "-" * 66,
            f"I/O reduced by {rows['io_reduction']:.1%}; CPU "
            f"{rows['cpu_baseline']:.1%} -> {rows['cpu_ice']:.1%}",
        ])

    return Figure(
        [_scenario(scenario, policy, seconds=40.0)
         for policy in ("LRU+CFS", "Ice") for scenario in SCENARIOS],
        reduce,
        render,
    )


def _launch_rows(results) -> List[dict]:
    return [{"policy": r.policy, "average_ms": r.average_ms,
             "cold_ms": r.cold_ms, "hot_ms": r.hot_ms,
             "hot_launches": r.hot_launches, "lmk_kills": r.lmk_kills}
            for r in results]


def _render_fig11a(rows) -> str:
    return "\n".join([
        "Figure 11: application launching",
        f"{'policy':>10} | {'avg ms':>8} | {'cold ms':>8} | {'hot ms':>8} | "
        f"{'hot launches (r2+)':>18} | {'LMK kills':>9}",
        "-" * 74,
    ] + [f"{row['policy']:>10} | {row['average_ms']:>8.0f} | "
         f"{row['cold_ms']:>8.0f} | {row['hot_ms']:>8.0f} | "
         f"{row['hot_launches']:>18} | {row['lmk_kills']:>9}"
         for row in rows])


def _render_sec631(row) -> str:
    outcome = launch_study.WorstCaseResult(**row)
    return (f"worst-case hot launch: normal={outcome.normal_hot_ms:.0f} ms, "
            f"worst={outcome.worst_hot_ms:.0f} ms "
            f"({outcome.slowdown:.2f}x; paper: 1.98x)")


_OVERHEAD = "§6.4: overhead analysis"


def _render_sec641(row) -> str:
    return "\n".join([_OVERHEAD, (
        f"mapping table ({row['apps']} apps x {row['processes_per_app']} "
        f"procs): {row['measured_bytes']} B measured, "
        f"{row['paper_bytes']} B by the paper's accounting "
        f"({row['paper_bytes'] / 1024:.1f} KB), bound {row['bound_bytes']} B"
    )])


def _render_sec642(row) -> str:
    # The indexing time is the host's, so it is measured here.
    indexing = overhead.indexing_overhead()
    return "\n".join([
        _OVERHEAD,
        f"table indexing: {indexing.us_per_lookup:.2f} us per lookup "
        f"({indexing.lookups} lookups)",
        f"thaw latency: {row['thaw_ms']:.0f} ms per 3-process application",
    ])


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
        _launches(("LRU+CFS", "Ice"), 4, 10.0), _launch_rows, _render_fig11a,
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
        lambda results: asdict(results[0]), _render_sec641,
    ),
    "sec642": Figure(
        [Cell(overhead.thaw_latency_ms, dict(processes=3))],
        lambda results: {"thaw_ms": results[0]}, _render_sec642,
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
