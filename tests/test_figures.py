"""The paper's shape checks, over the committed ``FIGURES.json``.

``repro figures --out FIGURES.json`` writes every artifact's rows
(:mod:`repro.experiments.figures`); CI regenerates the file and
requires it byte for byte.  §6.4's checks are cheap and run live.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments.cases import BgCase
from repro.experiments.page_categorization import (
    AppRefaultBreakdown,
    CategorizationSummary,
)
from repro.experiments.user_study import DayStats, UserStudyResult

FIGURES_JSON = Path(__file__).resolve().parent.parent / "FIGURES.json"


@pytest.fixture(scope="module")
def figures():
    return json.loads(FIGURES_JSON.read_text())


def _rows(figures, figure_id):
    return [SimpleNamespace(**row) for row in figures[figure_id]]


def test_every_scenario_run_is_requested_once_per_key():
    # Figure 10 is Figure 8's P20 half, 8 of Table 5's 12 runs are
    # Figure 8's, §6.2.2 is Figure 9's 8B+F column and Figure 2(a) is
    # three of Figure 1's runs.
    from repro.experiments.figures import FIGURES, scenario_cell

    requested = [
        cell.key for figure in FIGURES.values() for cell in figure.cells
        if cell.fn is scenario_cell
    ]
    assert len(requested) == 121
    assert len(set(requested)) == 86


def test_artifact_covers_every_id(figures):
    from repro.experiments.figures import FIGURES

    assert list(figures) == sorted(FIGURES)


@pytest.mark.parametrize("width", [1, 2], ids=["in-process", "pool"])
def test_cheap_slice_regenerates_byte_for_byte(figures, width):
    from repro.experiments.figures import dumps, run_figures

    ids = ["table1", "fig2a", "sec631", "sec641", "ablation-whitelist"]
    fresh = run_figures(ids, width=width)
    assert dumps(fresh) == dumps({figure_id: figures[figure_id]
                                  for figure_id in ids})


# Table 1.  Paper: ~43% average CPU (52% peak) with no BG apps, ~55%
# (69% peak) with eight — BG apps are not CPU intensive in general.
def test_table1_cpu_utilization(figures):
    rows = _rows(figures, "table1")
    by_count = {row.bg_apps: row for row in rows}
    # Baseline framework load sits near the paper's 43%.
    assert 0.30 <= by_count[0].average <= 0.55
    # Utilization rises monotonically-ish with population and stays
    # far from saturation: CPU is not the bottleneck.
    assert by_count[8].average > by_count[0].average
    assert by_count[8].average < 0.80
    # Peak stays above average.
    for row in rows:
        assert row.peak >= row.average


# Figure 1.  Paper: BG-apps devastates frame rate (−50%-ish, sustained);
# memtester dips and recovers; cputester barely matters (−6%).
@pytest.mark.parametrize("scenario", ["S-A", "S-B"])
def test_fig1_fps_timeline(figures, scenario):
    results = {
        row.bg_case: row for row in _rows(figures, "fig1")
        if row.scenario == scenario
    }
    null = results[BgCase.NULL]
    apps = results[BgCase.APPS]
    cpu = results[BgCase.CPUTESTER]
    mem = results[BgCase.MEMTESTER]

    # BG-apps is by far the most damaging case.
    assert apps.fps < null.fps * 0.85
    assert apps.fps < mem.fps
    assert apps.fps < cpu.fps
    # cputester: CPU contention is not the main reason (paper: -6.3%).
    assert cpu.fps > null.fps * 0.90
    # memtester: occupancy alone costs far less than refaulting BG apps.
    assert mem.fps > apps.fps * 1.1
    # And only BG-apps sustains heavy interaction alerts.
    assert apps.ria > max(cpu.ria, mem.ria, null.ria)


# Figure 2.  Paper: (a) BG-apps reclaims most and refaults by far the
# most; (b) FPS collapses in the slices with the most BG refaults.
def test_fig2a_reclaim_refault_totals(figures):
    by_case = {row.case: row for row in _rows(figures, "fig2a")}
    null = by_case[BgCase.NULL]
    mem = by_case[BgCase.MEMTESTER]
    apps = by_case[BgCase.APPS]
    assert null.reclaim < 100 and null.refault < 10
    assert mem.reclaim > null.reclaim
    # The defining contrast: memtester reclaims but does not refault;
    # real BG apps refault massively.
    assert apps.refault > 10 * max(1, mem.refault)
    assert apps.reclaim > mem.reclaim


def test_fig2b_fps_vs_bg_refault_deciles(figures):
    rows = _rows(figures, "fig2b")
    assert len(rows) >= 4
    # Frame rate deteriorates from the quietest to the stormiest decile.
    assert rows[-1].fps < rows[0].fps * 0.9
    # More BG refaults come with more reclaim (invalid-reclaim loop).
    assert rows[-1].reclaims > rows[0].reclaims


# Figure 3.  Paper: ≈39% of evicted pages are refaulted on average, and
# more than 60% of refaults are caused by BG processes.
def test_fig3_user_study(figures):
    results = [
        UserStudyResult(user=None, days=[DayStats(**d) for d in row["days"]])
        for row in figures["fig3a"]
    ]
    active = [r for r in results if r.total_evicted > 500]
    assert len(active) >= 6  # nearly every user reaches the reclaim regime

    ratios = [r.refault_ratio for r in active]
    mean_ratio = sum(ratios) / len(ratios)
    # Paper: ~39% of evicted pages are refaulted on average.
    assert 0.15 <= mean_ratio <= 0.75

    shares = [r.bg_share for r in active if r.total_refaulted > 100]
    mean_share = sum(shares) / len(shares)
    # Paper: >60% of refaults come from BG processes.
    assert mean_share > 0.55

    # Figure 3(b): cumulative counters only grow.
    timeline = _rows(figures, "fig3b")
    assert all(
        later.evicted >= earlier.evicted
        for earlier, later in zip(timeline, timeline[1:])
    )


# Figure 4 / §3.2.  Paper: >30% of reclaimed pages refault; file ≈49% /
# anon ≈51%, anon native ≈57% / java ≈43%; ≈77% remain without idle GC.
def test_fig4_page_categorization(figures):
    summary = CategorizationSummary(
        apps=[AppRefaultBreakdown(**row) for row in figures["fig4"]]
    )
    assert len(summary.apps) >= 30  # nearly all 40 traced
    # Paper: more than 30% of reclaimed pages are moved back.
    assert summary.refault_fraction > 0.30
    # Both kinds refault materially.
    assert summary.file_share > 0.10
    assert summary.anon_share > 0.30
    # Within anon: both heaps contribute.
    assert 0.2 < summary.native_share_of_anon < 0.8


def test_fig4_gc_disabled_still_refaults(figures):
    """§3.2: disabling idle GC does not eliminate BG refaults."""
    by_gc = {row.idle_gc: row for row in _rows(figures, "sec32")}
    baseline, no_gc = by_gc[True], by_gc[False]
    assert no_gc.refaulted > 0
    # The paper still observed 77% of refaults with idle GC disabled.
    assert no_gc.refaulted > baseline.refaulted * 0.4


# Figure 8.  Paper: Ice has the best frame rate on every scenario of both
# devices, most where memory is most exhausted.
def test_fig8_frame_rate(figures):
    cells = _rows(figures, "fig8")
    by_key = {}
    for cell in cells:
        by_key[(cell.device, cell.scenario, cell.policy)] = cell

    devices = {cell.device for cell in cells}
    scenarios = {cell.scenario for cell in cells}
    ice_wins = 0
    total = 0
    fps_ice_sum = fps_base_sum = 0.0
    for device in devices:
        for scenario in scenarios:
            base = by_key[(device, scenario, "LRU+CFS")]
            ice = by_key[(device, scenario, "Ice")]
            total += 1
            fps_ice_sum += ice.fps
            fps_base_sum += base.fps
            if ice.fps >= base.fps:
                ice_wins += 1
            # Ice also reduces interaction alerts almost everywhere.
            assert ice.ria <= base.ria + 0.10, (device, scenario)
    # Ice wins on (almost) every cell and clearly on average.
    assert ice_wins >= total - 1
    assert fps_ice_sum > fps_base_sum * 1.15


# Figure 9.  Paper: the schemes coincide with few BG apps; the baseline
# degrades with the population and Ice opens a large gap at 8B+F.
def test_fig9_bg_sweep(figures):
    points = _rows(figures, "fig9")
    by_key = {(p.bg_count, p.policy): p for p in points}
    counts = sorted({p.bg_count for p in points})
    full = counts[-1]

    # With an empty background, the schemes coincide.
    assert abs(
        by_key[(0, "Ice")].fps - by_key[(0, "LRU+CFS")].fps
    ) < by_key[(0, "LRU+CFS")].fps * 0.05

    # Baseline FPS degrades with population.
    assert by_key[(full, "LRU+CFS")].fps < by_key[(0, "LRU+CFS")].fps * 0.9

    # At the full population Ice opens a clear gap in FPS and RIA.
    base_full = by_key[(full, "LRU+CFS")]
    ice_full = by_key[(full, "Ice")]
    assert ice_full.fps > base_full.fps * 1.15
    assert ice_full.ria < base_full.ria


@pytest.mark.parametrize("figure_id", ["fig8", "fig9"])
def test_frame_rate_tables_line_up_with_their_headers(figures, figure_id):
    from repro.experiments.figures import FIGURES

    _title, header, *rows = FIGURES[figure_id].render(
        figures[figure_id]).splitlines()
    assert rows
    assert {len(row) for row in rows} == {len(header)}


# Figure 10.  Paper: Ice cuts refaults by ~40-58% and reclaims to ~70%;
# Acclaim does not reduce refaults.
def test_fig10_reclaim_refault(figures):
    cells = _rows(figures, "fig10")
    by_key = {(c.scenario, c.policy): c for c in cells}
    scenarios = sorted({c.scenario for c in cells})

    ice_refault_ratio = []
    ice_reclaim_ratio = []
    acclaim_refault_ratio = []
    for scenario in scenarios:
        base = by_key[(scenario, "LRU+CFS")]
        ice = by_key[(scenario, "Ice")]
        acclaim = by_key[(scenario, "Acclaim")]
        assert base.refault > 0
        ice_refault_ratio.append(ice.refault / base.refault)
        ice_reclaim_ratio.append(ice.reclaim / base.reclaim)
        acclaim_refault_ratio.append(acclaim.refault / base.refault)

    mean = lambda xs: sum(xs) / len(xs)
    # Ice slashes refaults in every scenario.
    assert all(ratio < 0.6 for ratio in ice_refault_ratio)
    # ... and reduces total reclaim substantially (paper: to ~70%).
    assert mean(ice_reclaim_ratio) < 0.85
    # Acclaim does not meaningfully reduce refaults (FAE targets FG ones).
    assert mean(acclaim_refault_ratio) > 0.75


# Table 5.  Paper: power-manager freezing cuts refaults, Ice's
# memory-aware freezing more so in every scenario.
def test_table5_power_manager_vs_ice(figures):
    cells = _rows(figures, "table5")
    by_key = {(c.scenario, c.policy): c for c in cells}
    scenarios = sorted({c.scenario for c in cells})

    pm_better_than_base = 0
    ice_beats_pm = 0
    for scenario in scenarios:
        base = by_key[(scenario, "LRU+CFS")]
        pm = by_key[(scenario, "PowerManager")]
        ice = by_key[(scenario, "Ice")]
        if pm.refault < base.refault:
            pm_better_than_base += 1
        if ice.refault <= pm.refault:
            ice_beats_pm += 1
    # The power manager helps in most scenarios...
    assert pm_better_than_base >= len(scenarios) - 1
    # ... but Ice is at least as good everywhere (paper: strictly better).
    assert ice_beats_pm >= len(scenarios) - 1


# §6.2.2.  Paper: Ice cuts I/O by 9.2% and CPU from 55.8% to 47.3%.
def test_sec622_io_cpu_pressure(figures):
    outcome = figures["sec622"]
    # Ice must not *add* I/O, and should reduce it.
    assert outcome["io_reduction"] > 0.0
    # CPU utilization drops with Ice (paper: ~8.5 points).
    assert outcome["cpu_ice"] < outcome["cpu_baseline"]
    # ZRAM compression/decompression churn also drops.
    assert outcome["ice"]["zram_ops"] < outcome["baseline"]["zram_ops"]


# Figure 11 / §6.3.  Paper: average and cold launches improve with Ice,
# more apps stay cached (b); the worst case is ~2x a normal hot launch.
def test_fig11_launching(figures):
    results = {row.policy: row for row in _rows(figures, "fig11a")}
    hot_launches = {row.policy: row.hot_launches
                    for row in _rows(figures, "fig11b")}
    base = results["LRU+CFS"]
    ice = results["Ice"]

    # (a) average launch latency does not regress with Ice; cold
    # launches improve (less interference during the launch path).
    assert ice.average_ms <= base.average_ms * 1.05
    assert ice.cold_ms <= base.cold_ms * 1.05
    # Under Ice, hot launches are far cheaper than cold ones.  (The
    # thrashing baseline's hot launches refault their nucleus through a
    # congested flash queue and can even exceed its cold latency — a
    # model artifact documented in EXPERIMENTS.md, so no cold/hot-ratio
    # check is made on the baseline.)
    assert ice.cold_ms > ice.hot_ms * 2
    assert ice.hot_ms < base.hot_ms
    # (b) at least as many apps stay hot-launchable with Ice.
    assert hot_launches["Ice"] >= hot_launches["LRU+CFS"]


def test_fig11_worst_case_hot_launch(figures):
    from repro.experiments.launch_study import WorstCaseResult

    outcome = WorstCaseResult(**figures["sec631"])
    # Slower than a normal hot launch, but nowhere near a cold launch.
    assert 1.2 < outcome.slowdown < 20.0


# §6.4.  Paper: the 20 x 3 mapping table costs ~10 KB (its per-field
# accounting sums to 9,020 B), bounded at 32 KB; indexing is µs-level;
# a thaw costs tens of ms.
def test_sec641_mapping_table_memory():
    from repro.experiments.overhead import mapping_table_overhead

    result = mapping_table_overhead(apps=20, processes_per_app=3)
    assert result.measured_bytes == result.paper_bytes
    assert result.measured_bytes < 14 * 1024  # "ten-KB level"
    assert result.bound_bytes == 32 * 1024


def test_sec642_indexing_is_microsecond_level():
    from repro.experiments.overhead import indexing_overhead

    table_result = indexing_overhead(lookups=50_000)
    assert table_result.us_per_lookup < 50.0


def test_sec642_thaw_latency_tens_of_ms():
    from repro.experiments.overhead import thaw_latency_ms

    assert 10.0 <= thaw_latency_ms(processes=3) <= 100.0


# Ablations of Ice's design choices (repro.experiments.ablations).
@pytest.mark.xfail(
    strict=True,
    reason="a thawed-launch count cannot tell the policies apart: Ice "
           "thawed before 14 of its 16 hot launches and FreezeAll before "
           "14 of 14, so 14 < 14 fails",
)
def test_ablation_selective_vs_aggressive_freezing(figures):
    rows = {row.policy: row for row in _rows(figures, "ablation-freezing")}
    ice_thawed = rows["Ice"].thawed
    all_thawed = rows["FreezeAll"].thawed
    # Ice's selectivity: far fewer launches pay the thaw penalty.
    assert ice_thawed < all_thawed


def test_ablation_mdt_delta(figures):
    """Smaller δ -> shorter freeze periods -> more BG refaults leak."""
    results = {row.policy: row for row in _rows(figures, "ablation-delta")}
    default = results["Ice"]
    weak = results["Ice-delta1"]
    # Thawing 8x more often must admit more refaults.
    assert weak.refault > default.refault


def test_ablation_whitelist_protects_perceptible(figures):
    """A perceptible (music-playing) BG app must never be frozen."""
    frozen = figures["ablation-whitelist"]["frozen"]
    assert frozen == []  # never frozen, no matter how much it refaults
