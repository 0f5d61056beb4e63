"""Tier-2 tests for the time-series sampler and its exporters."""

import json

from repro.apps.catalog import catalog_apps
from repro.system import MobileSystem
from repro.trace.export import write_timeseries_csv, write_timeseries_json
from repro.trace.sampler import ALL_SERIES, Sampler
from repro.trace.tracer import Tracer

import pytest


def _small_system(tracer=None):
    system = MobileSystem(tracer=tracer)
    system.install_apps(catalog_apps())
    return system


def test_sampler_timestamps_align_to_interval():
    system = _small_system()
    # Start mid-interval: ticks must still land on exact multiples.
    system.run_ms(137.0)
    sampler = Sampler(system, interval_ms=50.0).start()
    system.run_ms(400.0)
    assert sampler.sample_count > 0
    assert all(t % 50.0 == 0.0 for t in sampler.times)
    assert sampler.times[0] == 150.0
    # Consecutive samples are exactly one interval apart.
    deltas = [b - a for a, b in zip(sampler.times, sampler.times[1:])]
    assert all(d == 50.0 for d in deltas)


def test_sampler_series_stay_aligned():
    system = _small_system()
    sampler = Sampler(system, interval_ms=100.0).start()
    record = system.launch("WhatsApp")
    system.run_until_complete(record, timeout_s=60.0)
    system.run(seconds=2.0)
    n = sampler.sample_count
    for name in ALL_SERIES:
        assert len(sampler.series[name]) == n, name
    data = sampler.as_dict()
    assert len(data["time_ms"]) == n
    # A launch allocates memory: the resident gauge must move.
    assert max(data["resident_pages"]) > 0


def test_sampler_emits_counter_tracks():
    tracer = Tracer()
    system = _small_system(tracer=tracer)
    sampler = Sampler(system, interval_ms=100.0).start()
    system.run(seconds=1.0)
    counters = {e.name for e in tracer.events if e.ph == "C"}
    assert {"free_mem", "fps", "cpu_utilization"} <= counters
    sampler.stop()
    before = len(tracer.events)
    system.run(seconds=1.0)
    after = [e for e in list(tracer.events)[before:] if e.ph == "C"]
    assert not after  # stop() really disarms the periodic tick


def test_sampler_rejects_bad_interval():
    system = _small_system()
    with pytest.raises(ValueError):
        Sampler(system, interval_ms=0.0)


def test_timeseries_csv_round_trip(tmp_path):
    system = _small_system()
    sampler = Sampler(system, interval_ms=100.0).start()
    system.run(seconds=1.0)
    path = tmp_path / "series.csv"
    rows = write_timeseries_csv(str(path), sampler)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == Sampler.header()
    assert len(lines) == rows + 1
    assert rows == sampler.sample_count


def test_timeseries_json_round_trip(tmp_path):
    system = _small_system()
    sampler = Sampler(system, interval_ms=100.0).start()
    system.run(seconds=1.0)
    path = tmp_path / "series.json"
    count = write_timeseries_json(str(path), sampler)
    data = json.loads(path.read_text())
    assert set(data) == {"time_ms", *ALL_SERIES}
    assert len(data["time_ms"]) == count


def test_stop_flushes_final_partial_interval():
    system = _small_system()
    sampler = Sampler(system, interval_ms=100.0).start()
    record = system.launch("WhatsApp")
    system.run_until_complete(record, timeout_s=60.0)
    system.run_ms(1050.0 - (system.sim.now % 100.0))  # land mid-interval
    assert system.sim.now % 100.0 == 50.0
    before = sampler.sample_count
    sampler.stop()
    # The 50 ms tail between the last aligned tick and "now" is flushed
    # as one final sample instead of being dropped.
    assert sampler.sample_count == before + 1
    assert sampler.times[-1] == system.sim.now
    for name in ALL_SERIES:
        assert len(sampler.series[name]) == sampler.sample_count, name
    # Stopping again (or at an aligned instant) adds nothing.
    sampler.stop()
    assert sampler.sample_count == before + 1


def test_stop_at_aligned_instant_adds_no_duplicate():
    system = _small_system()
    sampler = Sampler(system, interval_ms=100.0).start()
    system.run_ms(500.0)
    count = sampler.sample_count
    sampler.stop()  # now == last tick time: nothing to flush
    assert sampler.sample_count == count


def test_sampler_exports_psi_series():
    from repro.trace.sampler import PSI_SERIES

    assert set(PSI_SERIES) <= set(ALL_SERIES)
    tracer = Tracer()
    system = _small_system(tracer=tracer)
    sampler = Sampler(system, interval_ms=100.0).start()
    record = system.launch("WhatsApp")
    system.run_until_complete(record, timeout_s=60.0)
    system.run(seconds=1.0)
    for name in PSI_SERIES:
        assert len(sampler.series[name]) == sampler.sample_count
        assert all(0.0 <= v <= 100.0 for v in sampler.series[name]), name
    counters = {e.name for e in tracer.events if e.ph == "C"}
    assert {"psi_memory", "psi_io", "psi_cpu"} <= counters


def test_window_open_keeps_every_delta_row_whole(monkeypatch):
    # The measurement window zeroes vmstat and the CPU busy total in the
    # middle of a sample interval.  The row that spans the reset must
    # hold both parts of its interval: no delta goes negative, and each
    # series sums to the counter's pre-reset value plus its final value.
    from repro.experiments.scenarios import BgCase, run_scenario
    from repro.trace.sampler import DELTA_SERIES

    before_reset = {}
    reset = MobileSystem.reset_measurements

    def window_start(self):
        before_reset["vm"] = self.vmstat.copy()
        before_reset["busy_ms"] = self.sched.stats.busy_ms_total
        reset(self)

    monkeypatch.setattr(MobileSystem, "reset_measurements", window_start)
    result = run_scenario(
        "S-A", bg_case=BgCase.APPS, seconds=5.0, sample_interval_ms=1000.0
    )
    sampler, system = result.sampler, result.system
    assert sampler.times[0] == 1000.0  # sampling started at t = 0
    for name in DELTA_SERIES + ("pgsteal",):
        series = sampler.series[name]
        assert min(series) >= 0, name
        expected = getattr(before_reset["vm"], name) + getattr(
            system.vmstat, name
        )
        assert sum(series) == pytest.approx(expected), name
    assert before_reset["vm"].pgsteal > 0  # the reset dropped real work
    starts = [0.0] + sampler.times[:-1]
    busy_ms = sum(
        share * system.sched.cores * (end - start)
        for share, start, end in zip(
            sampler.series["cpu_utilization"], starts, sampler.times
        )
    )
    assert busy_ms == pytest.approx(
        before_reset["busy_ms"] + system.sched.stats.busy_ms_total
    )
    assert system.sampler is None  # stop() detached it
