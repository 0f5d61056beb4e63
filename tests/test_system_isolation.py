"""Simulation state belongs to one ``MobileSystem``.

Every system owns its page slab (inside its memory manager), its pid and
uid sequences and its scheduler's tid sequence, so a run's result is a
function of its inputs by construction: another system built, run, or
left half-finished in the same process cannot change it.  These tests
hold that from three sides — a run started from inside another run, two
systems advanced in turns, and workingset shadow shedding — and check
that a serve pool worker frees a finished run's system before the next.
"""

import gc
import weakref

from repro.apps.catalog import get_profile
from repro.experiments import scenarios
from repro.experiments.scenarios import run_scenario
from repro.kernel.workingset import SHADOW_ENTRY_BYTES
from repro.serve import workers
from repro.serve.spec import RunRequest
from repro.system import MobileSystem

from tests.conftest import make_small_spec

GIB = 1024 * 1024 * 1024


def test_run_nested_in_another_run_matches_both_runs_alone():
    outer_args = dict(
        scenario="S-A", policy="Ice", bg_case="bg-apps", seed=7,
        seconds=3.0, settle_s=1.0, sample_interval_ms=1000.0,
    )
    inner_args = dict(
        scenario="S-B", policy="LRU+CFS", bg_case="bg-null", seed=3,
        seconds=1.0, settle_s=0.5,
    )
    outer_alone = run_scenario(**outer_args).to_dict()
    inner_alone = run_scenario(**inner_args).to_dict()

    nested = []

    def on_sample(now_ms, row):
        if not nested:
            nested.append(run_scenario(**inner_args).to_dict())

    outer = run_scenario(**outer_args, on_sample=on_sample).to_dict()
    assert nested == [inner_alone]
    assert outer == outer_alone
    assert outer["reclaim"] > 0  # the outer run really is under pressure


def _finished_run(scenario, policy, bg_case, seed):
    """A short scenario run whose live system the caller keeps driving."""
    return run_scenario(
        scenario, policy=policy, bg_case=bg_case, seed=seed,
        seconds=1.0, settle_s=0.5,
    ).system


def _stats(system):
    frames = system.frame_engine.stats
    return (
        system.vmstat.snapshot(),
        (frames.completed, frames.dropped, frames.alerts,
         list(frames.fps_timeline)),
    )


def test_two_systems_advanced_in_turns_match_each_run_alone():
    cases = [("S-C", "Ice", "bg-apps", 11), ("S-A", "LRU+CFS", "bg-null", 4)]
    steps = 3
    alone = []
    for case in cases:
        system = _finished_run(*case)
        for _ in range(steps):
            system.run(seconds=1.0)
        alone.append(_stats(system))

    systems = [_finished_run(*case) for case in cases]
    for _ in range(steps):
        for system in systems:
            system.run(seconds=1.0)
    assert [_stats(system) for system in systems] == alone
    assert alone[0][0]["pgsteal_kswapd"] + alone[0][0]["pgsteal_direct"] > 0


def _evicted_pages(system):
    return sum(
        process.page_table.evicted_pages
        for app in system.apps.values()
        for process in app.processes
    )


def test_shadow_shedding_stays_inside_one_system():
    systems = []
    for seed in (1, 2):
        system = MobileSystem(spec=make_small_spec(ram_bytes=3 * GIB), seed=seed)
        system.install_app(get_profile("WhatsApp"))
        record = system.launch("WhatsApp", drive_frames=False)
        assert system.run_until_complete(record, timeout_s=180)
        systems.append(system)
    keeper, shedder = systems
    shedder.mm.workingset.shadow_budget_bytes = 8 * SHADOW_ENTRY_BYTES

    keeper.mm.shrink(64)
    kept = _evicted_pages(keeper)
    assert kept >= 64
    shedder.mm.shrink(64)
    assert shedder.vmstat.workingset_shadow_shed > 0
    assert _evicted_pages(shedder) <= 8
    assert _evicted_pages(keeper) == kept
    assert keeper.vmstat.workingset_shadow_shed == 0


def test_pool_worker_frees_the_previous_system_before_the_next_run(monkeypatch):
    """A finished run's system (and its slab) is cyclic garbage; the
    worker collects it before the next job instead of holding several."""
    systems = []

    def recording_run_scenario(*args, **kwargs):
        result = run_scenario(*args, **kwargs)
        systems.append(weakref.ref(result.system))
        return result

    monkeypatch.setattr(scenarios, "run_scenario", recording_run_scenario)
    request = RunRequest(scenario="S-A", bg_case="bg-null", seconds=1.0,
                         settle_s=0.5, seed=1).to_dict()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for job in ("a", "b"):
            workers.execute_request((job, request, None))
        assert systems[0]() is None
        assert systems[1]() is not None  # nothing collected since
    finally:
        if was_enabled:
            gc.enable()
