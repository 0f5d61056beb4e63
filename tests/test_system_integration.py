"""Integration tests: the fully-wired MobileSystem."""

import pytest

from repro.android.app import AppState
from repro.apps.catalog import catalog_apps, get_profile
from repro.core.ice import IcePolicy
from repro.policies.registry import make_policy
from repro.system import MobileSystem

from tests.conftest import make_small_spec


def small_system(policy=None, seed=7, **spec_overrides):
    system = MobileSystem(
        spec=make_small_spec(**spec_overrides), policy=policy, seed=seed
    )
    return system


@pytest.fixture
def p20ish_system():
    """A mid-size system that can hold a few catalog apps at once."""
    system = MobileSystem(spec=make_small_spec(ram_bytes=3 * 1024 * 1024 * 1024),
                          seed=7)
    return system


def install_small_app(system, package="WhatsApp"):
    return system.install_app(get_profile(package))


def test_cold_launch_brings_app_foreground(p20ish_system):
    system = p20ish_system
    install_small_app(system)
    record = system.launch("WhatsApp", drive_frames=False)
    assert record.style == "cold"
    assert system.run_until_complete(record, timeout_s=120)
    app = system.get_app("WhatsApp")
    assert app.state is AppState.FOREGROUND
    assert app.alive
    assert len(app.processes) == app.profile.process_count
    assert record.latency_ms > 0
    assert app.resident_pages() > 0


def test_second_launch_is_hot(p20ish_system):
    system = p20ish_system
    install_small_app(system, "WhatsApp")
    install_small_app(system, "Skype")
    r1 = system.launch("WhatsApp", drive_frames=False)
    system.run_until_complete(r1, timeout_s=120)
    r2 = system.launch("Skype", drive_frames=False)
    system.run_until_complete(r2, timeout_s=120)
    r3 = system.launch("WhatsApp", drive_frames=False)
    system.run_until_complete(r3, timeout_s=120)
    assert r3.style == "hot"
    assert r3.latency_ms < r1.latency_ms


def test_foreground_switch_demotes_previous(p20ish_system):
    system = p20ish_system
    install_small_app(system, "WhatsApp")
    install_small_app(system, "Skype")
    r1 = system.launch("WhatsApp", drive_frames=False)
    system.run_until_complete(r1, timeout_s=120)
    r2 = system.launch("Skype", drive_frames=False)
    system.run_until_complete(r2, timeout_s=120)
    whatsapp = system.get_app("WhatsApp")
    skype = system.get_app("Skype")
    assert skype.state is AppState.FOREGROUND
    assert whatsapp.state is AppState.CACHED
    assert whatsapp.recency_rank == 0
    assert system.mm.foreground_uid == skype.uid


def test_frame_engine_produces_frames(p20ish_system):
    system = p20ish_system
    install_small_app(system)
    record = system.launch("WhatsApp")  # drive_frames defaults to True
    system.run_until_complete(record, timeout_s=120)
    system.run(seconds=3.0)
    stats = system.frame_engine.stats
    assert stats.completed > 50
    assert stats.average_fps > 20


def test_kill_app_releases_everything(p20ish_system):
    system = p20ish_system
    install_small_app(system)
    record = system.launch("WhatsApp", drive_frames=False)
    system.run_until_complete(record, timeout_s=120)
    app = system.get_app("WhatsApp")
    resident = system.mm.resident_pages
    freed = system.kill_app(app)
    assert freed > 0
    assert app.state is AppState.STOPPED
    assert not app.alive
    assert system.mm.resident_pages == resident - freed
    assert system.foreground_app is None


def test_memory_accounting_invariant_under_load(p20ish_system):
    system = p20ish_system
    for package in ("WhatsApp", "Skype", "PayPal"):
        install_small_app(system, package)
        record = system.launch(package, drive_frames=False)
        system.run_until_complete(record, timeout_s=120)
        system.run(seconds=2.0)
    mm = system.mm
    # resident + free + zram pool must equal managed pages.
    assert mm.resident_pages + mm.free_pages + int(mm.zram.pool_pages()) == (
        mm.managed_pages
    )
    # LRU holds exactly the resident pages.
    assert mm.lru.total == mm.resident_pages


def test_ice_policy_attaches_and_freezes_refaulters():
    system = MobileSystem(
        spec=make_small_spec(ram_bytes=512 * 1024 * 1024),
        policy=IcePolicy(),
        seed=7,
    )
    for package in ("WhatsApp", "Skype", "eBay"):
        system.install_app(get_profile(package))
        record = system.launch(package, drive_frames=False)
        system.run_until_complete(record, timeout_s=120)
        system.run(seconds=1.0)
    system.run(seconds=40.0)
    policy = system.policy
    # Under this much pressure the cached apps must have refaulted and
    # been frozen at least once.
    assert policy.rpf.stats.events_seen > 0
    assert policy.rpf.stats.apps_frozen > 0


def test_kswapd_keeps_free_above_min_watermark_mostly():
    system = MobileSystem(spec=make_small_spec(ram_bytes=512 * 1024 * 1024),
                          seed=7)
    for package in ("WhatsApp", "Skype"):
        system.install_app(get_profile(package))
        record = system.launch(package, drive_frames=False)
        system.run_until_complete(record, timeout_s=120)
    samples = []
    system.sim.every(200.0, lambda: samples.append(system.mm.free_pages))
    system.run(seconds=20.0)
    below = sum(1 for f in samples if f < system.spec.min_watermark_pages)
    assert below / len(samples) < 0.5


def test_policy_registry_builds_working_systems():
    for name in ("LRU+CFS", "UCSG", "Acclaim", "Ice", "PowerManager"):
        system = MobileSystem(
            spec=make_small_spec(ram_bytes=1024 * 1024 * 1024),
            policy=make_policy(name),
            seed=3,
        )
        system.install_app(get_profile("WhatsApp"))
        record = system.launch("WhatsApp", drive_frames=False)
        assert system.run_until_complete(record, timeout_s=120), name


def test_reset_measurements_zeroes_counters(p20ish_system):
    system = p20ish_system
    install_small_app(system)
    record = system.launch("WhatsApp", drive_frames=False)
    system.run_until_complete(record, timeout_s=120)
    system.reset_measurements()
    assert system.vmstat.pgalloc == 0
    assert system.flash.stats.total_requests == 0
    assert system.sched.stats.samples == []


def test_deterministic_given_seed():
    def run():
        system = MobileSystem(
            spec=make_small_spec(ram_bytes=512 * 1024 * 1024), seed=11
        )
        system.install_apps([get_profile("WhatsApp"), get_profile("Skype")])
        for package in ("WhatsApp", "Skype"):
            record = system.launch(package, drive_frames=False)
            system.run_until_complete(record, timeout_s=120)
        system.run(seconds=10.0)
        vm = system.vmstat
        return (vm.pgalloc, vm.pgsteal, vm.refault_total, system.mm.free_pages)

    assert run() == run()


@pytest.mark.parametrize("policy", ["LRU+CFS", "Ice"])
def test_cpuset_follows_the_app_state_at_every_quantum(monkeypatch, policy):
    # The pick reads task.background; the system sets it when a task is
    # added and whenever its app enters or leaves the foreground.  Over
    # launches, cache moves, LMK kills and freezes, it must equal the
    # app state at every quantum.
    from repro.experiments.scenarios import run_scenario
    from repro.sched.cfs import CfsScheduler

    tick = CfsScheduler.tick
    quanta, misplaced = [], []

    def check(sched, when):
        for task in sched.tasks.values():
            process = task.process
            expected = (process is not None
                        and process.app.state is not AppState.FOREGROUND)
            if task.background is not expected:
                misplaced.append((when, sched.sim.now, task.name))

    def checked_tick(self):
        check(self, "before")
        busy = tick(self)
        check(self, "after")
        quanta.append(busy)
        return busy

    monkeypatch.setattr(CfsScheduler, "tick", checked_tick)
    run_scenario("S-D", policy=policy, seconds=4.0, settle_s=1.0, seed=11)
    assert len(quanta) > 1000
    assert misplaced == []
