"""Tests for the baseline policies and the registry."""

import pytest

from repro.apps.catalog import get_profile
from repro.core.ice import IcePolicy
from repro.policies.acclaim import AcclaimPolicy
from repro.policies.lru_cfs import LruCfsPolicy
from repro.policies.power_freezer import PowerFreezerPolicy
from repro.policies.registry import available_policies, make_policy
from repro.policies.ucsg import UcsgPolicy
from repro.system import MobileSystem

from tests.conftest import make_small_spec

GIB = 1024 * 1024 * 1024


def make_system(policy, ram=3 * GIB, seed=5):
    return MobileSystem(spec=make_small_spec(ram_bytes=ram), policy=policy,
                        seed=seed)


def launch(system, package, frames=False):
    if package not in system.apps:
        system.install_app(get_profile(package))
    record = system.launch(package, drive_frames=frames)
    assert system.run_until_complete(record, timeout_s=180)
    return record


def first_page(system, package):
    """The policy-facing view of an app's first page."""
    process = system.get_app(package).processes[0]
    return system.mm.slab.view(process.page_table.all_page_ids()[0])


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_names_match_paper():
    assert available_policies() == [
        "LRU+CFS", "UCSG", "Acclaim", "Ice", "PowerManager",
    ]


def test_registry_instantiates_each():
    assert isinstance(make_policy("LRU+CFS"), LruCfsPolicy)
    assert isinstance(make_policy("UCSG"), UcsgPolicy)
    assert isinstance(make_policy("Acclaim"), AcclaimPolicy)
    assert isinstance(make_policy("Ice"), IcePolicy)
    assert isinstance(make_policy("PowerManager"), PowerFreezerPolicy)


def test_registry_returns_fresh_instances():
    assert make_policy("Ice") is not make_policy("Ice")


def test_registry_unknown_rejected():
    with pytest.raises(KeyError):
        make_policy("SmartSwap")


# ----------------------------------------------------------------------
# LRU+CFS
# ----------------------------------------------------------------------
def test_baseline_installs_no_hooks():
    policy = LruCfsPolicy()
    system = make_system(policy)
    launch(system, "WhatsApp")
    page = first_page(system, "WhatsApp")
    assert policy.reclaim_protect(page) is False


# ----------------------------------------------------------------------
# UCSG
# ----------------------------------------------------------------------
def test_ucsg_boosts_foreground_tasks():
    policy = UcsgPolicy()
    system = make_system(policy)
    launch(system, "WhatsApp")
    launch(system, "Skype")
    skype = system.get_app("Skype")
    whatsapp = system.get_app("WhatsApp")
    fg_boosts = {t.boost for p in skype.processes for t in p.tasks}
    bg_boosts = {t.boost for p in whatsapp.processes for t in p.tasks}
    assert fg_boosts == {UcsgPolicy.FG_BOOST}
    assert bg_boosts == {UcsgPolicy.BG_DEMOTE}


def test_ucsg_pick_key_classes():
    policy = UcsgPolicy()
    system = make_system(policy)
    launch(system, "WhatsApp")
    launch(system, "Skype")
    fg_task = system.get_app("Skype").processes[0].tasks[0]
    bg_task = system.get_app("WhatsApp").processes[0].tasks[0]
    assert policy.sched_pick_key(fg_task) < policy.sched_pick_key(bg_task)


def test_ucsg_sets_bg_slot_limit():
    system = make_system(UcsgPolicy())
    assert system.sched.bg_slot_limit == UcsgPolicy.BG_CONCURRENCY


# ----------------------------------------------------------------------
# Acclaim
# ----------------------------------------------------------------------
def test_acclaim_protects_only_foreground_pages():
    policy = AcclaimPolicy()
    system = make_system(policy)
    launch(system, "WhatsApp")
    launch(system, "Skype")
    fg_page = first_page(system, "Skype")
    bg_page = first_page(system, "WhatsApp")
    assert policy.reclaim_protect(fg_page) is True
    assert policy.reclaim_protect(bg_page) is False


def test_acclaim_ignores_kernel_pages():
    policy = AcclaimPolicy()
    system = make_system(policy)
    from repro.kernel.slab import HEAP_NATIVE, KIND_ANON

    slab = system.mm.slab
    orphan = slab.view(slab.alloc(KIND_ANON, HEAP_NATIVE))
    assert orphan.owner is None
    assert policy.reclaim_protect(orphan) is False


# ----------------------------------------------------------------------
# Power-manager freezer
# ----------------------------------------------------------------------
def test_power_freezer_freezes_energy_hungry_bg_apps():
    policy = PowerFreezerPolicy()
    system = make_system(policy, ram=2 * GIB)
    launch(system, "WeChat")  # chatty in BG
    launch(system, "Skype")
    system.run(seconds=30.0)
    wechat = system.get_app("WeChat")
    assert wechat.uid in policy.frozen_uids or policy.freeze_cycles > 0


def test_power_freezer_skips_when_charging():
    policy = PowerFreezerPolicy()
    system = make_system(policy, ram=2 * GIB)
    system.charging = True
    launch(system, "WeChat")
    launch(system, "Skype")
    system.run(seconds=40.0)
    assert policy.frozen_uids == set()
    wechat = system.get_app("WeChat")
    assert all(not system.freezer.is_frozen(pid) for pid in wechat.pids)


def test_power_freezer_thaws_before_launch():
    policy = PowerFreezerPolicy()
    system = make_system(policy, ram=2 * GIB)
    launch(system, "WeChat")
    launch(system, "Skype")
    system.run(seconds=40.0)
    wechat = system.get_app("WeChat")
    if wechat.alive and wechat.uid in policy.frozen_uids:
        record = system.launch("WeChat", drive_frames=False)
        assert record.thaw_ms > 0
        assert wechat.uid not in policy.frozen_uids


def test_power_freezer_cycles_thaw_everything_periodically():
    policy = PowerFreezerPolicy()
    system = make_system(policy, ram=2 * GIB)
    launch(system, "WeChat")
    launch(system, "Skype")
    # Run to the middle of a thaw window: cycle = 15 s freeze + 5 s thaw.
    system.run(seconds=15.0 + 5.0 + 2.0)
    # At some point in the thaw window nothing is frozen.
    # (We can't assert an instantaneous state easily; assert the cycle ran.)
    assert policy.freeze_cycles >= 1


def test_register_policy_rejects_duplicates():
    from repro.policies import registry

    with pytest.raises(ValueError, match="already registered"):
        registry.register_policy("Ice", LruCfsPolicy)
    # The original factory is untouched.
    assert type(registry.make_policy("Ice")).__name__ == "IcePolicy"


def test_register_policy_adds_usable_name():
    from repro.policies import registry

    name = "TestOnlyPolicy"
    assert name not in registry.available_policies()
    registry.register_policy(name, LruCfsPolicy)
    try:
        assert name in registry.available_policies()
        assert isinstance(registry.make_policy(name), LruCfsPolicy)
    finally:
        registry._REGISTRY.pop(name, None)


def test_temporary_policy_scopes_registration():
    from repro.policies import registry

    name = "ScopedPolicy"
    with registry.temporary_policy(name, LruCfsPolicy) as bound:
        assert bound == name
        assert isinstance(registry.make_policy(name), LruCfsPolicy)
    assert name not in registry.available_policies()


def test_temporary_policy_cleans_up_on_error():
    from repro.policies import registry

    name = "ScopedPolicy"
    with pytest.raises(RuntimeError, match="boom"):
        with registry.temporary_policy(name, LruCfsPolicy):
            raise RuntimeError("boom")
    assert name not in registry.available_policies()
    # The name is reusable immediately — nothing leaked.
    with registry.temporary_policy(name, LruCfsPolicy):
        pass


def test_temporary_policy_rejects_duplicate_of_builtin():
    from repro.policies import registry

    with pytest.raises(ValueError, match="already registered"):
        with registry.temporary_policy("Ice", LruCfsPolicy):
            pass


def test_make_policy_unknown_name_lists_choices():
    from repro.policies import registry

    with pytest.raises(KeyError, match="LRU\\+CFS"):
        registry.make_policy("NoSuchPolicy")
