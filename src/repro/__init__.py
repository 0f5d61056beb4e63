"""Reproduction of *ICE: Collaborating Memory and Process Management for
User Experience on Resource-limited Mobile Devices* (EuroSys 2023).

The package provides:

* a simulated resource-limited mobile device
  (:class:`~repro.system.MobileSystem`) — Linux-style memory management
  with LRU reclaim, watermarks, kswapd, ZRAM and flash swap paths,
  refault tracking via shadow entries, a CFS multicore scheduler, and an
  Android-style framework (app lifecycle, LMK, frame pipeline);
* the paper's contribution (:class:`~repro.core.ice.IcePolicy`:
  refault-driven process freezing + memory-aware dynamic thawing) and
  all evaluated baselines (:mod:`repro.policies`);
* experiment harnesses reproducing every table and figure
  (:mod:`repro.experiments`; ``python -m repro figures`` regenerates
  them all into the committed ``FIGURES.json``).

Quickstart::

    from repro import MobileSystem, IcePolicy, huawei_p20, catalog_apps

    system = MobileSystem(spec=huawei_p20(), policy=IcePolicy(), seed=1)
    system.install_apps(catalog_apps())
"""

# Public name -> defining module.  Nothing is imported when the package
# loads: ``import repro.serve.client`` (or any other submodule) must not
# pay for the simulator.  A name's module is imported the first time
# the name is read (PEP 562), so ``from repro import MobileSystem`` still
# works and costs exactly the modules that name needs.
_EXPORTS = {
    "MobileSystem": "repro.system",
    "IcePolicy": "repro.core.ice",
    "IceConfig": "repro.core.config",
    "ManagementPolicy": "repro.policies.base",
    "LruCfsPolicy": "repro.policies.lru_cfs",
    "UcsgPolicy": "repro.policies.ucsg",
    "AcclaimPolicy": "repro.policies.acclaim",
    "PowerFreezerPolicy": "repro.policies.power_freezer",
    "available_policies": "repro.policies.registry",
    "make_policy": "repro.policies.registry",
    "DeviceSpec": "repro.devices.specs",
    "get_device": "repro.devices.specs",
    "pixel3": "repro.devices.specs",
    "pixel4": "repro.devices.specs",
    "huawei_p20": "repro.devices.specs",
    "huawei_p40": "repro.devices.specs",
    "catalog_apps": "repro.apps.catalog",
    "extended_catalog": "repro.apps.catalog",
    "get_profile": "repro.apps.catalog",
}

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
