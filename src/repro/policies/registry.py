"""Policy registry: name → factory for all evaluated schemes.

The built-in factories import their policy's module on first use: a
policy module imports the simulator's app, page and task types, and
the names alone are what request validation and the CLI parser need.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List

if TYPE_CHECKING:
    from repro.policies.base import ManagementPolicy


# Paper name -> (module, class) of each built-in policy.
_BUILTINS = {
    "LRU+CFS": ("repro.policies.lru_cfs", "LruCfsPolicy"),
    "UCSG": ("repro.policies.ucsg", "UcsgPolicy"),
    "Acclaim": ("repro.policies.acclaim", "AcclaimPolicy"),
    "Ice": ("repro.core.ice", "IcePolicy"),
    "PowerManager": ("repro.policies.power_freezer", "PowerFreezerPolicy"),
}


def _builtin(module: str, cls: str) -> Callable[[], ManagementPolicy]:
    """Factory for ``module.cls()`` that imports ``module`` when called."""

    def factory() -> ManagementPolicy:
        return getattr(importlib.import_module(module), cls)()

    return factory


_REGISTRY: Dict[str, Callable[[], ManagementPolicy]] = {
    name: _builtin(module, cls) for name, (module, cls) in _BUILTINS.items()
}


def import_builtin_policies() -> None:
    """Import every built-in policy's module now instead of on first use.

    A serve node calls this before it forks its pool, so the workers
    inherit the policies along with the rest of the simulator.
    """
    for module, _cls in _BUILTINS.values():
        importlib.import_module(module)


def available_policies() -> List[str]:
    """Names accepted by :func:`make_policy`."""
    return list(_REGISTRY)


def register_policy(name: str, factory: Callable[[], ManagementPolicy]) -> None:
    """Register an out-of-tree policy (experiments, ablations).

    Raises ``ValueError`` on a duplicate name — silently shadowing a
    paper policy would corrupt every comparison table.
    """
    if name in _REGISTRY:
        raise ValueError(f"policy {name!r} already registered")
    _REGISTRY[name] = factory


@contextmanager
def temporary_policy(
    name: str, factory: Callable[[], ManagementPolicy]
) -> Iterator[str]:
    """Register ``factory`` under ``name`` for the duration of a block.

    The registration is removed on exit even if the block raises, so
    tests exercising out-of-tree policies cannot leak entries across
    the suite (a leaked entry makes the *next* in-process registration
    of the same name explode with the duplicate-name ``ValueError``).
    """
    register_policy(name, factory)
    try:
        yield name
    finally:
        _REGISTRY.pop(name, None)


def make_policy(name: str) -> ManagementPolicy:
    """Instantiate a fresh policy by its paper name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise KeyError(f"unknown policy {name!r}; known: {known}") from None
    return factory()
