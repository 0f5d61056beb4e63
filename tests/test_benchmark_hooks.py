"""The benchmark's trace hooks still find every name they wrap.

``perfbench/tracing.py`` patches simulator and control-plane functions
by module, class and attribute name, and ``perfbench/simload.py`` /
``fleetload.py`` call a few more directly.  A refactor that deletes or
renames one of them breaks ``perfbench/run.py --trace 1`` with an
``AttributeError`` long after tier-1 has passed; this test catches it
here.  It loads ``tracing.py`` as it is, without modifying it.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Names the benchmark uses outside the entry-point tables:
# (module, class or None, attribute).
DIRECT_NAMES = (
    ("repro.bench.runner", None, "_run_cell"),
    ("repro.bench.runner", None, "BenchConfig"),
    ("repro.bench.runner", None, "run_scenario"),
    ("repro.experiments.scenarios", None, "run_scenario"),
    ("repro.system", "MobileSystem", "reset_measurements"),
    ("repro.sim.engine", "Simulator", "schedule_at"),
    ("repro.sim.engine", "Simulator", "every"),
    ("repro.kernel.mm", "MemoryManager", "shrink"),
    ("repro.serve.workers", None, "execute_request"),
)


@pytest.fixture(scope="module")
def tracing():
    """``perfbench/tracing.py`` imported the way ``run.py`` imports it
    (its directory on ``sys.path`` for ``common``)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracing", PERFBENCH / "tracing.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def _resolve(module_name, class_name, attr):
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = inspect.getattr_static(owner, class_name)
    return inspect.getattr_static(owner, attr)


def test_every_traced_entry_point_resolves(tracing):
    entries = tracing.SIM_ENTRY_POINTS + tracing.SERVE_ENTRY_POINTS
    assert len(entries) == 29
    missing = []
    for module_name, class_name, attr, _label in entries:
        try:
            _resolve(module_name, class_name, attr)
        except AttributeError:
            missing.append(f"{module_name}.{class_name or ''}.{attr}")
    assert missing == []


@pytest.mark.parametrize(
    "module_name,class_name,attr", DIRECT_NAMES,
    ids=[".".join(filter(None, name)) for name in DIRECT_NAMES],
)
def test_names_used_by_the_workloads_resolve(module_name, class_name, attr):
    _resolve(module_name, class_name, attr)
