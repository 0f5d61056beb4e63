"""The benchmark's trace hooks still find every name they wrap.

``perfbench/tracing.py`` patches simulator and control-plane functions
by module, class and attribute name, and ``perfbench/simload.py`` /
``fleetload.py`` call a few more directly.  A refactor that deletes or
renames one of them breaks ``perfbench/run.py --trace 1`` with an
``AttributeError`` long after tier-1 has passed; this test catches it
here.  It loads ``tracing.py`` as it is, without modifying it.

``fleetload.py`` also boots the fleet through the CLI and drives it
through ``ServeClient``: the argv it passes must parse, and the client
calls it makes must bind.
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


def _load(name):
    """``perfbench/<name>.py`` imported the way ``run.py`` imports it
    (its directory on ``sys.path`` for ``common``)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", PERFBENCH / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


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


class _Booted(Exception):
    """Stops ``Fleet.boot`` once both processes were asked for."""


def test_fleet_boot_argv_parses(tmp_path, monkeypatch):
    from repro.__main__ import build_parser

    fleetload = _load("fleetload")
    argvs = {}

    def spawn(self, role, args):
        argvs[role] = args
        if role == "node":
            raise _Booted
        return object(), "http://127.0.0.1:9"

    monkeypatch.setattr(fleetload.Fleet, "_spawn", spawn)
    with pytest.raises(_Booted):
        fleetload.Fleet(str(tmp_path), {}, "boot").boot()
    assert set(argvs) == {"coordinator", "node"}
    parser = build_parser()
    coordinator = parser.parse_args(argvs["coordinator"])
    assert coordinator.command == "coordinator"
    assert coordinator.ratelimit_rps == fleetload.RATELIMIT_RPS
    node = parser.parse_args(argvs["node"])
    assert node.command == "serve"
    assert (node.workers, node.node_id) == (1, "n1")
    assert node.coordinator == "http://127.0.0.1:9"


def test_client_calls_used_by_the_workloads_bind():
    from repro.serve.client import ServeClient

    client = ServeClient("http://127.0.0.1:9", timeout_s=60.0)
    signature = inspect.signature
    signature(client.submit).bind(
        {"scenario": "S-A"}, tenant="tenant-0", progress_interval_ms=1000.0
    )
    signature(client.events).bind("run-1", timeout_s=60.0)
    signature(client.get).bind("run-1")
    signature(client.stats).bind()
    signature(client.healthz).bind()
