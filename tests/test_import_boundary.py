"""The import graph follows the process graph.

The coordinator, the client-side CLI and a node's request validation
never run a simulation, so they must not import the simulator: its
import is most of a cold start.  The simulator, in turn, must not import
the control plane.  A serve node is the one exception on purpose: it
imports the simulator just before it forks its pool, so the workers
start hot.

Each check starts a fresh interpreter, because this test process has
already imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

SIMULATOR = (
    "repro.kernel", "repro.sched", "repro.android", "repro.storage",
    "repro.core", "repro.system", "repro.experiments.scenarios",
)
CONTROL_PLANE = ("repro.serve", "repro.fleet", "repro.bench")

BUILD_CLI_PARSER = """
from repro.__main__ import main
try:
    main(["--help"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""

START_WORKER_FLEET = """
import asyncio
import sys
from repro.serve.workers import WorkerFleet

assert "repro.experiments.scenarios" not in sys.modules

async def start_and_stop():
    fleet = WorkerFleet(size=1)
    fleet.start(asyncio.get_running_loop())
    fleet.shutdown()

asyncio.run(start_and_stop())
"""


def loaded_after(code: str) -> set:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    script = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def under(modules: set, packages) -> list:
    return sorted(
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in packages)
    )


@pytest.mark.parametrize("code", [
    "import repro.fleet.coordinator",
    "import repro.serve.client",
    "import repro.serve.http",
    BUILD_CLI_PARSER,
], ids=["coordinator", "client", "http", "cli-parser"])
def test_control_plane_does_not_import_the_simulator(code):
    assert under(loaded_after(code), SIMULATOR) == []


def test_coordinator_does_not_import_the_node():
    loaded = loaded_after("import repro.fleet.coordinator")
    assert "repro.serve.state" not in loaded
    assert "repro.serve.workers" not in loaded


def test_simulator_does_not_import_the_control_plane():
    loaded = loaded_after("import repro.experiments.scenarios")
    assert "repro.system" in loaded
    assert under(loaded, CONTROL_PLANE) == []
    assert "repro.obs.metrics" not in loaded


def test_worker_fleet_loads_the_simulator_before_it_forks():
    loaded = loaded_after(START_WORKER_FLEET)
    assert "repro.experiments.scenarios" in loaded
    assert "repro.core.ice" in loaded  # the policies come with it


def test_root_package_imports_nothing_until_a_name_is_read():
    assert loaded_after("import repro") == {"repro"}
    loaded = loaded_after("from repro import huawei_p20")
    assert under(loaded, SIMULATOR) == []


def test_documented_package_names_resolve():
    import repro
    from repro import (  # the README quickstart's names
        IcePolicy,
        MobileSystem,
        catalog_apps,
        huawei_p20,
        make_policy,
    )
    from repro.core.ice import IcePolicy as DefiningIcePolicy
    from repro.trace import Sampler, Tracer, write_chrome_trace  # README

    assert Sampler and Tracer and write_chrome_trace
    assert IcePolicy is DefiningIcePolicy
    assert isinstance(make_policy("Ice"), IcePolicy)
    assert MobileSystem.__module__ == "repro.system"
    assert huawei_p20().name == "P20" and catalog_apps()
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    assert set(repro.__all__) <= set(dir(repro))
    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        repro.Nope
