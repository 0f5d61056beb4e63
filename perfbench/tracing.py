"""In-memory span recorder and the wrappers that feed it.

The benchmark traces the program from outside: it replaces public
functions of each layer with wrappers that record a span (name, start,
end, parent span, owning cell or job) around the original call.
Spans live in flat arrays while the process runs and are written once,
at exit, as one JSON header line followed by the raw arrays.

Simulator event callbacks are attributed to the module that defined
them by wrapping every ``fn`` handed to ``Simulator.schedule_at`` (which
``schedule`` delegates to) and ``Simulator.every``.  The engine's own
periodic re-arm closure is left unwrapped, so its cost stays in
``sim.run_until``'s self time as dispatch work.

Timestamps come from ``time.monotonic`` (CLOCK_MONOTONIC), the clock
asyncio's ``loop.time()`` reads, so spans from the coordinator, the node
and its pool worker line up with the client and with job documents.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import math
import os
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional

from common import self_times

_NAN = math.nan
_ARRAYS = (("start", "d"), ("end", "d"), ("name", "i"), ("parent", "i"),
           ("owner", "i"))


class Recorder:
    """Spans of one process, as parallel arrays indexed by open order."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.owners: List[str] = [""]  # index 0: no owning cell or job
        self.counters: Dict[str, Dict[str, float]] = {}
        for attr, code in _ARRAYS:
            setattr(self, attr, array(code))
        self.current = contextvars.ContextVar("perfbench_span", default=-1)
        self.owner_var = contextvars.ContextVar("perfbench_owner", default=0)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def set_owner(self, label: str) -> contextvars.Token:
        self.owners.append(label)
        return self.owner_var.set(len(self.owners) - 1)

    def owner_label(self) -> str:
        return self.owners[self.owner_var.get()]

    def add_counters(self, values: Dict[str, float]) -> None:
        acc = self.counters.setdefault(self.owner_label(), {})
        for key, value in values.items():
            acc[key] = acc.get(key, 0) + value

    def clear(self) -> None:
        """Forget every span in place (wrappers keep their array aliases)."""
        for attr, _ in _ARRAYS:
            del getattr(self, attr)[:]
        del self.owners[1:]
        self.counters.clear()
        self.current.set(-1)
        self.owner_var.set(0)

    # ------------------------------------------------------------------
    def wrap(self, label: str, fn: Callable, meta: bool = True) -> Callable:
        """``fn`` with a span named ``label`` around every call.

        ``meta=False`` skips copying ``fn``'s name and docstring, for
        the per-event callback wrappers made on the simulator hot path.
        """
        nid = self.name_id(label)
        starts, ends, names = self.start, self.end, self.name
        parents, owners = self.parent, self.owner
        current, owner_var = self.current, self.owner_var
        clock = time.monotonic

        if inspect.iscoroutinefunction(fn):
            async def traced_async(*args, **kwargs):
                idx = len(starts)
                starts.append(clock())
                ends.append(_NAN)
                names.append(nid)
                parents.append(current.get())
                owners.append(owner_var.get())
                token = current.set(idx)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    current.reset(token)
                    ends[idx] = clock()
            return functools.wraps(fn)(traced_async)

        def traced(*args, **kwargs):
            idx = len(starts)
            starts.append(clock())
            ends.append(_NAN)
            names.append(nid)
            parents.append(current.get())
            owners.append(owner_var.get())
            token = current.set(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                current.reset(token)
                ends[idx] = clock()
        return functools.wraps(fn)(traced) if meta else traced

    def patch(self, owner, attr: str, label: str) -> None:
        """Replace ``owner.attr`` (class or module) with a traced wrapper."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(label, raw.__func__)))
        else:
            setattr(owner, attr, self.wrap(label, raw))

    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        header = {
            "pid": self.pid,
            "names": self.names,
            "owners": self.owners,
            "counters": self.counters,
            "count": len(self.start),
        }
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for attr, _ in _ARRAYS:
                getattr(self, attr).tofile(handle)
        os.replace(tmp, path)


class SpanSet:
    """Spans read back from one process's dump (or a live recorder)."""

    def __init__(self, names, owners, counters, arrays) -> None:
        self.names = names
        self.owners = owners
        self.counters = counters
        self.start, self.end, self.name, self.parent, self.owner = arrays
        self._self: Optional[List[float]] = None

    @classmethod
    def load(cls, path: str) -> "SpanSet":
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            arrays = []
            for _, code in _ARRAYS:
                column = array(code)
                column.fromfile(handle, header["count"])
                arrays.append(column)
        return cls(header["names"], header["owners"], header["counters"],
                   arrays)

    @classmethod
    def of(cls, rec: Recorder) -> "SpanSet":
        return cls(rec.names, rec.owners, rec.counters,
                   [getattr(rec, attr) for attr, _ in _ARRAYS])

    def self_s(self) -> List[float]:
        if self._self is None:
            self._self = self_times(self.start, self.end, self.parent)
        return self._self

    def totals(self, since: float = -math.inf,
               until: float = math.inf) -> Dict[str, Dict[str, float]]:
        """Per span name: closed-span count, total and self seconds.

        Only spans that start inside ``[since, until]`` are counted.
        """
        own = self.self_s()
        out: Dict[str, Dict[str, float]] = {}
        for i, nid in enumerate(self.name):
            if math.isnan(own[i]) or not since <= self.start[i] <= until:
                continue
            row = out.get(self.names[nid])
            if row is None:
                row = out[self.names[nid]] = {"count": 0, "total_s": 0.0,
                                              "self_s": 0.0}
            row["count"] += 1
            row["total_s"] += self.end[i] - self.start[i]
            row["self_s"] += own[i]
        return out

    def durations_by_owner(self, label: str) -> Dict[str, float]:
        """Duration of the (last closed) span ``label`` for each owner."""
        nid = self.names.index(label) if label in self.names else -1
        out: Dict[str, float] = {}
        for i, name in enumerate(self.name):
            if name == nid and not math.isnan(self.end[i]):
                out[self.owners[self.owner[i]]] = self.end[i] - self.start[i]
        return out


def merge_totals(parts: Iterable[Dict[str, Dict[str, float]]]):
    out: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for name, row in part.items():
            acc = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            for key, value in row.items():
                acc[key] += value
    return out


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
# (module, class or None, attribute, span name).  The per-layer metrics
# are built from these spans in simload.sim_layers and
# fleetload.fleet_layers.
SIM_ENTRY_POINTS = (
    ("repro.sim.engine", "Simulator", "run_until", "sim.run_until"),
    ("repro.experiments.scenarios", None, "stage_background",
     "experiments.stage_background"),
    ("repro.sched.cfs", "CfsScheduler", "tick", "sched.tick"),
    ("repro.android.activity_manager", "ActivityManager", "launch",
     "android.launch"),
    ("repro.kernel.page_fault", "PageFaultHandler", "handle", "kernel.fault"),
    ("repro.kernel.page_fault", "PageFaultHandler", "handle_id",
     "kernel.fault"),
    ("repro.kernel.mm", "MemoryManager", "shrink", "kernel.shrink"),
    ("repro.kernel.reclaim", "Kswapd", "run_quantum", "kernel.kswapd"),
    ("repro.storage.zram", "ZramDevice", "store", "storage.zram"),
    ("repro.storage.zram", "ZramDevice", "load", "storage.zram"),
    ("repro.storage.flash", "FlashDevice", "read", "storage.flash"),
    ("repro.storage.flash", "FlashDevice", "write", "storage.flash"),
    ("repro.storage.block", "BlockQueue", "submit", "storage.block"),
    ("repro.core.ice", "IcePolicy", "before_launch", "core.ice"),
    ("repro.core.ice", "IcePolicy", "on_foreground_change", "core.ice"),
    ("repro.core.ice", "IcePolicy", "on_app_started", "core.ice"),
    ("repro.core.ice", "IcePolicy", "on_app_killed", "core.ice"),
    ("repro.core.ice", "IcePolicy", "_on_refault", "core.ice"),
    ("repro.core.rpf", "RefaultDrivenFreezer", "handle_refault", "core.rpf"),
    ("repro.obs.psi", "PsiMonitor", "record", "obs.psi"),
    ("repro.obs.psi", "PsiMonitor", "tick", "obs.psi"),
)

SERVE_ENTRY_POINTS = (
    ("repro.fleet.coordinator", "Coordinator", "_handle_submit",
     "coordinator.submit"),
    # The coordinator's own binding: node heartbeats stay untraced.
    ("repro.fleet.coordinator", None, "async_request", "transport.proxy"),
    ("repro.fleet.routing", "HashRing", "route", "fleet.route"),
    ("repro.fleet.ratelimit", "TenantRateLimiter", "admit", "fleet.admit"),
    ("repro.serve.spec", "RunRequest", "from_dict", "spec.from_dict"),
    ("repro.serve.spec", "RunRequest", "cache_key", "spec.cache_key"),
    ("repro.serve.state", "ServerState", "submit", "state.submit"),
    ("repro.serve.cache", "ResultCache", "get", "cache.get"),
)


def _patch_all(rec: Recorder, entry_points) -> None:
    import importlib

    for module_name, class_name, attr, label in entry_points:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        rec.patch(owner, attr, label)


def _cell_counters(system) -> Dict[str, float]:
    """Counters ``reset_measurements`` zeroes, read before it does."""
    vm = system.mm.vmstat
    return {
        "kernel.faults": vm.pgfault,
        "kernel.pgsteal": vm.pgsteal,
        "kernel.refaults": vm.refault_total,
        "storage.zram_stores": system.zram.stores,
        "storage.zram_loads": system.zram.loads,
        "storage.flash_pages": system.flash.stats.total_pages,
    }


def install_sim_hooks(rec: Recorder) -> None:
    """Trace the simulator's layers; call before any ``System`` exists."""
    from repro.bench import runner
    from repro.experiments import scenarios
    from repro.kernel.mm import MemoryManager
    from repro.sim.engine import Simulator
    from repro.system import MobileSystem

    _patch_all(rec, SIM_ENTRY_POINTS)

    labels: Dict[str, str] = {}

    def traced_callback(fn):
        module = getattr(fn, "__module__", None) or "unknown"
        if module == "repro.sim.engine":
            return fn  # the periodic re-arm closure: dispatch work
        label = labels.get(module)
        if label is None:
            label = labels[module] = "cb." + module.replace("repro.", "", 1)
        return rec.wrap(label, fn, meta=False)

    # vmstat.pgscan is never incremented; each reclaim pass returns the
    # pages it scanned, so pgscan is summed from those results.
    shrink = MemoryManager.shrink

    def counted_shrink(self, *args, **kwargs):
        result = shrink(self, *args, **kwargs)
        rec.add_counters({"kernel.pgscan": result.scanned})
        return result

    MemoryManager.shrink = counted_shrink

    schedule_at = Simulator.schedule_at
    every = Simulator.every

    def traced_schedule_at(self, when, fn, *args):
        return schedule_at(self, when, traced_callback(fn), *args)

    def traced_every(self, interval, fn, *args, first_delay=None):
        return every(self, interval, traced_callback(fn), *args,
                     first_delay=first_delay)

    Simulator.schedule_at = traced_schedule_at
    Simulator.every = traced_every

    reset = MobileSystem.reset_measurements

    def traced_reset(self):
        rec.add_counters(_cell_counters(self))
        reset(self)
        rec.counters[rec.owner_label()]["_measure_start"] = time.monotonic()

    MobileSystem.reset_measurements = traced_reset

    run_scenario = rec.wrap("experiments.run_scenario", scenarios.run_scenario)

    def traced_run_scenario(*args, **kwargs):
        result = run_scenario(*args, **kwargs)
        end = time.monotonic()
        system = result.system
        stats = system.frame_engine.stats
        counters = _cell_counters(system)
        counters.update({
            "sim.events": system.sim.events_executed,
            "android.frames": stats.completed + stats.dropped,
            "android.lmk_kills": system.lmk.kill_count,
            "core.freezes": system.freezer.freeze_count,
        })
        acc = rec.counters.setdefault(rec.owner_label(), {})
        counters["experiments.measure_s"] = end - acc.pop("_measure_start")
        rec.add_counters(counters)
        return result

    # The bench runner holds its own binding from import time.
    scenarios.run_scenario = runner.run_scenario = traced_run_scenario


def install_serve_hooks(rec: Recorder, spans_path: str) -> None:
    """Trace the control plane; pool workers dump to ``<path>.<pid>``."""
    import multiprocessing.util

    from repro.serve import workers

    _patch_all(rec, SERVE_ENTRY_POINTS)
    execute = rec.wrap("workers.execute", workers.execute_request)

    def traced_execute(payload):
        if os.getpid() != rec.pid:
            # First job in a forked pool worker: drop the parent's spans
            # and write this process's own when the worker exits.
            rec.pid = os.getpid()
            rec.clear()
            multiprocessing.util.Finalize(
                rec, rec.dump, args=(f"{spans_path}.{rec.pid}",),
                exitpriority=100,
            )
        token = rec.set_owner(payload[0])
        try:
            return execute(payload)
        finally:
            rec.owner_var.reset(token)

    functools.update_wrapper(traced_execute, workers.execute_request)
    workers.execute_request = traced_execute
