"""A virtual ``/proc`` for the simulated device.

Real pressure debugging starts with ``cat /proc/pressure/memory`` and
``cat /proc/meminfo``; this module gives the simulator the same
inspectable surface.  A :class:`ProcFs` renders live files from the
authoritative kernel objects (nothing is cached — every read reflects
the current simulated state):

* ``meminfo`` — totals, free/available, LRU list sizes, swap (ZRAM),
  and the watermarks driving kswapd;
* ``vmstat`` — every :class:`~repro.kernel.vmstat.VmStat` counter;
* ``pressure/memory``, ``pressure/io``, ``pressure/cpu`` — the PSI
  ``some``/``full`` lines from :mod:`repro.obs.psi`;
* ``memcg/<package>/memory.stat`` and ``.../pressure`` — per-app
  residency and per-app PSI (memcg-style breakdowns);
* ``cgroup/freezer`` — which processes the freezer currently holds.

Each file renders both as Linux-flavoured text (:meth:`ProcFs.read`)
and as a JSON-friendly value (:meth:`ProcFs.snapshot`), which is what
the ``python -m repro dump`` subcommand emits.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.kernel.slab import KIND_FILE, PRESENT
from repro.obs import psi as psi_mod

KIB_PER_SIM_PAGE_FACTOR = 4  # one real 4 KiB page = 4 KiB


class ProcFs:
    """Read-only virtual filesystem over one :class:`MobileSystem`."""

    def __init__(self, system):
        self.system = system

    # ------------------------------------------------------------------
    # Path surface
    # ------------------------------------------------------------------
    def paths(self) -> List[str]:
        """All readable paths (per-app entries follow live apps)."""
        fixed = [
            "meminfo",
            "vmstat",
            "pressure/memory",
            "pressure/io",
            "pressure/cpu",
            "cgroup/freezer",
        ]
        for package in sorted(self.system.apps):
            if self.system.apps[package].alive:
                fixed.append(f"memcg/{package}/memory.stat")
                fixed.append(f"memcg/{package}/pressure")
        return fixed

    def read(self, path: str) -> str:
        """Render one file as text; raises ``KeyError`` for unknown paths."""
        if path == "meminfo":
            return self._meminfo_text()
        if path == "vmstat":
            return self._vmstat_text()
        if path.startswith("pressure/"):
            resource = path.split("/", 1)[1]
            if resource in psi_mod.RESOURCES:
                return self.system.psi.pressure_file(resource)
        if path == "cgroup/freezer":
            return self._freezer_text()
        if path.startswith("memcg/"):
            parts = path.split("/")
            if len(parts) == 3:
                _, package, leaf = parts
                app = self.system.apps.get(package)
                if app is not None and leaf == "memory.stat":
                    return self._memcg_stat_text(app)
                if app is not None and leaf == "pressure":
                    return self._memcg_pressure_text(app)
        raise KeyError(f"no such proc file: {path!r} (see paths())")

    def dump_text(self, paths: List[str] = None) -> str:
        """Concatenated ``==> path <==`` sections (the ``tail``-style view)."""
        sections = []
        for path in paths if paths is not None else self.paths():
            sections.append(f"==> {path} <==\n{self.read(path)}")
        return "\n".join(sections)

    # ------------------------------------------------------------------
    # Structured snapshot (what ``dump --format json`` emits)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        system = self.system
        memcg: Dict[str, Any] = {}
        for package in sorted(system.apps):
            app = system.apps[package]
            if not app.alive:
                continue
            memcg[package] = {
                "memory.stat": self._memcg_stat_data(app),
                "pressure": self._memcg_pressure_data(app),
            }
        return {
            "meminfo": self._meminfo_data(),
            "vmstat": system.vmstat.snapshot(),
            "pressure": system.psi.as_dict(),
            "memcg": memcg,
            "cgroup": {"freezer": self._freezer_data()},
        }

    # ------------------------------------------------------------------
    # meminfo
    # ------------------------------------------------------------------
    def _kb(self, sim_pages: float) -> int:
        """Simulated pages → real KiB (one sim page = memory_scale × 4 KiB)."""
        scale = self.system.spec.memory_scale
        return int(sim_pages * scale * KIB_PER_SIM_PAGE_FACTOR)

    def _meminfo_data(self) -> Dict[str, int]:
        system = self.system
        mm = system.mm
        lru = mm.lru
        zram = system.zram
        spec = system.spec
        return {
            "MemTotal_kB": self._kb(mm.managed_pages),
            "MemFree_kB": self._kb(mm.free_pages),
            "MemAvailable_kB": self._kb(mm.available_pages),
            "Active(anon)_kB": self._kb(lru.active_anon),
            "Inactive(anon)_kB": self._kb(lru.inactive_anon),
            "Active(file)_kB": self._kb(lru.active_file),
            "Inactive(file)_kB": self._kb(lru.inactive_file),
            "SwapTotal_kB": self._kb(zram.capacity_pages),
            "SwapFree_kB": self._kb(zram.free_slots),
            "ZramPool_kB": self._kb(zram.pool_pages()),
            "WatermarkHigh_kB": self._kb(spec.high_watermark_pages),
            "WatermarkLow_kB": self._kb(spec.low_watermark_pages),
            "WatermarkMin_kB": self._kb(spec.min_watermark_pages),
        }

    def _meminfo_text(self) -> str:
        lines = []
        for key, kb in self._meminfo_data().items():
            label = key[: -len("_kB")] + ":"
            lines.append(f"{label:<18}{kb:>10} kB")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # vmstat
    # ------------------------------------------------------------------
    def _vmstat_text(self) -> str:
        lines = []
        for name, value in self.system.vmstat.snapshot().items():
            rendered = f"{value:.3f}" if isinstance(value, float) else str(value)
            lines.append(f"{name} {rendered}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # memcg (per-app)
    # ------------------------------------------------------------------
    def _memcg_stat_data(self, app) -> Dict[str, Any]:
        system = self.system
        resident = app.resident_pages()
        total = app.total_pages()
        flags = system.mm.slab.flags
        kind = system.mm.slab.kind
        zram = system.zram
        swapped = sum(
            1
            for process in app.processes
            for i in process.page_table.all_page_ids()
            if not flags[i] & PRESENT and kind[i] != KIND_FILE and zram.contains(i)
        )
        frozen = sum(
            1 for pid in app.pids if system.freezer.is_frozen(pid)
        )
        return {
            "state": app.state.value,
            "uid": app.uid,
            "oom_score_adj": app.adj,
            "processes": len(app.processes),
            "frozen_processes": frozen,
            "resident_pages": resident,
            "resident_kB": self._kb(resident),
            "swapped_pages": swapped,
            "swapped_kB": self._kb(swapped),
            "total_pages": total,
        }

    def _memcg_stat_text(self, app) -> str:
        lines = [f"{k} {v}" for k, v in self._memcg_stat_data(app).items()]
        return "\n".join(lines) + "\n"

    def _memcg_pressure_data(self, app) -> Dict[str, Any]:
        psi = self.system.psi
        now = psi.clock()
        group = psi.groups.get(app.uid)
        if group is None:
            group = psi_mod.PsiGroup(psi.update_ms)  # all-zero rendering
        return {
            resource: group.pressure_dict(resource, now)
            for resource in psi_mod.RESOURCES
        }

    def _memcg_pressure_text(self, app) -> str:
        psi = self.system.psi
        now = psi.clock()
        group = psi.groups.get(app.uid)
        if group is None:
            group = psi_mod.PsiGroup(psi.update_ms)
        sections = []
        for resource in psi_mod.RESOURCES:
            sections.append(f"{resource}:")
            sections.append(group.pressure_file(resource, now).rstrip("\n"))
        return "\n".join(sections) + "\n"

    # ------------------------------------------------------------------
    # freezer cgroup
    # ------------------------------------------------------------------
    def _freezer_data(self) -> Dict[str, Any]:
        system = self.system
        apps = {}
        for package in sorted(system.apps):
            app = system.apps[package]
            if not app.alive:
                continue
            frozen = [pid for pid in app.pids if system.freezer.is_frozen(pid)]
            if frozen:
                apps[package] = {"frozen_pids": frozen, "processes": len(app.pids)}
        return {
            "frozen_processes": len(system.freezer.frozen_pids),
            "freeze_count": system.freezer.freeze_count,
            "thaw_count": system.freezer.thaw_count,
            "apps": apps,
        }

    def _freezer_text(self) -> str:
        data = self._freezer_data()
        lines = [
            f"frozen_processes {data['frozen_processes']}",
            f"freeze_count {data['freeze_count']}",
            f"thaw_count {data['thaw_count']}",
        ]
        for package, entry in data["apps"].items():
            pids = " ".join(str(pid) for pid in entry["frozen_pids"])
            lines.append(
                f"app {package} frozen {len(entry['frozen_pids'])}/"
                f"{entry['processes']} pids {pids}"
            )
        return "\n".join(lines) + "\n"
