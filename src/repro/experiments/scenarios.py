"""The four evaluation scenarios and the shared scenario runner.

§2.2.1's scenarios: S-A video call (WhatsApp), S-B short-form-video
switching (TikTok), S-C screen scrolling (Facebook), S-D mobile game
(PUBG Mobile).  Background configurations follow §2.2.2/§2.2.3:

* ``BG-null`` — the target app runs alone;
* ``BG-apps`` — N applications are cached in the BG first (8 on P20,
  6 on Pixel3 — the paper's memory-exhausting populations);
* ``BG-cputester`` — a CPU hog (~20% utilization) with a tiny memory
  footprint replaces the BG apps;
* ``BG-memtester`` — a memory hog with no refault behaviour replaces
  the BG apps.

``run_scenario`` builds a fresh system, stages the background case,
launches the scenario app, lets the system settle, then measures a
window: FPS timeline (per second, Figure 1's series), RIA, vmstat
deltas, CPU utilization and I/O counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from repro.apps.catalog import APP_CATALOG, catalog_apps
from repro.apps.synthetic import cputester_profile, memtester_profile
from repro.devices.specs import MIB, DeviceSpec, get_device, huawei_p20
from repro.experiments.cases import BgCase, SCENARIOS
from repro.policies.registry import make_policy
from repro.sim.rng import RngStream
from repro.system import MobileSystem
from repro.trace.sampler import Sampler
from repro.trace.tracer import SCENARIO_TID, SYSTEM_PID, Tracer

# The paper caches 8 BG apps on the P20 and 6 on the Pixel3 ("to fully
# fill the memory", §6.1 footnote).
DEFAULT_BG_COUNT = {"P20": 8, "Pixel3": 6, "P40": 8, "Pixel4": 8}


class _NullPhase:
    """No-op context manager standing in for tracer spans when disabled."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_PHASE = _NullPhase()


@dataclass
class ScenarioResult:
    """Measurements from one scenario run's window."""

    scenario: str
    policy: str
    device: str
    bg_case: str
    bg_count: int
    seed: int
    fps_timeline: List[int] = field(default_factory=list)
    fps: float = 0.0
    ria: float = 0.0
    frames_completed: int = 0
    frames_dropped: int = 0
    reclaim: int = 0
    refault: int = 0
    refault_fg: int = 0
    refault_bg: int = 0
    pswpin: int = 0
    pswpout: int = 0
    io_read_pages: int = 0
    io_write_pages: int = 0
    direct_reclaims: int = 0
    direct_reclaim_stall_ms: float = 0.0
    cpu_avg: float = 0.0
    cpu_peak: float = 0.0
    lmk_kills: int = 0
    frozen_apps: int = 0
    launch_ms: float = 0.0
    events_executed: int = 0
    # Final PSI state (system-wide pressure files as dicts).
    psi: Dict[str, object] = field(default_factory=dict)
    # Attached when the run was traced/sampled (not part of the scalar
    # result; excluded from to_dict()).
    sampler: Optional[Sampler] = field(default=None, repr=False, compare=False)
    # The live system, for post-run introspection (procfs dumps,
    # determinism checks); excluded from to_dict().
    system: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def bg_refault_share(self) -> float:
        return self.refault_bg / self.refault if self.refault else 0.0

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable scalar view (for ``--json`` and CI diffing)."""
        out: Dict[str, object] = {}
        for f in fields(self):
            if f.name in ("sampler", "system"):
                continue
            out[f.name] = getattr(self, f.name)
        out["bg_refault_share"] = self.bg_refault_share
        return out


def background_packages(
    fg_package: str, count: int, rng: RngStream
) -> List[str]:
    """Pick ``count`` random BG apps from the catalog (never the FG app).

    Mirrors §6.1: "re-select the BG applications from Table 3 randomly"
    each round.
    """
    candidates = [name for name in APP_CATALOG if name != fg_package]
    rng.shuffle(candidates)
    return candidates[:count]


def _memtester_mb(spec: DeviceSpec, fg_package: str) -> int:
    """Size memtester to occupy as much memory as the BG-apps case.

    A cold launch makes ~90% of the virtual footprint resident, so the
    virtual size is scaled up accordingly; the target is to leave only
    ~1.5 high-watermarks of slack once the foreground app is resident
    ("more than 90% of the memory space is unavailable", §2.2.3).
    """
    fg_pages = APP_CATALOG[fg_package].footprint_pages(spec)
    # No slack beyond the foreground app itself: the FG app's working-set
    # growth must evict memtester pages, producing the transient reclaim
    # phase of Figure 1's yellow line.
    resident_target = spec.managed_pages - 0.35 * fg_pages
    virtual_pages = int(resident_target / 0.97)
    virtual_pages = max(virtual_pages, spec.managed_pages // 4)
    return max(64, virtual_pages * spec.memory_scale * 4096 // MIB)


def stage_background(
    system: MobileSystem,
    fg_package: str,
    bg_case: str,
    bg_count: int,
    rng: RngStream,
) -> List[str]:
    """Launch-and-cache the configured background population."""
    if bg_case == BgCase.NULL:
        return []
    if bg_case == BgCase.APPS:
        packages = background_packages(fg_package, bg_count, rng)
    elif bg_case == BgCase.CPUTESTER:
        profile = cputester_profile(cores=system.spec.cores)
        system.install_app(profile)
        packages = [profile.package]
    elif bg_case == BgCase.MEMTESTER:
        profile = memtester_profile(_memtester_mb(system.spec, fg_package))
        system.install_app(profile)
        packages = [profile.package]
    else:
        raise ValueError(f"unknown bg case {bg_case!r}")
    for package in packages:
        record = system.launch(package, drive_frames=False)
        system.run_until_complete(record, timeout_s=240.0)
        system.run(seconds=1.0)
    return packages


def run_scenario(
    scenario: str,
    policy: str = "LRU+CFS",
    spec: Optional[DeviceSpec] = None,
    bg_case: str = BgCase.APPS,
    bg_count: Optional[int] = None,
    seconds: float = 60.0,
    settle_s: float = 5.0,
    seed: int = 42,
    tracer: Optional[Tracer] = None,
    sample_interval_ms: Optional[float] = None,
    on_sample=None,
) -> ScenarioResult:
    """Stage and measure one scenario run.

    ``scenario`` is an id from :data:`SCENARIOS` ("S-A".."S-D") or a
    package name directly.  Passing a :class:`Tracer` wires tracepoints
    through the whole stack for this run; ``sample_interval_ms``
    additionally attaches an aligned time-series :class:`Sampler`
    (returned on ``result.sampler``), and ``on_sample(now_ms, row)`` is
    invoked for every sample as it lands (`repro scenario --watch` rows
    and a served run's progress events).
    """
    spec = spec or huawei_p20()
    fg_package = SCENARIOS.get(scenario, scenario)
    if bg_count is None:
        bg_count = DEFAULT_BG_COUNT.get(spec.name, 8)
    system = MobileSystem(
        spec=spec, policy=make_policy(policy), seed=seed, tracer=tracer
    )
    system.install_apps(catalog_apps())
    rng = system.rng.stream("scenario-bg-selection")

    sampler: Optional[Sampler] = None
    if sample_interval_ms is not None:
        sampler = Sampler(system, interval_ms=sample_interval_ms, tracer=tracer)
        sampler.on_sample = on_sample
        sampler.start()

    def phase(name: str):
        if tracer is None:
            return _NULL_PHASE
        return tracer.span(name, SYSTEM_PID, SCENARIO_TID, cat="scenario")

    with phase("stage-background"):
        stage_background(system, fg_package, bg_case, bg_count, rng)

    with phase("launch-foreground"):
        record = system.launch(fg_package)
        system.run_until_complete(record, timeout_s=240.0)

    with phase("settle"):
        system.run(seconds=settle_s)

    system.reset_measurements()
    stats = system.frame_engine.stats
    mark = (
        stats.completed,
        stats.dropped,
        stats.alerts,
        len(stats.fps_timeline),
    )
    with phase("measure"):
        system.run(seconds=seconds)
    if sampler is not None:
        sampler.stop()

    vm = system.vmstat
    completed = stats.completed - mark[0]
    dropped = stats.dropped - mark[1]
    alerts = stats.alerts - mark[2]
    timeline = stats.fps_timeline[mark[3] :]
    fps = sum(timeline) / len(timeline) if timeline else 0.0
    frozen = 0
    if policy == "Ice":
        frozen = system.policy.frozen_app_count

    return ScenarioResult(
        scenario=scenario,
        policy=policy,
        device=spec.name,
        bg_case=bg_case,
        bg_count=bg_count if bg_case == BgCase.APPS else 0,
        seed=seed,
        fps_timeline=timeline,
        fps=fps,
        ria=alerts / (completed + dropped) if (completed + dropped) else 0.0,
        frames_completed=completed,
        frames_dropped=dropped,
        reclaim=vm.pgsteal,
        refault=vm.refault_total,
        refault_fg=vm.refault_fg,
        refault_bg=vm.refault_bg,
        pswpin=vm.pswpin,
        pswpout=vm.pswpout,
        io_read_pages=system.flash.stats.read_pages,
        io_write_pages=system.flash.stats.write_pages,
        direct_reclaims=vm.direct_reclaim_entries,
        direct_reclaim_stall_ms=vm.direct_reclaim_stall_ms,
        cpu_avg=system.sched.stats.average_utilization,
        cpu_peak=system.sched.stats.peak_utilization,
        lmk_kills=system.lmk.kill_count,
        frozen_apps=frozen,
        launch_ms=record.latency_ms,
        events_executed=system.sim.events_executed,
        psi=system.psi.as_dict(),
        sampler=sampler,
        system=system,
    )


def run_request(
    request,
    tracer: Optional[Tracer] = None,
    sample_interval_ms: Optional[float] = None,
    on_sample=None,
) -> ScenarioResult:
    """Run one ``repro.serve.spec.RunRequest``, or anything with its fields.

    The CLI and a serve worker both map a request to
    :func:`run_scenario` here, so a local run and a served run of the
    same request are the same call.  ``run_scenario`` is looked up when
    this runs, so a wrapper installed on this module sees every run.
    """
    return run_scenario(
        request.scenario,
        policy=request.policy,
        spec=get_device(request.device),
        bg_case=request.bg_case,
        bg_count=request.bg_count,
        seconds=request.seconds,
        settle_s=request.settle_s,
        seed=request.seed,
        tracer=tracer,
        sample_interval_ms=sample_interval_ms,
        on_sample=on_sample,
    )
