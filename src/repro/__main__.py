"""Command-line interface: quick experiments without writing code.

Examples::

    python -m repro scenario --scenario S-A --policy Ice --bg 8
    python -m repro scenario --scenario S-A --policy Ice --trace-out ice.trace.json
    python -m repro compare --scenario S-D --seconds 45 --json
    python -m repro trace --scenario S-B --policy Ice --out ice.trace.json
    python -m repro dump --scenario S-B --seconds 15 --format json
    python -m repro watch --scenario S-C --policy Ice --every 1.0
    python -m repro bench --smoke
    python -m repro table1
    python -m repro overhead
    python -m repro serve --port 8080 --workers 4
    python -m repro submit --scenario S-B --policy Ice --seconds 20
    python -m repro coordinator --port 8090 --ratelimit-rps 50
    python -m repro serve --port 8081 --node-id n1 --coordinator http://127.0.0.1:8090
    python -m repro loadtest --url http://127.0.0.1:8090 --requests 200
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from repro.bench.options import add_bench_args
from repro.devices.specs import DEVICES, get_device
from repro.experiments.cases import BgCase, SCENARIOS
from repro.policies.registry import available_policies

if TYPE_CHECKING:
    from repro.trace.tracer import Tracer

# Building the parser imports only the names above.  Each command
# imports what it runs (the simulator, the serve plane, the fleet) when
# it runs, so `repro submit` or `repro coordinator` never loads the
# simulator.

DEFAULT_SAMPLE_MS = 100.0


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default="S-A",
                        choices=sorted(SCENARIOS),
                        help="paper scenario (S-A video call ... S-D game)")
    parser.add_argument("--device", default="P20", choices=list(DEVICES))
    parser.add_argument("--bg", type=int, default=None,
                        help="number of cached BG apps (default: paper's)")
    parser.add_argument("--bg-case", default=BgCase.APPS,
                        choices=list(BgCase.ALL))
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--json", action="store_true",
                        help="emit one machine-readable JSON object per run "
                             "instead of the formatted line")


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="enable tracing and write a Chrome/Perfetto "
                             "trace_event JSON file (open in ui.perfetto.dev)")
    parser.add_argument("--timeseries-out", default=None, metavar="PATH",
                        help="write the sampler's aligned time series "
                             "(.csv → CSV, otherwise JSON)")
    parser.add_argument("--sample-ms", type=float, default=DEFAULT_SAMPLE_MS,
                        help="sampler interval in simulated ms")
    parser.add_argument("--trace-buffer", type=int, default=None,
                        help="trace ring-buffer capacity in events")
    parser.add_argument("--trace-buffer-kb", type=int, default=None,
                        help="trace ring-buffer byte budget in KiB "
                             "(composes with --trace-buffer; whichever "
                             "bound bites first drops the oldest events)")


def _print_result(result) -> None:
    print(
        f"{result.policy:>12} | {result.fps:5.1f} fps | RIA {result.ria:5.1%} | "
        f"refaults {result.refault:6d} (BG {result.bg_refault_share:4.0%}) | "
        f"reclaims {result.reclaim:6d} | LMK kills {result.lmk_kills} | "
        f"frozen {result.frozen_apps}"
    )


def _emit_result(result, as_json: bool) -> None:
    if as_json:
        print(json.dumps(result.to_dict()))
    else:
        _print_result(result)


def _make_tracer(args: argparse.Namespace) -> Tracer:
    from repro.trace.tracer import Tracer

    kwargs = {}
    if getattr(args, "trace_buffer", None):
        kwargs["capacity"] = args.trace_buffer
    if getattr(args, "trace_buffer_kb", None):
        kwargs["capacity_bytes"] = args.trace_buffer_kb * 1024
    if getattr(args, "engine_events", False):
        kwargs["engine_events"] = True
    return Tracer(**kwargs)


def _tracing_requested(args: argparse.Namespace) -> bool:
    return bool(args.trace_out or args.timeseries_out)


def _run_one(args: argparse.Namespace, policy: str, tracer) -> object:
    from repro.experiments.scenarios import run_scenario

    return run_scenario(
        args.scenario,
        policy=policy,
        spec=get_device(args.device),
        bg_case=args.bg_case,
        bg_count=args.bg,
        seconds=args.seconds,
        seed=args.seed,
        tracer=tracer,
        sample_interval_ms=args.sample_ms if tracer is not None else None,
    )


def _write_trace_outputs(
    args: argparse.Namespace, tracer, result, trace_path=None, ts_path=None
) -> None:
    from repro.trace.export import write_chrome_trace, write_timeseries

    trace_path = trace_path or args.trace_out
    ts_path = ts_path or args.timeseries_out
    if trace_path:
        count = write_chrome_trace(
            trace_path, tracer,
            extra_metadata={
                "scenario": result.scenario,
                "policy": result.policy,
                "device": result.device,
                "seed": result.seed,
            },
        )
        print(f"trace: {count} events -> {trace_path} "
              f"(dropped {tracer.dropped_events})", file=sys.stderr)
    if ts_path and result.sampler is not None:
        rows = write_timeseries(ts_path, result.sampler)
        print(f"timeseries: {rows} samples -> {ts_path}", file=sys.stderr)


def _unknown_policy(name: str) -> int:
    """Exit-2 diagnostic for a policy name the registry doesn't know.

    Policies can be registered at runtime (``register_policy``), so the
    CLI validates against the live registry instead of baking the
    choices into argparse — and an unknown name gets the full list
    rather than a raw ``KeyError`` traceback out of ``make_policy``.
    """
    print(
        f"error: unknown policy {name!r}; valid choices: "
        + ", ".join(available_policies()),
        file=sys.stderr,
    )
    return 2


def cmd_scenario(args: argparse.Namespace) -> int:
    if args.policy not in available_policies():
        return _unknown_policy(args.policy)
    tracer = _make_tracer(args) if _tracing_requested(args) else None
    result = _run_one(args, args.policy, tracer)
    _emit_result(result, args.json)
    if tracer is not None:
        _write_trace_outputs(args, tracer, result)
    return 0


def _policy_suffixed(path: str, policy: str) -> str:
    """Insert a filesystem-safe policy tag before the extension."""
    safe = policy.replace("+", "_").replace("/", "_")
    root, ext = os.path.splitext(path)
    return f"{root}.{safe}{ext}" if ext else f"{path}.{safe}"


def _parse_policies(spec: str) -> tuple:
    names = [name.strip() for name in spec.split(",") if name.strip()]
    valid = available_policies()
    unknown = [name for name in names if name not in valid]
    return names, unknown


def cmd_compare(args: argparse.Namespace) -> int:
    names, unknown = _parse_policies(args.policies)
    if not names or unknown:
        bad = ", ".join(repr(name) for name in unknown) or "(none given)"
        print(
            f"error: unknown policy {bad}; valid choices: "
            + ", ".join(available_policies()),
            file=sys.stderr,
        )
        return 2
    for policy in names:
        tracer = _make_tracer(args) if _tracing_requested(args) else None
        result = _run_one(args, policy, tracer)
        _emit_result(result, args.json)
        if tracer is not None:
            # One trace file per policy so runs stay individually loadable.
            _write_trace_outputs(
                args, tracer, result,
                trace_path=(_policy_suffixed(args.trace_out, policy)
                            if args.trace_out else None),
                ts_path=(_policy_suffixed(args.timeseries_out, policy)
                         if args.timeseries_out else None),
            )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one traced scenario and export trace + time series."""
    if args.policy not in available_policies():
        return _unknown_policy(args.policy)
    tracer = _make_tracer(args)
    result = _run_one(args, args.policy, tracer)
    _emit_result(result, args.json)
    _write_trace_outputs(args, tracer, result, trace_path=args.out)
    for name, hist in sorted(tracer.histograms.items()):
        summary = hist.summary()
        # Diagnostics go to stderr so --json keeps stdout machine-readable.
        print(
            f"{name:>28}: n={hist.count:6d} mean={summary['mean']:8.3f} "
            f"p50={summary['p50']:8.3f} p99={summary['p99']:8.3f} "
            f"max={summary['max']:8.3f}",
            file=sys.stderr,
        )
    return 0


def cmd_dump(args: argparse.Namespace) -> int:
    """Run a scenario, then render its virtual /proc (text or JSON)."""
    if args.policy not in available_policies():
        return _unknown_policy(args.policy)
    result = _run_one(args, args.policy, None)
    procfs = result.system.procfs
    if args.format == "json":
        doc = {
            "meta": {
                "scenario": result.scenario,
                "policy": result.policy,
                "device": result.device,
                "bg_case": result.bg_case,
                "seed": result.seed,
                "sim_ms": result.system.sim.now,
            },
            "proc": procfs.snapshot(),
        }
        print(json.dumps(doc, indent=2 if args.pretty else None))
    elif args.paths:
        print(procfs.dump_text(args.paths))
    else:
        print(procfs.dump_text())
    return 0


_WATCH_COLUMNS = (
    # (header, row key, format)
    ("time_s", None, "{:8.1f}"),
    ("free_pg", "free_pages", "{:8.0f}"),
    ("avail_pg", "available_pages", "{:8.0f}"),
    ("fps", "fps", "{:6.1f}"),
    ("cpu%", "cpu_utilization", "{:6.1f}"),
    ("refault", "refault_total", "{:8.0f}"),
    ("pgsteal", "pgsteal", "{:8.0f}"),
    ("mem.some", "psi_mem_some_avg10", "{:8.2f}"),
    ("mem.full", "psi_mem_full_avg10", "{:8.2f}"),
    ("io.some", "psi_io_some_avg10", "{:8.2f}"),
    ("cpu.some", "psi_cpu_some_avg10", "{:8.2f}"),
    ("frozen", "frozen_processes", "{:6.0f}"),
)


def cmd_watch(args: argparse.Namespace) -> int:
    """Run a scenario printing an interval-sampled live table.

    With ``--serve URL`` it instead becomes the live fleet pressure
    console for a running ``repro serve`` instance: periodic
    ``/v1/stats`` polls plus an SSE event tail, rendering queue depth,
    worker utilization, cache hit/eviction rates, latency percentiles,
    and per-tenant rogue scores.
    """
    if args.serve:
        from repro.serve.client import ServeClient
        from repro.serve.console import FleetConsole

        console = FleetConsole(
            ServeClient(args.serve),
            every_s=args.every,
            plain=args.plain,
        )
        return console.run(iterations=args.iterations)
    if args.policy not in available_policies():
        return _unknown_policy(args.policy)
    from repro.experiments.scenarios import run_scenario

    header = " ".join(
        title.rjust(len(fmt.format(0))) for title, _key, fmt in _WATCH_COLUMNS
    )
    print(header)
    state = {"rows": 0}

    def emit(now_ms: float, row: dict) -> None:
        cells = []
        for _title, key, fmt in _WATCH_COLUMNS:
            if key is None:
                value = now_ms / 1000.0
            elif key == "cpu_utilization":
                value = row[key] * 100.0
            else:
                value = row[key]
            cells.append(fmt.format(value))
        print(" ".join(cells))
        state["rows"] += 1
        if state["rows"] % 20 == 0:
            print(header)

    result = run_scenario(
        args.scenario,
        policy=args.policy,
        spec=get_device(args.device),
        bg_case=args.bg_case,
        bg_count=args.bg,
        seconds=args.seconds,
        seed=args.seed,
        sample_interval_ms=args.every * 1000.0,
        on_sample=emit,
    )
    print(f"# {state['rows']} samples over {args.seconds:.0f}s measured window")
    _emit_result(result, args.json)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.runner import main as bench_main

    return bench_main(args)


def cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.bench.compare import run_compare

    return run_compare(args)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation-as-a-service control plane until drained."""
    import asyncio

    from repro.serve.http import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_retries=args.max_retries,
        cache_dir=args.cache_dir,
        drain_grace_s=args.drain_grace,
        default_timeout_s=args.default_timeout,
        cache_budget_bytes=(
            int(args.cache_budget_mb * 1024 * 1024)
            if args.cache_budget_mb else None
        ),
        mem_sample_interval_s=args.mem_sample_every,
        sse_keepalive_s=args.sse_keepalive,
        enable_tracemalloc=args.tracemalloc,
        job_budget_bytes=(
            int(args.job_budget_mb * 1024 * 1024)
            if args.job_budget_mb else None
        ),
        job_min_retention_s=args.job_min_retention,
        max_events_per_job=args.max_job_events or None,
        node_id=args.node_id,
        ratelimit_rps=args.ratelimit_rps,
        ratelimit_burst=args.ratelimit_burst,
    )

    def ready(server) -> None:
        port = server.port if hasattr(server, "port") else server.server.port
        print(
            f"repro-serve listening on http://{config.host}:{port} "
            f"(workers={config.workers}, queue depth={config.queue_depth}, "
            f"cache={'disk:' + config.cache_dir if config.cache_dir else 'memory'})"
            + (f" [fleet node {config.node_id}]" if args.coordinator else ""),
            flush=True,
        )

    try:
        if args.coordinator:
            from repro.fleet.node import run_node

            if not config.node_id:
                print(
                    "error: --coordinator requires --node-id",
                    file=sys.stderr,
                )
                return 2
            asyncio.run(run_node(
                config, args.coordinator,
                advertise_url=args.advertise_url,
                heartbeat_interval_s=args.heartbeat_every,
                ready=ready,
            ))
        else:
            asyncio.run(run_server(config, ready=ready))
    except KeyboardInterrupt:
        pass  # SIGINT before the drain handler was installed
    return 0


def cmd_coordinator(args: argparse.Namespace) -> int:
    """Run the fleet coordinator: membership, routing, admission."""
    import asyncio

    from repro.fleet.coordinator import CoordinatorConfig, run_coordinator

    config = CoordinatorConfig(
        host=args.host,
        port=args.port,
        vnodes=args.vnodes,
        heartbeat_timeout_s=args.heartbeat_timeout,
        sweep_interval_s=args.sweep_every,
        ratelimit_rps=args.ratelimit_rps,
        ratelimit_burst=args.ratelimit_burst,
        proxy_timeout_s=args.proxy_timeout,
    )

    def ready(coordinator) -> None:
        limits = (
            f"{config.ratelimit_rps}/s per tenant"
            if config.ratelimit_rps else "off"
        )
        print(
            f"repro-fleet coordinator on http://{config.host}:"
            f"{coordinator.port} (heartbeat timeout "
            f"{config.heartbeat_timeout_s}s, rate limits {limits})",
            flush=True,
        )

    try:
        asyncio.run(run_coordinator(config, ready=ready))
    except KeyboardInterrupt:
        pass
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Replay a synthetic RunRequest mix; emit LOADTEST_<date>.json."""
    from repro.fleet.loadtest import main as loadtest_main

    return loadtest_main(args)


def _print_served_result(job: dict) -> None:
    result = job["result"]
    origin = "cache" if job.get("cache_hit") else "worker"
    print(
        f"{result['policy']:>12} | {result['fps']:5.1f} fps | "
        f"RIA {result['ria']:5.1%} | refaults {result['refault']:6d} | "
        f"launch {result['launch_ms']:6.0f} ms | LMK {result['lmk_kills']} | "
        f"frozen {result['frozen_apps']} | via {origin}"
    )


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one run to a `repro serve` instance and await the result."""
    from repro.serve.client import QueueFullError, ServeClient, ServeError
    from repro.serve.spec import RunRequest

    if args.policy not in available_policies():
        return _unknown_policy(args.policy)
    request = RunRequest(
        scenario=args.scenario,
        policy=args.policy,
        device=args.device,
        bg_case=args.bg_case,
        bg_count=args.bg,
        seconds=args.seconds,
        seed=args.seed,
    )
    client = ServeClient(args.url)
    progress_ms = args.progress_every * 1000.0 if args.progress_every else None
    try:
        job = client.submit(
            request,
            priority=args.priority,
            timeout_s=args.timeout,
            progress_interval_ms=progress_ms,
            tenant=args.tenant,
            retries=args.retries,
        )
    except QueueFullError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ServeError, ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    job_id = job["id"]
    print(f"run {job_id}: {job['state']}"
          + (" (cache hit)" if job.get("cache_hit") else ""),
          file=sys.stderr)
    if args.no_wait:
        print(json.dumps(job))
        return 0
    try:
        if args.follow and not job.get("cache_hit"):
            # follow() (not events()) so a dropped socket mid-run
            # reconnects from the last absolute cursor.
            for event, data in client.follow(
                job_id, timeout_s=args.wait_timeout
            ):
                print(f"  {event}: {json.dumps(data)}", file=sys.stderr)
            job = client.get(job_id)
        elif job["state"] in ("queued", "running"):
            job = client.wait(job_id, timeout_s=args.wait_timeout)
    except (ServeError, ConnectionError, OSError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if job["state"] != "done":
        print(
            f"run {job_id} {job['state']}: {job.get('error')}",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps(job["result"]))
    else:
        _print_served_result(job)
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.cpu_utilization import format_table1, table1

    rows = table1(seconds=args.seconds, rounds=args.rounds)
    print(format_table1(rows))
    return 0


def cmd_overhead(_args: argparse.Namespace) -> int:
    from repro.experiments.overhead import format_overhead

    print(format_overhead())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ICE (EuroSys'23) reproduction: quick experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scenario = sub.add_parser("scenario", help="run one scenario/policy")
    _add_scenario_args(p_scenario)
    _add_trace_args(p_scenario)
    p_scenario.add_argument("--policy", default="LRU+CFS",
                            help="policy name (see `repro compare` error "
                                 "output for the registered list)")
    p_scenario.set_defaults(func=cmd_scenario)

    p_compare = sub.add_parser("compare", help="run several policies")
    _add_scenario_args(p_compare)
    _add_trace_args(p_compare)
    p_compare.add_argument("--policies", default="LRU+CFS,UCSG,Acclaim,Ice")
    p_compare.set_defaults(func=cmd_compare)

    p_trace = sub.add_parser(
        "trace", help="run one traced scenario and export a Perfetto trace"
    )
    _add_scenario_args(p_trace)
    p_trace.add_argument("--policy", default="Ice")
    p_trace.add_argument("--out", default="repro.trace.json", metavar="PATH",
                         help="Chrome/Perfetto trace_event JSON output path")
    p_trace.add_argument("--timeseries-out", default=None, metavar="PATH",
                         help="also dump the sampler series (.csv or .json)")
    p_trace.add_argument("--sample-ms", type=float, default=DEFAULT_SAMPLE_MS)
    p_trace.add_argument("--trace-buffer", type=int, default=None)
    p_trace.add_argument("--trace-buffer-kb", type=int, default=None)
    p_trace.add_argument("--engine-events", action="store_true",
                         help="include per-callback engine instants "
                              "(high volume)")
    p_trace.set_defaults(func=cmd_trace)

    p_dump = sub.add_parser(
        "dump",
        help="run a scenario, then print its virtual /proc "
             "(meminfo, vmstat, pressure/*, per-app memcg files)",
    )
    _add_scenario_args(p_dump)
    p_dump.add_argument("--policy", default="LRU+CFS")
    p_dump.add_argument("--format", default="text", choices=["text", "json"],
                        help="text: Linux-flavoured proc files; "
                             "json: one structured document")
    p_dump.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")
    p_dump.add_argument("--paths", nargs="*", default=None, metavar="PATH",
                        help="only these proc paths (text mode), e.g. "
                             "pressure/memory memcg/TikTok/memory.stat")
    p_dump.set_defaults(func=cmd_dump, seconds=15.0)

    p_watch = sub.add_parser(
        "watch",
        help="run a scenario printing a live interval-sampled table "
             "(free memory, FPS, PSI avg10s, refaults), or — with "
             "--serve URL — a live fleet pressure console for a "
             "running `repro serve` instance",
    )
    _add_scenario_args(p_watch)
    p_watch.add_argument("--policy", default="LRU+CFS")
    p_watch.add_argument("--every", type=float, default=1.0, metavar="SECONDS",
                         help="sampling interval in simulated seconds "
                              "(with --serve: stats poll interval in "
                              "wall seconds)")
    p_watch.add_argument("--serve", default=None, metavar="URL",
                         help="watch a serve control plane instead of "
                              "running a local scenario")
    p_watch.add_argument("--iterations", type=int, default=None, metavar="N",
                         help="with --serve: render N frames then exit "
                              "(default: until interrupted)")
    p_watch.add_argument("--plain", action="store_true",
                         help="with --serve: append frames instead of "
                              "clearing the screen (log-friendly)")
    p_watch.set_defaults(func=cmd_watch)

    p_bench = sub.add_parser(
        "bench", help="self-profiling benchmark harness (repro.bench)"
    )
    add_bench_args(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    # Nested, non-required: `repro bench` alone still runs the matrix;
    # `repro bench compare OLD NEW` runs the regression gate.
    bench_sub = p_bench.add_subparsers(dest="bench_cmd")
    p_bench_cmp = bench_sub.add_parser(
        "compare", help="diff two BENCH artifacts; exit nonzero on regression"
    )
    p_bench_cmp.add_argument("old", help="baseline BENCH json")
    p_bench_cmp.add_argument("new", help="candidate BENCH json")
    p_bench_cmp.add_argument("--rel-tol", type=float, default=0.0)
    p_bench_cmp.add_argument("--abs-tol", type=float, default=0.0)
    p_bench_cmp.add_argument("--perf-rel-tol", type=float, default=0.25)
    p_bench_cmp.add_argument("--fail-on-perf", action="store_true")
    p_bench_cmp.set_defaults(func=cmd_bench_compare)

    p_serve = sub.add_parser(
        "serve",
        help="run the HTTP control plane: queue, worker fleet, "
             "result cache (repro.serve)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="listen port (0 = ephemeral)")
    p_serve.add_argument("--workers", type=int, default=2, metavar="N",
                         help="simulation worker processes")
    p_serve.add_argument("--queue-depth", type=int, default=64, metavar="N",
                         help="max queued jobs before 429 backpressure")
    p_serve.add_argument("--max-retries", type=int, default=1, metavar="N",
                         help="retries for jobs whose worker process died")
    p_serve.add_argument("--cache-dir", default=None, metavar="PATH",
                         help="persist the content-addressed result cache "
                              "as JSON files here (default: memory only)")
    p_serve.add_argument("--drain-grace", type=float, default=60.0,
                         metavar="SECONDS",
                         help="how long a SIGTERM drain waits for in-flight "
                              "jobs before dropping them")
    p_serve.add_argument("--default-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="deadline applied to jobs submitted without "
                              "an explicit timeout_s")
    p_serve.add_argument("--cache-budget-mb", type=float, default=64.0,
                         metavar="MB",
                         help="byte budget for the result cache's memory "
                              "tier; size-aware LRU eviction keeps RSS "
                              "flat under it (0 = unbounded)")
    p_serve.add_argument("--mem-sample-every", type=float, default=10.0,
                         metavar="SECONDS",
                         help="RSS/tracemalloc gauge sampling interval")
    p_serve.add_argument("--sse-keepalive", type=float, default=15.0,
                         metavar="SECONDS",
                         help="interval between `: ping` comment frames "
                              "on idle SSE event streams")
    p_serve.add_argument("--tracemalloc", action="store_true",
                         help="start tracemalloc for precise Python-heap "
                              "gauges (adds allocation overhead)")
    p_serve.add_argument("--job-budget-mb", type=float, default=16.0,
                         metavar="MB",
                         help="byte budget for retained terminal jobs; the "
                              "oldest finished runs are evicted to 410 Gone "
                              "tombstones past it (0 = retain forever)")
    p_serve.add_argument("--job-min-retention", type=float, default=30.0,
                         metavar="SECONDS",
                         help="a finished run is never evicted within this "
                              "window, budget notwithstanding")
    p_serve.add_argument("--max-job-events", type=int, default=512,
                         metavar="N",
                         help="per-job lifecycle event cap; SSE followers "
                              "see a dropped_events marker past it "
                              "(0 = unbounded)")
    p_serve.add_argument("--coordinator", default=None, metavar="URL",
                         help="join the fleet at this coordinator URL "
                              "(register + heartbeat; requires --node-id)")
    p_serve.add_argument("--node-id", default=None, metavar="NAME",
                         help="this node's fleet identity")
    p_serve.add_argument("--advertise-url", default=None, metavar="URL",
                         help="URL the coordinator should reach this node "
                              "at (default: http://<host>:<port>)")
    p_serve.add_argument("--heartbeat-every", type=float, default=2.0,
                         metavar="SECONDS",
                         help="fleet heartbeat interval")
    p_serve.add_argument("--ratelimit-rps", type=float, default=None,
                         metavar="RPS",
                         help="per-tenant token-bucket refill rate; "
                              "rejections are 429 + Retry-After "
                              "(default: no rate limiting)")
    p_serve.add_argument("--ratelimit-burst", type=float, default=None,
                         metavar="TOKENS",
                         help="per-tenant bucket capacity "
                              "(default: 2x the rate)")
    p_serve.set_defaults(func=cmd_serve)

    p_coord = sub.add_parser(
        "coordinator",
        help="run the fleet coordinator: node registry, heartbeat "
             "liveness, consistent-hash routing, per-tenant rate "
             "limits (repro.fleet)",
    )
    p_coord.add_argument("--host", default="127.0.0.1")
    p_coord.add_argument("--port", type=int, default=8090,
                         help="listen port (0 = ephemeral)")
    p_coord.add_argument("--vnodes", type=int, default=64, metavar="N",
                         help="virtual nodes per member on the hash ring")
    p_coord.add_argument("--heartbeat-timeout", type=float, default=6.0,
                         metavar="SECONDS",
                         help="a node silent this long is evicted and its "
                              "in-flight jobs resubmitted")
    p_coord.add_argument("--sweep-every", type=float, default=1.0,
                         metavar="SECONDS",
                         help="liveness sweep interval")
    p_coord.add_argument("--ratelimit-rps", type=float, default=None,
                         metavar="RPS",
                         help="per-tenant token-bucket refill rate at "
                              "admission (default: no rate limiting)")
    p_coord.add_argument("--ratelimit-burst", type=float, default=None,
                         metavar="TOKENS",
                         help="per-tenant bucket capacity "
                              "(default: 2x the rate)")
    p_coord.add_argument("--proxy-timeout", type=float, default=30.0,
                         metavar="SECONDS",
                         help="budget for one proxied node round-trip")
    p_coord.set_defaults(func=cmd_coordinator)

    p_loadtest = sub.add_parser(
        "loadtest",
        help="replay a synthetic RunRequest mix against a coordinator "
             "or node; emit a schema-versioned LOADTEST_<date>.json",
    )
    p_loadtest.add_argument("--url", default="http://127.0.0.1:8090",
                            help="coordinator or node base URL")
    p_loadtest.add_argument("--requests", type=int, default=200, metavar="N")
    p_loadtest.add_argument("--concurrency", type=int, default=8, metavar="N",
                            help="closed-loop client threads")
    p_loadtest.add_argument("--seed", type=int, default=42,
                            help="mix generator seed (same seed, same mix)")
    p_loadtest.add_argument("--tenants", default=None, metavar="A,B,C",
                            help="comma-separated tenant names "
                                 "(default: tenant-a,tenant-b,tenant-c)")
    p_loadtest.add_argument("--duplicate-fraction", type=float, default=0.25,
                            metavar="F",
                            help="fraction of submissions duplicating an "
                                 "earlier one (cache-hit traffic)")
    p_loadtest.add_argument("--sweep", default=None, metavar="1,2,4,8",
                            help="also run a knee-of-curve concurrency sweep "
                                 "at these levels")
    p_loadtest.add_argument("--sweep-requests", type=int, default=60,
                            metavar="N", help="requests per sweep level")
    p_loadtest.add_argument("--wait-timeout-s", type=float, default=300.0,
                            metavar="SECONDS",
                            help="per-request completion timeout")
    p_loadtest.add_argument("--out", default=None, metavar="PATH",
                            help="artifact path "
                                 "(default: LOADTEST_<date>.json)")
    p_loadtest.set_defaults(func=cmd_loadtest)

    p_submit = sub.add_parser(
        "submit", help="submit one run to a `repro serve` instance"
    )
    _add_scenario_args(p_submit)
    p_submit.add_argument("--policy", default="LRU+CFS")
    p_submit.add_argument("--url", default="http://127.0.0.1:8080",
                          help="control-plane base URL")
    p_submit.add_argument("--priority", type=int, default=None,
                          help="lower runs first; FIFO within a priority")
    p_submit.add_argument("--tenant", default=None, metavar="NAME",
                          help="tenant tag for per-tenant fleet stats "
                               "and rogue scoring (default: 'default')")
    p_submit.add_argument("--timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="server-side deadline covering queue + run")
    p_submit.add_argument("--progress-every", type=float, default=None,
                          metavar="SECONDS",
                          help="stream sampler progress at this simulated "
                               "interval (adds sampler ticks to "
                               "events_executed)")
    p_submit.add_argument("--follow", action="store_true",
                          help="print the run's SSE event stream to stderr "
                               "while waiting")
    p_submit.add_argument("--no-wait", action="store_true",
                          help="print the submission snapshot and exit "
                               "without waiting for the result")
    p_submit.add_argument("--wait-timeout", type=float, default=600.0,
                          metavar="SECONDS",
                          help="client-side polling timeout")
    p_submit.add_argument("--retries", type=int, default=3, metavar="N",
                          help="retry 429 backpressure and transient "
                               "connection failures this many times with "
                               "jittered exponential backoff")
    p_submit.set_defaults(func=cmd_submit)

    p_table1 = sub.add_parser("table1", help="regenerate Table 1")
    p_table1.add_argument("--seconds", type=float, default=20.0)
    p_table1.add_argument("--rounds", type=int, default=2)
    p_table1.set_defaults(func=cmd_table1)

    p_overhead = sub.add_parser("overhead", help="§6.4 overhead numbers")
    p_overhead.set_defaults(func=cmd_overhead)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
