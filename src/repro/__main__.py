"""Command-line interface: quick experiments without writing code.

Examples::

    python -m repro scenario --scenario S-A --policy Ice --bg 8
    python -m repro scenario --scenario S-D --policy LRU+CFS,Ice --seconds 45 --json
    python -m repro scenario --scenario S-B --policy Ice --trace-out ice.trace.json
    python -m repro scenario --scenario S-B --seconds 15 --json --proc
    python -m repro scenario --scenario S-C --policy Ice --watch --sample-ms 1000
    python -m repro bench --smoke
    python -m repro figures table1 sec641
    python -m repro figures --out FIGURES.json
    python -m repro serve --port 8080 --workers 4
    python -m repro submit --scenario S-B --policy Ice --seconds 20
    python -m repro watch --serve http://127.0.0.1:8080
    python -m repro coordinator --port 8090 --ratelimit-rps 50
    python -m repro serve --port 8081 --node-id n1 --coordinator http://127.0.0.1:8090
    python -m repro loadtest --url http://127.0.0.1:8090 --requests 200
    python -m repro loadtest --soak 30 --requests 10000 --duplicate-fraction 1
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench.options import add_bench_args
from repro.devices.specs import DEVICES
from repro.experiments.cases import BgCase, SCENARIOS
from repro.policies.registry import available_policies

# Building the parser imports only the names above.  Each command
# imports what it runs (the simulator, the serve plane, the fleet) when
# it runs, so `repro submit` or `repro coordinator` never loads the
# simulator.

# `repro submit` retries 429 backpressure and transient connection
# failures this many times, with jittered exponential backoff, and
# waits this long for the result.
SUBMIT_RETRIES = 3
SUBMIT_WAIT_TIMEOUT_S = 600.0


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    """The flags of a ``RunRequest``, plus ``--json``."""
    parser.add_argument("--scenario", default="S-A",
                        choices=sorted(SCENARIOS),
                        help="paper scenario (S-A video call ... S-D game)")
    parser.add_argument("--policy", default="LRU+CFS",
                        help="policy name, or several comma-separated to "
                             "run in order (an unknown name lists the "
                             "registered ones)")
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


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    """What a local run prints or writes besides its result."""
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="enable tracing and write a Chrome/Perfetto "
                             "trace_event JSON file (open in ui.perfetto.dev); "
                             "histogram summaries go to stderr")
    parser.add_argument("--timeseries-out", default=None, metavar="PATH",
                        help="write the sampler's aligned time series "
                             "(.csv → CSV, otherwise JSON)")
    parser.add_argument("--sample-ms", type=float, default=100.0,
                        help="sampler interval in simulated ms (time "
                             "series and --watch rows)")
    parser.add_argument("--proc", nargs="*", default=None, metavar="PATH",
                        help="after the result, print the virtual /proc: "
                             "every file, or these paths (e.g. "
                             "pressure/memory memcg/TikTok/memory.stat); "
                             "under --json, add it to each run's object")
    parser.add_argument("--watch", action="store_true",
                        help="print a live table row per sample (free "
                             "memory, FPS, PSI avg10s, refaults)")


def _fail(message, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _run_requests(args: argparse.Namespace) -> list:
    """One ``RunRequest`` per ``--policy`` name, validated up front.

    Raises ``ValueError`` with the message for the user.  Policies can be
    registered at runtime (``register_policy``), so names are checked
    against the live registry instead of argparse choices.
    """
    from repro.serve.spec import RunRequest

    names = [name.strip() for name in args.policy.split(",") if name.strip()]
    valid = available_policies()
    unknown = [name for name in names if name not in valid]
    if unknown or not names:
        bad = ", ".join(repr(name) for name in unknown) or "(none given)"
        raise ValueError(
            f"unknown policy {bad}; valid choices: " + ", ".join(valid)
        )
    return [
        RunRequest(
            scenario=args.scenario, policy=name, device=args.device,
            bg_case=args.bg_case, bg_count=args.bg, seconds=args.seconds,
            seed=args.seed,
        )
        for name in names
    ]


def _emit_result(result: dict, as_json: bool, via: str = "") -> None:
    """Print one run's result: its JSON object, or the summary line
    (``via`` names where a served result came from)."""
    if as_json:
        print(json.dumps(result))
        return
    print(
        f"{result['policy']:>12} | {result['fps']:5.1f} fps | "
        f"RIA {result['ria']:5.1%} | refaults {result['refault']:6d} "
        f"(BG {result['bg_refault_share']:4.0%}) | "
        f"reclaims {result['reclaim']:6d} | LMK kills {result['lmk_kills']} | "
        f"frozen {result['frozen_apps']}" + (f" | via {via}" if via else "")
    )


def _policy_suffixed(path: str, policy: str) -> str:
    """Insert a filesystem-safe policy tag before the extension."""
    safe = policy.replace("+", "_").replace("/", "_")
    root, ext = os.path.splitext(path)
    return f"{root}.{safe}{ext}" if ext else f"{path}.{safe}"


def _write_trace_outputs(args: argparse.Namespace, tracer, result,
                         suffix: bool) -> None:
    """Write the trace and time series (one file per policy when
    ``suffix``), then summarize the tracer's histograms on stderr."""
    from repro.trace.export import write_chrome_trace, write_timeseries

    trace_path, ts_path = args.trace_out, args.timeseries_out
    if suffix:
        trace_path = trace_path and _policy_suffixed(trace_path, result.policy)
        ts_path = ts_path and _policy_suffixed(ts_path, result.policy)
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
    if ts_path:
        rows = write_timeseries(ts_path, result.sampler)
        print(f"timeseries: {rows} samples -> {ts_path}", file=sys.stderr)
    for name, hist in sorted(tracer.histograms.items()):
        summary = hist.summary()
        print(
            f"{name:>28}: n={hist.count:6d} mean={summary['mean']:8.3f} "
            f"p50={summary['p50']:8.3f} p99={summary['p99']:8.3f} "
            f"max={summary['max']:8.3f}",
            file=sys.stderr,
        )


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


class _WatchTable:
    """``--watch``: one row per sample, the header every 20 rows."""

    def __init__(self):
        self.rows = 0
        self.header = " ".join(
            title.rjust(len(fmt.format(0)))
            for title, _key, fmt in _WATCH_COLUMNS
        )
        print(self.header)

    def on_sample(self, now_ms: float, row: dict) -> None:
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
        self.rows += 1
        if self.rows % 20 == 0:
            print(self.header)


def _check_proc_paths(paths: list) -> None:
    """Raise ``ValueError`` for a ``--proc`` path that no run has (every
    run installs the whole catalog)."""
    from repro.apps.catalog import APP_CATALOG
    from repro.obs.procfs import FIXED_PATHS, MEMCG_FILES

    valid = list(FIXED_PATHS) + [
        f"memcg/{package}/{leaf}"
        for package in sorted(APP_CATALOG) for leaf in MEMCG_FILES
    ]
    unknown = [path for path in paths if path not in valid]
    if unknown:
        raise ValueError(
            f"unknown /proc path {', '.join(map(repr, unknown))}; "
            "valid: " + ", ".join(valid)
        )


def cmd_scenario(args: argparse.Namespace) -> int:
    """Run each ``--policy`` in order and print what the flags ask for."""
    try:
        requests = _run_requests(args)
        _check_proc_paths(args.proc or [])
    except ValueError as exc:
        return _fail(exc)
    from repro.experiments.scenarios import run_request
    from repro.trace.tracer import Tracer

    tracing = bool(args.trace_out or args.timeseries_out)
    for request in requests:
        tracer = Tracer() if tracing else None
        watch = _WatchTable() if args.watch else None
        result = run_request(
            request,
            tracer=tracer,
            sample_interval_ms=args.sample_ms if tracing or watch else None,
            on_sample=watch.on_sample if watch else None,
        )
        if watch:
            print(f"# {watch.rows} samples over {args.seconds:.0f}s "
                  "measured window")
        doc = result.to_dict()
        procfs = result.system.procfs
        if args.proc is not None and args.json:
            doc["proc"] = procfs.snapshot()
        _emit_result(doc, args.json)
        if args.proc is not None and not args.json:
            print(procfs.dump_text(args.proc or None))
        if tracer is not None:
            _write_trace_outputs(args, tracer, result, len(requests) > 1)
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    """The live fleet pressure console for a running ``repro serve``:
    periodic ``/v1/stats`` polls plus an SSE event tail, rendering queue
    depth, worker utilization, cache hit/eviction rates, latency
    percentiles and per-tenant rogue scores."""
    from repro.serve.client import ServeClient
    from repro.serve.console import FleetConsole

    console = FleetConsole(ServeClient(args.serve), plain=args.plain)
    return console.run(iterations=args.iterations)


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
        cache_dir=args.cache_dir,
        cache_budget_bytes=(
            int(args.cache_budget_mb * 1024 * 1024)
            if args.cache_budget_mb else None
        ),
        enable_tracemalloc=args.tracemalloc,
        job_budget_bytes=(
            int(args.job_budget_mb * 1024 * 1024)
            if args.job_budget_mb else None
        ),
        job_min_retention_s=args.job_min_retention,
        node_id=args.node_id,
    )

    def ready(server) -> None:
        print(
            f"repro-serve listening on http://{config.host}:{server.port} "
            f"(workers={config.workers}, queue depth={config.queue_depth}, "
            f"cache={'disk:' + config.cache_dir if config.cache_dir else 'memory'})"
            + (f" [fleet node {config.node_id}]" if args.coordinator else ""),
            flush=True,
        )

    try:
        if args.coordinator:
            from repro.fleet.node import run_node

            if not config.node_id:
                return _fail("--coordinator requires --node-id")
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
        heartbeat_timeout_s=args.heartbeat_timeout,
        ratelimit_rps=args.ratelimit_rps,
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
    """Replay a synthetic RunRequest mix or soak a node; emit the artifact."""
    from repro.fleet.loadtest import main as loadtest_main

    return loadtest_main(args)


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit each ``--policy``'s run to a `repro serve` instance in
    order and await its result."""
    from repro.serve.client import ServeClient

    try:
        requests = _run_requests(args)
    except ValueError as exc:
        return _fail(exc)
    client = ServeClient(args.url)
    for request in requests:
        code = _submit_one(client, request, args)
        if code:
            return code
    return 0


def _submit_one(client, request, args: argparse.Namespace) -> int:
    from repro.serve.client import QueueFullError, ServeError
    from repro.serve.spec import TERMINAL_STATES

    progress_ms = args.progress_every * 1000.0 if args.progress_every else None
    try:
        job = client.submit(
            request,
            priority=args.priority,
            timeout_s=args.timeout,
            progress_interval_ms=progress_ms,
            tenant=args.tenant,
            retries=SUBMIT_RETRIES,
        )
    except QueueFullError as exc:
        return _fail(exc, code=3)
    except (ServeError, ConnectionError, OSError) as exc:
        return _fail(exc)
    job_id = job["id"]
    print(f"run {job_id}: {job['state']}"
          + (" (cache hit)" if job.get("cache_hit") else ""),
          file=sys.stderr)
    try:
        if args.follow and not job.get("cache_hit"):
            # follow() (not events()) so a dropped socket mid-run
            # reconnects from the last absolute cursor.
            for event, data in client.follow(
                job_id, timeout_s=SUBMIT_WAIT_TIMEOUT_S
            ):
                print(f"  {event}: {json.dumps(data)}", file=sys.stderr)
            job = client.get(job_id)
        elif job["state"] not in TERMINAL_STATES:
            job = client.wait(job_id, timeout_s=SUBMIT_WAIT_TIMEOUT_S)
    except (ServeError, ConnectionError, OSError, TimeoutError) as exc:
        return _fail(exc)
    if job["state"] != "done":
        print(
            f"run {job_id} {job['state']}: {job.get('error')}",
            file=sys.stderr,
        )
        return 1
    _emit_result(job["result"], args.json,
                 via="cache" if job.get("cache_hit") else "worker")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.figures import main as figures_main

    return figures_main(args)


def build_parser() -> argparse.ArgumentParser:
    """Every subcommand and its options."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ICE (EuroSys'23) reproduction: quick experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scenario = sub.add_parser(
        "scenario",
        help="run a scenario under one or more policies; optionally "
             "trace it, watch it live or dump its virtual /proc",
    )
    _add_run_args(p_scenario)
    _add_output_args(p_scenario)
    p_scenario.set_defaults(func=cmd_scenario)

    p_watch = sub.add_parser(
        "watch",
        help="live fleet pressure console for a running `repro serve` "
             "instance",
    )
    p_watch.add_argument("--serve", required=True, metavar="URL",
                         help="control-plane base URL")
    p_watch.add_argument("--iterations", type=int, default=None, metavar="N",
                         help="render N frames then exit "
                              "(default: until interrupted)")
    p_watch.add_argument("--plain", action="store_true",
                         help="append frames instead of clearing the "
                              "screen (log-friendly)")
    p_watch.set_defaults(func=cmd_watch)

    p_bench = sub.add_parser(
        "bench",
        help="benchmark harness: timed matrix and call ledger (repro.bench)",
    )
    add_bench_args(p_bench)
    p_bench.set_defaults(func=cmd_bench)
    # Nested, non-required: `repro bench` alone still runs the matrix;
    # `repro bench compare OLD NEW` runs the regression gate.
    bench_sub = p_bench.add_subparsers(dest="bench_cmd")
    p_bench_cmp = bench_sub.add_parser(
        "compare",
        help="diff two BENCH artifacts; exit 1 if a paper metric differs",
    )
    p_bench_cmp.add_argument("old", help="baseline BENCH json")
    p_bench_cmp.add_argument("new", help="candidate BENCH json")
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
    p_serve.add_argument("--cache-dir", default=None, metavar="PATH",
                         help="persist the content-addressed result cache "
                              "as JSON files here (default: memory only)")
    p_serve.add_argument("--cache-budget-mb", type=float, default=64.0,
                         metavar="MB",
                         help="byte budget for the result cache's memory "
                              "tier; size-aware LRU eviction keeps RSS "
                              "flat under it (0 = unbounded)")
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
    p_serve.add_argument("--coordinator", default=None, metavar="URL",
                         help="join the fleet at this coordinator URL "
                              "(register + heartbeat; SIGTERM leaves the "
                              "ring, then drains; requires --node-id)")
    p_serve.add_argument("--node-id", default=None, metavar="NAME",
                         help="this node's fleet identity")
    p_serve.add_argument("--advertise-url", default=None, metavar="URL",
                         help="URL the coordinator should reach this node "
                              "at (default: http://<host>:<port>)")
    p_serve.add_argument("--heartbeat-every", type=float, default=2.0,
                         metavar="SECONDS",
                         help="fleet heartbeat interval")
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
    p_coord.add_argument("--heartbeat-timeout", type=float, default=6.0,
                         metavar="SECONDS",
                         help="a node silent this long is evicted and its "
                              "in-flight jobs resubmitted")
    p_coord.add_argument("--ratelimit-rps", type=float, default=None,
                         metavar="RPS",
                         help="per-tenant token-bucket refill rate at "
                              "admission, burst twice the rate "
                              "(default: no rate limiting)")
    p_coord.set_defaults(func=cmd_coordinator)

    p_loadtest = sub.add_parser(
        "loadtest",
        help="replay a synthetic RunRequest mix against a coordinator "
             "or node, or soak an in-process node; emit a "
             "schema-versioned LOADTEST_<date>.json",
    )
    target = p_loadtest.add_mutually_exclusive_group()
    target.add_argument("--url", default="http://127.0.0.1:8090",
                        help="coordinator or node base URL")
    target.add_argument("--soak", type=float, default=None,
                        metavar="SECONDS",
                        help="instead of --url, boot a node in this "
                             "process and hold the main level for at "
                             "least this long, sampling RSS and "
                             "accounting invariants between submissions")
    p_loadtest.add_argument("--requests", type=int, default=200, metavar="N",
                            help="requests in the main level (a soak's "
                                 "minimum submissions)")
    p_loadtest.add_argument("--concurrency", type=int, default=None,
                            metavar="N",
                            help="closed-loop client threads (default 8; "
                                 "a soak runs 1)")
    p_loadtest.add_argument("--seed", type=int, default=42,
                            help="mix generator seed (same seed, same mix)")
    p_loadtest.add_argument("--duplicate-fraction", type=float, default=0.25,
                            metavar="F",
                            help="fraction of submissions duplicating an "
                                 "earlier one (cache-hit traffic)")
    p_loadtest.add_argument("--out", default=None, metavar="PATH",
                            help="artifact path "
                                 "(default: LOADTEST_<date>.json)")
    soak = p_loadtest.add_argument_group("soak (with --soak)")
    soak.add_argument("--soak-sample-every", type=int, default=250,
                      metavar="N",
                      help="sample memory/consistency every N submissions")
    soak.add_argument("--soak-fault-every", type=int, default=0,
                      metavar="N",
                      help="every N submissions SIGKILL the node's pool "
                           "worker and check that a cache-miss probe "
                           "completes through the rebuilt pool (0 = off)")
    soak.add_argument("--soak-max-drift-pct", type=float, default=None,
                      metavar="PCT",
                      help="fail if RSS drifts beyond ±PCT after the "
                           "node's tombstone table fills, or if it never "
                           "fills")
    soak.add_argument("--job-budget-mb", type=float, default=1.0,
                      metavar="MB",
                      help="the node's terminal-job retention budget")
    p_loadtest.set_defaults(func=cmd_loadtest)

    p_submit = sub.add_parser(
        "submit", help="submit one run to a `repro serve` instance"
    )
    _add_run_args(p_submit)
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
    p_submit.set_defaults(func=cmd_submit)

    p_figures = sub.add_parser(
        "figures",
        help="regenerate the paper's tables and figures; each distinct "
             "seeded run once, over every CPU this process may use",
    )
    # Ids are checked when the command runs: the catalogue imports the
    # simulator, and the parser must not.
    p_figures.add_argument("ids", nargs="*", metavar="ID",
                           help="table1, fig1 ... sec642, ablation-... "
                                "(default: all; an unknown id lists them)")
    p_figures.add_argument("--out", default=None, metavar="PATH",
                           help="write every selected id's rows as JSON "
                                "(the committed file is FIGURES.json)")
    p_figures.set_defaults(func=cmd_figures)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
