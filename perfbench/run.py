"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Workloads (why each exists is in
``BENCHMARK.json``):

* ``sim-pressure`` -- the committed BENCH matrix in-process
  (``simload.py``);
* ``fleet-miss`` -- two closed-loop clients of distinct BG-null runs
  through coordinator and node (``fleetload.py``).

``--trace 0`` measures for ``--seconds`` and prints the end-to-end
metrics, every one on every workload:

* ``sim_s_per_s`` -- simulated seconds per host second.  sim-pressure:
  the engine's simulated time over the cells' wall time; fleet-miss:
  the served runs' measured simulated seconds over their ``exec_s``
  spans in the pool worker;
* ``latency_p50_ms`` -- median per operation.  sim-pressure: one cell;
  fleet-miss: submit to the SSE ``done`` event.  Failed operations
  count as missing every limit;
* ``throughput_per_s`` -- correct operations over their own time span;
* ``peak_rss_mb`` -- VmHWM: of this process for sim-pressure, summed
  over coordinator, node and pool worker for fleet-miss;
* ``setup_s`` -- median of cold set-ups sampled across the run.
  sim-pressure: fresh interpreter until the simulator is imported;
  fleet-miss: boot until the node registered.

``--trace 1`` runs a fixed amount of work untraced and then traced and
prints every per-layer metric (0 where the workload does not reach the
layer).  Counts are exact per seed; ``*_self_s`` are summed span self
times, ``*_us``/``*_ms`` of control-plane calls are means per call, and
job-span metrics are medians per job.

Before the result, one JSON line holds the run record: host
fingerprint, the reference loop at start and end, the latency tail (or
why it was omitted) and workload details.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys

from common import host_fingerprint, ref_loop_ms

WORKLOADS = ("sim-pressure", "fleet-miss")
END_TO_END = {
    "sim_s_per_s": "s/s",
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "sim.events": "count",
    "sim.dispatch_self_s": "s",
    "experiments.stage_s": "s",
    "experiments.measure_s": "s",
    "sched.ticks": "count",
    "sched.tick_self_s": "s",
    "android.frames": "count",
    "android.render_self_s": "s",
    "android.launch_self_s": "s",
    "android.lmk_kills": "count",
    "apps.behavior_self_s": "s",
    "kernel.faults": "count",
    "kernel.fault_self_s": "s",
    "kernel.reclaim_calls": "count",
    "kernel.reclaim_self_s": "s",
    "kernel.kswapd_self_s": "s",
    "kernel.pgscan": "count",
    "kernel.pgsteal": "count",
    "kernel.steal_ratio": "ratio",
    "kernel.refaults": "count",
    "storage.zram_stores": "count",
    "storage.zram_loads": "count",
    "storage.flash_pages": "count",
    "storage.self_s": "s",
    "core.policy_self_s": "s",
    "core.freezes": "count",
    "obs.psi_self_s": "s",
    "coordinator.cpu_ms_per_op": "ms",
    "node.cpu_ms_per_op": "ms",
    "client.cpu_ms_per_op": "ms",
    "coordinator.submit_self_ms": "ms",
    "fleet.route_us": "us",
    "fleet.admit_us": "us",
    "fleet.rejected": "count",
    "transport.proxy_rtt_ms": "ms",
    "spec.cache_key_us": "us",
    "state.submit_us": "us",
    "cache.get_us": "us",
    "retention.retained_jobs": "count",
    "queue.wait_ms": "ms",
    "workers.exec_ms": "ms",
    "cache.store_ms": "ms",
    "workers.sim_ms": "ms",
    "workers.ipc_ms": "ms",
    "sse.done_lag_ms": "ms",
    "serve.overhead_ms": "ms",
    "worker.cpu_ms_per_op": "ms",
    "progress.samples": "count",
    "host.ref_loop_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def checkout_env():
    """Put ``src`` on the path here and in every child process."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "repro", "__main__.py")):
        raise SystemExit(
            "perfbench: no src/repro here; run from the repository root")
    sys.path.insert(0, src)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run(args, env, run_dir) -> dict:
    if args.workload == "sim-pressure":
        import simload

        if args.trace:
            return simload.traced(args.seed, run_dir)
        return simload.measure(args.seed, args.seconds, env)
    import fleetload

    if args.trace:
        return fleetload.traced(args.seed, run_dir, env)
    return fleetload.measure(args.seed, args.seconds, run_dir, env)


def main(argv=None) -> int:
    args = parse_args(argv)
    env = checkout_env()
    run_dir = os.path.abspath(
        os.path.join(".perfbench", f"{args.workload}-trace{args.trace}"))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    record = {"host": host_fingerprint(), "ref_loop_ms": [ref_loop_ms()]}
    outcome = run(args, env, run_dir)
    record["ref_loop_ms"].append(ref_loop_ms())
    record.update(outcome.get("record", {}))

    if args.trace:
        values = dict.fromkeys(PER_LAYER, 0)
        values.update(outcome["layers"])
        values["host.ref_loop_ms"] = sum(record["ref_loop_ms"]) / 2
        units = PER_LAYER
    else:
        values = outcome["metrics"]
        units = END_TO_END
    unknown = set(values) - set(units)
    if unknown:
        raise RuntimeError(f"unlisted metrics {sorted(unknown)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    correct = outcome["failed"] == 0 and all(
        math.isfinite(m["value"]) for m in metrics.values())
    if not args.trace:
        correct = correct and all(m["value"] > 0 for m in metrics.values())
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
