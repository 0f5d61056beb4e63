"""The ``bench`` command's arguments and matrix defaults.

Kept apart from :mod:`repro.bench.runner`, which imports the simulator,
so building the CLI parser stays cheap.
"""

from __future__ import annotations

import argparse

from repro.devices.specs import DEVICES

DEFAULT_SCENARIOS = ("S-A", "S-B", "S-C", "S-D")
DEFAULT_POLICIES = ("LRU+CFS", "Ice")


def add_bench_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--smoke", action="store_true",
                        help="CI configuration: S-A only, 5 simulated seconds")
    parser.add_argument("--scenarios", default=",".join(DEFAULT_SCENARIOS),
                        help="comma-separated scenario ids")
    parser.add_argument("--policies", default=",".join(DEFAULT_POLICIES),
                        help="comma-separated policy names")
    parser.add_argument("--device", default="P20", choices=list(DEVICES))
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured window per cell (simulated seconds)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run matrix cells across N worker processes "
                             "(results merge in matrix order; paper metrics "
                             "are identical to a serial run)")
    parser.add_argument("--profile", action="store_true",
                        help="run each cell under cProfile and embed the "
                             "top-N cumulative table in the artifact "
                             "(forces serial execution)")
    parser.add_argument("--profile-top", type=int, default=15, metavar="N",
                        help="rows per cell in the --profile table")
    parser.add_argument("--micro", action="store_true",
                        help="also run the slab hot-path microbenchmarks "
                             "(LRU ops/s, fused fault-loop iterations/s) "
                             "and embed them in the artifact")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="artifact path (default: BENCH_<date>.json)")
    soak = parser.add_argument_group(
        "soak mode",
        "drive a live serve-plane server with sustained traffic and "
        "sample RSS + accounting invariants (repro.bench.soak)",
    )
    soak.add_argument("--soak", type=float, default=None, metavar="SECONDS",
                      help="run the control-plane soak for at least this "
                           "many seconds instead of the simulator matrix")
    soak.add_argument("--soak-submissions", type=int, default=2000,
                      metavar="N",
                      help="minimum submissions before the soak may stop")
    soak.add_argument("--soak-sample-every", type=int, default=250,
                      metavar="N",
                      help="sample memory/consistency every N submissions")
    soak.add_argument("--soak-fault-every", type=int, default=0,
                      metavar="N",
                      help="every N submissions SIGKILL one pool worker "
                           "and verify a cache-miss probe still completes "
                           "through the rebuilt pool (0 = off)")
    soak.add_argument("--soak-max-drift-pct", type=float, default=None,
                      metavar="PCT",
                      help="fail if post-warmup RSS drift exceeds ±PCT")
    soak.add_argument("--job-budget-mb", type=float, default=None,
                      metavar="MB",
                      help="terminal-job retention budget for the soak "
                           "server (default 1 MB)")
