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
                             "and the call ledger are identical to a serial "
                             "run)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="artifact path (default: BENCH_<date>.json)")
