"""``python -m repro.bench`` — standalone entry to the bench harness.

``python -m repro.bench compare OLD NEW`` dispatches to the regression
gate; anything else runs the matrix.
"""

import argparse
import sys

from repro.bench.options import add_bench_args
from repro.bench.runner import main

if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        from repro.bench.compare import main as compare_main

        sys.exit(compare_main(sys.argv[2:]))
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="self-profiling benchmark harness",
    )
    add_bench_args(parser)
    sys.exit(main(parser.parse_args()))
