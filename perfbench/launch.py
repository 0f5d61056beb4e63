"""Start a ``repro`` CLI command with the benchmark's span wrappers.

Usage: ``python3 perfbench/launch.py SPANS_PATH -- <repro CLI args>``

The wrappers are installed before the CLI builds its servers.  Spans
are written to ``SPANS_PATH`` when the process exits, and a ``serve``
node's forked pool workers write theirs to ``SPANS_PATH.<pid>``.
"""

import atexit
import sys

from tracing import Recorder, install_serve_hooks, install_sim_hooks


def main(argv) -> int:
    spans_path, sep, *cli = argv
    if sep != "--" or not cli:
        print(__doc__, file=sys.stderr)
        return 2
    rec = Recorder()
    install_serve_hooks(rec, spans_path)
    if cli[0] == "serve":
        install_sim_hooks(rec)  # inherited by the forked pool workers
    atexit.register(rec.dump, spans_path)
    from repro.__main__ import main as repro_main

    return repro_main(cli)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
