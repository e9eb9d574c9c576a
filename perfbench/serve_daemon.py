"""Launch ``repro serve`` in its own process for the serve-mix workload.

    python3 perfbench/serve_daemon.py --socket PATH [--trace-dir DIR]

Runs the real CLI entry point (default workers, verdict cache on).  With
``--trace-dir`` the layer wrappers of :mod:`tracer` are installed first,
so the daemon and the workers it forks record spans; the daemon writes
its own span file after the CLI returns (SIGTERM drains and stops it),
each worker when its job loop ends.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--trace-dir")
    args = parser.parse_args()

    from repro.cli import main as repro_main

    tracer = None
    if args.trace_dir:
        from tracer import Tracer

        tracer = Tracer(Path(args.trace_dir)).install()
    # The CLI prints its banner once the pool is ready; the benchmark
    # waits for that line, so it must not sit in a pipe buffer.
    sys.stdout.reconfigure(line_buffering=True)
    try:
        return repro_main(["serve", "--socket", args.socket])
    finally:
        if tracer is not None:
            tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
