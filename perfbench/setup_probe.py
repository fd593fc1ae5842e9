"""Set-up probe: fresh interpreter, ``import repro``, optional pool start.

Prints one line once the program is ready for its first seed; the parent
times the interval from spawn to that line.

    python3 perfbench/setup_probe.py --workers 2
"""

from __future__ import annotations

import argparse
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    from repro.experiments.runner import Scenario, executor, run_batch

    if args.workers > 1:
        with executor(args.workers) as pool:
            # One trivial seed per worker forces every worker to start.
            run_batch(
                Scenario("bivalent", 8, f=7),
                list(range(args.workers)),
                pool=pool,
            )
            print("ready", flush=True)
    else:
        print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
