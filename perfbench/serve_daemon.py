"""Traced ``repro serve``: the layer tracer around the real CLI daemon.

Installs the outside-in layer tracer (core, geometry, sim and serve
entry points), then runs ``repro serve --port 0 --store DIR`` through
``repro.cli.main``, which prints the listening address and returns after
SIGTERM.  Then every patch is restored and the span summary is written
to ``--trace-out``.  Untraced runs start ``python -m repro serve``
directly.

    python3 perfbench/serve_daemon.py --store DIR --trace-out FILE
"""

from __future__ import annotations

import argparse
import json
import sys

from tracer import Tracer, install_core, install_serve


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()

    from repro import cli

    tracer = Tracer()
    with tracer:
        install_core(tracer)
        install_serve(tracer)
        code = cli.main(["serve", "--port", "0", "--store", args.store])
    with open(args.trace_out, "w") as handle:
        json.dump(
            {
                "summary": tracer.summary(),
                "counts": dict(tracer.counts),
                "covered_s": tracer.covered_s(),
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
