"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload sweep-mixed --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace
1`` runs a separate traced pass and reports the per-layer metrics.
Every output is checked (Theorem 5.1 verdicts, lemma checkers on
recorded traces, the serve cache contract).  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is a JSON report with per-workload metrics under their own
names, the input digest and the machine-speed calibration.  Gated times
and rates are scaled to a reference machine speed measured around each
slice of work (``speed.py``); the report holds them unscaled too.  The
exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import common
import inputs
from metrics import END_TO_END, PER_LAYER, units

WORKLOADS = ("sweep-mixed", "large-team", "serve-mixed")


def _run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "serve-mixed":
        import serve

        return serve.serve_mixed(seed, seconds, trace)
    import sweeps

    if workload == "sweep-mixed":
        return sweeps.sweep_mixed(seed, seconds, trace)
    return sweeps.large_team(seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.ensure_source()
    os.makedirs(common.WORK, exist_ok=True)
    try:
        result = _run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)

    checker = result["checker"]
    if args.trace:
        rows, values = PER_LAYER, result["layers"]
    else:
        rows = END_TO_END
        values = dict(result["e2e"], setup_s=result["setup_s"])
    unit = units(rows)
    metrics = {name: {"value": values[name], "unit": unit[name]} for name, _, _ in rows}
    report = dict(result["report"])
    report.update(
        workload=args.workload,
        seed=args.seed,
        inputs_digest=inputs.digest(args.workload, args.seed),
        setup_s=result["setup_s"],
        error_frac=checker.failed / max(checker.attempted, 1),
        errors=checker.errors,
        calibration=common.calibration(),
    )
    print(json.dumps({"report": report}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
