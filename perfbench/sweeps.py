"""The two closed-loop simulation workloads: sweep-mixed and large-team.

sweep-mixed runs the E1-shaped class matrix through ``run_batch`` twice
per block of seeds: pooled (``workers = nproc``) and serial, both with a
sweep journal, the way ``repro sweep`` runs.  large-team runs n = 64
teams one seed at a time through ``run_scenario`` on the numpy backend.
Every verdict is checked against Theorem 5.1.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
from itertools import count
from typing import List, Optional

import inputs
from inputs import Checker
from common import (
    WORK,
    SetupProbes,
    child_env,
    peak_rss_mb,
    stop,
    time_to_ready,
    tree_peak_rss_mb,
)
from metrics import layer_table, rounds_per_run
from speed import Slice, factor_summary
from stats import balanced_median, median, ms, tail
from tracer import Tracer, install_core, install_journal

#: Set-up samples per timed run, interleaved with the measured work.
SETUP_REPEATS = 15
#: Set-up samples of a traced run, where ``setup_s`` is reported only.
TRACE_SETUP_REPEATS = 3


def setup_probes(workers: int, backend: str, count: int) -> SetupProbes:
    """Probes of the time from spawning a fresh interpreter to ready-to-run,
    in reference seconds."""

    def probe() -> float:
        # The probe exits inside the slice, so its pool shutdown does not
        # overlap the closing reference loop.
        with Slice() as timing:
            elapsed, proc, _ = time_to_ready(
                [
                    sys.executable,
                    os.path.join(os.path.dirname(__file__), "setup_probe.py"),
                    "--workers",
                    str(workers),
                ],
                child_env(REPRO_BACKEND=backend),
            )
            proc.wait(60)
            stop(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
        return elapsed * timing.factor

    return SetupProbes(probe, count)


# -- sweep-mixed -------------------------------------------------------------


class SweepPass:
    """Blocks of the matrix through ``run_batch`` with a journal."""

    def __init__(self, checker: Checker, journal_dir: str, pool=None) -> None:
        self.checker = checker
        self.journal_dir = journal_dir
        self.pool = pool
        self.seeds = 0
        self.retries = 0
        #: (cell, seconds since the previous completion) per seed: the
        #: seed-to-verdict time in a serial pass.
        self.latencies: List[tuple] = []
        self._journals = count()

    def run(self, block) -> List[float]:
        """Run one block, one ``run_batch`` per cell; returns each cell's
        wall time."""
        from repro.experiments.runner import Scenario, run_batch

        walls = []
        for cell, seeds in block:
            start = time.perf_counter()
            scenario = Scenario.from_dict(cell)
            last = [time.perf_counter()]

            def on_seed(seed, result, cell=cell) -> None:
                now = time.perf_counter()
                self.latencies.append((cell, now - last[0]))
                last[0] = now
                self.checker.verdict(cell, seed, result.verdict)

            def on_failure(key, exc, strike) -> None:
                self.retries += 1

            path = os.path.join(self.journal_dir, f"{next(self._journals)}.jsonl")
            run_batch(
                scenario,
                seeds,
                pool=self.pool,
                journal_path=path,
                on_seed_result=on_seed,
                on_failure=on_failure,
            )
            os.unlink(path)
            self.seeds += len(seeds)
            walls.append(time.perf_counter() - start)
        return walls


def _block_stream(seed: int):
    for index in count():
        yield inputs.sweep_block(seed, index)


def _check_invariants(seed: int, checker: Checker) -> None:
    """Record traces for one seed per family (n = 8) and verify them
    against the lemma checkers."""
    from repro.analysis.invariants import InvariantViolation, verify_trace
    from repro.experiments.runner import Scenario, run_scenario

    for cell, seeds in inputs.sweep_block(seed, 0):
        if cell["n"] != 8 or cell["workload"] == "bivalent":
            continue
        result = run_scenario(Scenario.from_dict(cell), seeds[0], record_trace=True)
        checker.verdict(cell, seeds[0], result.verdict)
        try:
            verify_trace(result.trace)
        except InvariantViolation as exc:
            checker.fail(f"{cell['workload']}/n=8 seed {seeds[0]}: {exc}")


def sweep_mixed(seed: int, seconds: float, trace: bool) -> dict:
    workers = os.cpu_count() or 1
    checker = Checker()
    journal_dir = os.path.join(WORK, f"journals-{os.getpid()}")
    os.makedirs(journal_dir, exist_ok=True)
    try:
        if trace:
            probes = setup_probes(workers, "python", TRACE_SETUP_REPEATS)
            result = _sweep_traced(seed, workers, checker, journal_dir)
        else:
            probes = setup_probes(workers, "python", SETUP_REPEATS)
            result = _sweep_timed(
                seed, seconds, workers, checker, journal_dir, probes
            )
        result["setup_s"] = probes.median()
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)
    result["checker"] = checker
    return result


def _warm(pool, checker: Checker, journal_dir: str) -> None:
    """Start the pool's workers before any timing."""
    SweepPass(checker, journal_dir, pool).run(inputs.sweep_block(-1, 0)[:2])


def _sweep_timed(seed, seconds, workers, checker, journal_dir, probes) -> dict:
    """Pooled and serial passes alternate block by block, so both see the
    same seeds and the same stretches of machine time.  Each pass is a
    speed slice.  Set-up probes run between blocks, off the clock."""
    from repro.experiments.runner import executor

    serial = SweepPass(checker, journal_dir)
    # Per block: (pooled cell walls, slice), (serial cell walls, slice).
    blocks: List[tuple] = []
    # Serial seed-to-verdict times: (cell, wall seconds, slice factor).
    runs: List[tuple] = []
    start = time.perf_counter()
    with executor(workers) as pool:
        _warm(pool, checker, journal_dir)
        pooled = SweepPass(checker, journal_dir, pool)
        for block in _block_stream(seed):
            passes = []
            for sweep in (pooled, serial):
                done = len(sweep.latencies)
                with Slice() as timing:
                    walls = sweep.run(block)
                passes.append((walls, timing))
            # The serial pass ran last: ``done`` and ``timing`` are its own.
            runs += [(c, wall, timing.factor) for c, wall in serial.latencies[done:]]
            blocks.append(passes)
            measured = time.perf_counter() - start - probes.spent
            if measured >= seconds:
                break
            probes.due(measured / seconds)
        rss = tree_peak_rss_mb()
    gated = _sweep_figures(blocks, runs, scaled=True)
    report = {
        "seeds_per_s": gated["throughput_per_s"],
        "serial_seeds_per_s": gated["serial_per_s"],
        "run_p50_s": median([wall * f for _, wall, f in runs]),
        "run_p50_s_balanced": gated["p50_ms"] / 1e3,
        "run_p95_s": tail([wall * f for _, wall, f in runs], 0.95),
        "run_samples": len(runs),
        "blocks": len(blocks),
        "retries": pooled.retries + serial.retries,
        "speed_factor": factor_summary([t.factor for b in blocks for _, t in b]),
        "unscaled": _sweep_figures(blocks, runs, scaled=False),
    }
    return {"e2e": dict(gated, peak_rss_mb=rss), "report": report}


def _sweep_figures(blocks, runs, scaled: bool) -> dict:
    """Gated figures.  Every block runs every cell with the same number of
    seeds; a rate is a block's seeds over its typical time, the sum over
    cells of each cell's median time over the blocks, so a heavy-tailed
    seed moves its cell in one block, not the result.  Latencies are
    balanced medians over the cells."""

    def rate(which: int) -> float:
        cells = [
            [wall * (timing.factor if scaled else 1.0) for wall in walls]
            for walls, timing in (block[which] for block in blocks)
        ]
        typical = sum(median(times) for times in zip(*cells))
        return len(inputs.sweep_cells()) * inputs.SEEDS_PER_CELL / typical

    times = [
        ((cell["workload"], cell["n"]), wall * (f if scaled else 1.0))
        for cell, wall, f in runs
    ]
    heavy_n = max(inputs.SWEEP_SIZES)
    return {
        "throughput_per_s": rate(0),
        "serial_per_s": rate(1),
        "p50_ms": 1e3 * balanced_median(times),
        "heavy_p50_ms": 1e3
        * balanced_median(t for t in times if t[0][1] == heavy_n),
    }


def _sweep_traced(seed, workers, checker, journal_dir) -> dict:
    """Fixed work (one block), so layer counts compare across versions."""
    from repro import obs
    from repro.experiments.runner import executor

    _check_invariants(seed, checker)
    block = inputs.sweep_block(seed, 0)
    before = sum(SweepPass(checker, journal_dir).run(block))
    obs.enable()
    try:
        obs_wall = sum(SweepPass(checker, journal_dir).run(block))
    finally:
        obs.disable()
    tracer = Tracer()
    with tracer:
        install_core(tracer)
        traced_pass = SweepPass(checker, journal_dir)
        traced_wall = sum(traced_pass.run(block))
    # Untraced before and after the others, so a drift in machine speed
    # cancels out of the overhead ratios.
    untraced_wall = (before + sum(SweepPass(checker, journal_dir).run(block))) / 2
    with executor(workers) as pool:
        _warm(pool, checker, journal_dir)
        journal_tracer = Tracer()
        with journal_tracer:
            install_journal(journal_tracer)
            pooled = SweepPass(checker, journal_dir, pool)
            pooled_wall = sum(pooled.run(block))
    seeds = traced_pass.seeds
    efficiency = (seeds / pooled_wall) / (workers * seeds / untraced_wall)
    summary = tracer.summary()
    return {
        "layers": layer_table(
            [summary, journal_tracer.summary()],
            [tracer.counts],
            {
                "sim.rounds_per_run": rounds_per_run(summary, seeds),
                "resilience.parallel_efficiency": efficiency,
                "resilience.retries": pooled.retries + traced_pass.retries,
                "obs.overhead_frac": obs_wall / untraced_wall - 1.0,
                "trace.coverage_frac": tracer.covered_s() / traced_wall,
                "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
            },
        ),
        "report": {"traced_seeds": seeds, "untraced_wall_s": untraced_wall},
    }


# -- large-team --------------------------------------------------------------


class Run:
    """One n = 64 run, timed as one speed slice."""

    def __init__(self, timing: Slice, first_step: int) -> None:
        self.raw_s = timing.raw_s
        self.factor = timing.factor
        #: With a step timer: the index of the run's first step span.
        self.first_step = first_step


def _large_runs(
    seed: int,
    checker: Checker,
    budget: Optional[float],
    count: Optional[int],
    timer: Optional[Tracer] = None,
    probes: Optional[SetupProbes] = None,
) -> List[Run]:
    """Alternating A/QR n = 64 runs until ``budget`` seconds (whole
    pairs) or ``count`` runs.  With a ``budget``, set-up ``probes`` run
    between pairs, off its clock."""
    from repro.experiments.runner import Scenario, run_scenario

    stream = inputs.large_team_runs(seed)
    runs: List[Run] = []
    start = time.perf_counter()
    while True:
        cell, run_seed = next(stream)
        first = sum(len(s) for s in timer.spans()) if timer is not None else 0
        with Slice() as timing:
            result = run_scenario(Scenario.from_dict(cell), run_seed)
        checker.verdict(cell, run_seed, result.verdict)
        runs.append(Run(timing, first))
        if len(runs) % 2:
            continue
        if count is not None and len(runs) >= count:
            return runs
        if budget is not None:
            measured = time.perf_counter() - start - probes.spent
            if measured >= budget:
                return runs
            probes.due(measured / budget)


def _warm_numpy() -> None:
    from repro.experiments.runner import Scenario, run_scenario

    run_scenario(Scenario("random", 16, f=15, scheduler="fsync"), 0)


def _raw_wall(runs: List[Run]) -> float:
    return sum(run.raw_s for run in runs)


def _per_class(values: List[float]) -> float:
    """Runs alternate class A and QR first rounds, whose costs differ by
    about 2x: the balanced median over the two."""
    return balanced_median((i % 2, value) for i, value in enumerate(values))


def _large_figures(runs: List[Run], walls: List[float], scaled: bool) -> dict:
    """Gated figures from the runs and every step's wall time.

    Run times are heavy-tailed (a QR run now and then takes ten times its
    median), so a total over a 30 s run moves with a single run; per-run
    figures go through per-class medians instead, and the tail is on the
    report line."""
    bounds = [run.first_step for run in runs] + [len(walls)]
    steps: List[float] = []
    seconds: List[float] = []
    step_rates: List[float] = []
    firsts: List[float] = []
    for run, begin, end in zip(runs, bounds, bounds[1:]):
        factor = run.factor if scaled else 1.0
        steps += [wall * factor for wall in walls[begin:end]]
        seconds.append(run.raw_s * factor)
        step_rates.append((end - begin) / seconds[-1])
        firsts.append(walls[begin] * factor)
    return {
        "throughput_per_s": 1.0 / _per_class(seconds),
        "serial_per_s": _per_class(step_rates),
        "p50_ms": 1e3 * median(steps),
        "heavy_p50_ms": 1e3 * _per_class(firsts),
        "run_p95_s": tail(seconds, 0.95),
        "step_p95_ms": ms(tail(steps, 0.95)),
        "step_samples": len(steps),
    }


def large_team(seed: int, seconds: float, trace: bool) -> dict:
    from repro.geometry import kernels
    from repro.sim import engine

    checker = Checker()
    probes = setup_probes(1, "numpy", TRACE_SETUP_REPEATS if trace else SETUP_REPEATS)
    kernels.set_backend("numpy")
    _warm_numpy()
    if trace:
        count = 4
        before = _raw_wall(_large_runs(seed, checker, None, count))
        tracer = Tracer()
        with tracer:
            install_core(tracer)
            traced_wall = _raw_wall(_large_runs(seed, checker, None, count))
        after = _raw_wall(_large_runs(seed, checker, None, count))
        untraced_wall = (before + after) / 2
        summary = tracer.summary()
        result = {
            "layers": layer_table(
                [summary],
                [tracer.counts],
                {
                    "sim.rounds_per_run": rounds_per_run(summary, count),
                    "trace.coverage_frac": tracer.covered_s() / traced_wall,
                    "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
                },
            ),
            "report": {"traced_seeds": count},
        }
    else:
        # Step latencies come from a one-span timer on Simulation.step.
        timer = Tracer()
        with timer:
            timer.wrap(engine.Simulation, "step", "sim.step")
            runs = _large_runs(seed, checker, seconds, None, timer, probes)
        [spans] = timer.spans()
        walls = [end - begin for _, begin, end, _ in spans]
        gated = _large_figures(runs, walls, scaled=True)
        report = {
            "seeds_per_s": gated["throughput_per_s"],
            "steps_per_s": gated["serial_per_s"],
            "run_p50_s": median([run.raw_s * run.factor for run in runs]),
            "seeds_per_s_total": len(runs) / sum(r.raw_s * r.factor for r in runs),
            "step_p50_ms": gated["p50_ms"],
            "run_p95_s": gated.pop("run_p95_s"),
            "step_p95_ms": gated.pop("step_p95_ms"),
            "runs": len(runs),
            "step_samples": gated.pop("step_samples"),
            "speed_factor": factor_summary([run.factor for run in runs]),
            "unscaled": _large_figures(runs, walls, scaled=False),
        }
        result = {"e2e": dict(gated, peak_rss_mb=peak_rss_mb()), "report": report}
    result["checker"] = checker
    result["setup_s"] = probes.median()
    return result
