"""Shared experiment plumbing: build-and-run simulation batches.

Experiments declare *scenarios* (workload kind, team size, fault budget,
scheduler, movement model, algorithm) and the runner executes them over a
seed range, returning raw results for the experiment module to fold into
its table.  Everything is deterministic in the seed.

Execution is *wait-free* (see :mod:`repro.resilience`): a crashed,
killed or hung worker never loses the batch — incomplete seeds are
retried with backoff, broken pools are rebuilt, and with a checkpoint
journal (``journal_path``) an interrupted ``run_batch`` resumes without
re-running completed seeds.  Because every seed is a pure function of
``(scenario, seed)``, retried and resumed results are bit-identical to
a clean sequential run.
"""

from __future__ import annotations

import os
import re
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from .. import obs as _obs
from ..obs import aggregate
from ..resilience import (
    ChaosPolicy,
    ResilientExecutor,
    RunPolicy,
    SweepJournal,
    atomic_write,
)
from ..algorithms import ALGORITHMS, GatheringAlgorithm
from ..geometry import kernels
from ..sim import (
    AdversarialStop,
    CollusiveStop,
    HalfSplitAdversary,
    CrashAfterMove,
    CrashAtRounds,
    CrashElected,
    FullySynchronous,
    LaggardAdversary,
    NoCrashes,
    PerRobotSpeed,
    PhasedActivation,
    PoissonScheduler,
    RandomCrashes,
    RandomStop,
    RandomSubset,
    RigidMovement,
    RoundRobin,
    Simulation,
    SimulationResult,
)
from ..sim.trace import TraceMeta
from ..workloads import CLASS_GENERATORS, check_size, generate

__all__ = [
    "Scenario",
    "SCHEDULERS",
    "MOVEMENTS",
    "CRASHES",
    "ENGINES",
    "FRAMES",
    "build_simulation",
    "run_scenario",
    "run_batch",
    "parallel_map",
    "executor",
    "make_scheduler",
    "make_crashes",
    "make_movement",
]

#: Scheduler factories by name; fresh instances per run (schedulers may
#: be stateful).
SCHEDULERS: Dict[str, Callable[[], object]] = {
    "fsync": FullySynchronous,
    "round-robin": RoundRobin,
    "random": lambda: RandomSubset(0.5),
    "laggard": LaggardAdversary,
    "half-split": HalfSplitAdversary,
    "poisson": lambda: PoissonScheduler(0.5),
}

MOVEMENTS: Dict[str, Callable[[], object]] = {
    "rigid": RigidMovement,
    "adversarial-stop": lambda: AdversarialStop(0.2),
    "random-stop": lambda: RandomStop(0.05),
    "collusive-stop": lambda: CollusiveStop(0.2),
    # Three speed tiers cycled over robot ids: the fastest robot covers
    # 20x the slowest per activation — wide enough to surface the
    # heterogeneity effects E17 measures, with delta = 0.05 preserved.
    "per-robot-speed": lambda: PerRobotSpeed((1.0, 0.25, 0.05)),
}

#: Crash adversary factories by name, called with the fault budget f.
CRASHES: Dict[str, Callable[[int], object]] = {
    "none": lambda f: NoCrashes(),
    "random": lambda f: RandomCrashes(f=f, rate=0.25),
    "after-move": lambda f: CrashAfterMove(f=f),
    "elected": lambda f: CrashElected(f=f),
}

#: Execution models: the paper's semi-synchronous ATOM rounds, or the
#: ASYNC (CORDA) phased activation.
ENGINES = ("atom", "async")

#: LOOK frames: ``"identity"`` (global-frame LOOK, one destination per
#: occupied point) or ``"random"`` (per-robot private-frame LOOK); see
#: :mod:`repro.sim.engine`.
FRAMES = ("identity", "random")


def make_scheduler(name: str):
    """Fresh scheduler instance by registry name."""
    return SCHEDULERS[name]()


def make_movement(name: str):
    """Fresh movement model instance by registry name."""
    return MOVEMENTS[name]()


def make_crashes(kind: str, f: int):
    """Fresh crash adversary by registry name (``f == 0`` means none)."""
    if kind not in CRASHES:
        raise ValueError(f"unknown crash adversary kind {kind!r}")
    return NoCrashes() if f == 0 else CRASHES[kind](f)


@dataclass(frozen=True)
class Scenario:
    """One cell of an experiment matrix — the one scenario schema.

    Every layer that names a scenario (the CLI flags, the serve
    protocol, trace archives, sweep journals) builds one of these, and
    the constructor rejects bad values with :class:`ValueError`: names
    outside their registry, non-integer or out-of-range sizes, a team
    size its workload cannot build (``check_size``), a non-positive
    visibility radius.
    """

    workload: str
    n: int
    algorithm: str = "wait-free-gather"
    scheduler: str = "random"
    crashes: str = "random"
    f: int = 0
    movement: str = "random-stop"
    max_rounds: int = 20_000
    #: One of :data:`FRAMES`.
    frames: str = "identity"
    halt_on_bivalent: bool = True
    #: One of :data:`ENGINES`.  Part of the scenario — and therefore of
    #: the trace schema — so archived ASYNC runs replay on the right
    #: engine; under ``"async"`` ``max_rounds`` bounds scheduler ticks.
    engine: str = "atom"
    #: Finite visibility radius threaded into every LOOK snapshot
    #: (``None`` = the paper's unlimited visibility).  A new field with a
    #: default, so traces archived before it existed keep loading.
    visibility: Optional[float] = None

    def __post_init__(self) -> None:
        for name, registry in (
            ("workload", CLASS_GENERATORS),
            ("algorithm", ALGORITHMS),
            ("scheduler", SCHEDULERS),
            ("crashes", CRASHES),
            ("movement", MOVEMENTS),
            ("frames", FRAMES),
            ("engine", ENGINES),
        ):
            value = getattr(self, name)
            if not isinstance(value, str) or value not in registry:
                raise ValueError(
                    f"unknown {name} {value!r}; known: {', '.join(registry)}"
                )
        for name, low in (("n", 1), ("f", 0), ("max_rounds", 1)):
            value = getattr(self, name)
            # bool is an int subclass; "n": true is a bug, not a 1.
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"{name} must be an integer, got {type(value).__name__}"
                )
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        check_size(self.workload, self.n)
        vis = self.visibility
        if vis is not None and (
            isinstance(vis, bool)
            or not isinstance(vis, (int, float))
            or not vis > 0
        ):
            raise ValueError(
                f"visibility must be a positive radius or None, got {vis!r}"
            )
        if not isinstance(self.halt_on_bivalent, bool):
            raise ValueError(
                "halt_on_bivalent must be a boolean, got "
                f"{type(self.halt_on_bivalent).__name__}"
            )

    def label(self) -> str:
        prefix = "" if self.engine == "atom" else f"{self.engine}/"
        suffix = (
            "" if self.visibility is None else f"/vis={self.visibility:g}"
        )
        if self.frames != "identity":
            suffix += f"/frames={self.frames}"
        return (
            f"{prefix}{self.workload}/n={self.n}/f={self.f}/{self.scheduler}/"
            f"{self.crashes}/{self.movement}{suffix}"
        )

    def to_dict(self) -> dict:
        """Canonical JSON-ready form — the trace schema's scenario block."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Inverse of :meth:`to_dict`; rejects unknown keys loudly so a
        trace written by a newer schema never half-loads (bad values are
        the constructor's to reject)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown Scenario fields: {sorted(unknown)}")
        return cls(**data)

    def engine_seed(self, seed: int) -> int:
        """The engine seed derived from a sweep seed (Knuth multiplicative
        hash, decorrelating neighbouring sweep seeds)."""
        return seed * 2654435761 % (2**31)


def build_simulation(
    scenario: Scenario,
    seed: int,
    *,
    engine_seed: Optional[int] = None,
    record_trace: bool = False,
) -> Simulation:
    """The one construction path from a scenario to an engine instance.

    ``repro check --replay`` rebuilds archived runs through this exact
    function, so anything that influences the execution must flow from
    the :class:`Scenario` (plus the two seeds) — never from ambient
    state.  ``engine_seed`` defaults to :meth:`Scenario.engine_seed`;
    the CLI ``simulate``, ``profile`` and ``render`` commands pass the raw
    ``--seed`` instead.
    ``scenario.engine`` selects the execution model; for ``"async"``
    the scenario's ``max_rounds`` bounds scheduler ticks.
    """
    points = generate(scenario.workload, scenario.n, seed)
    algorithm: GatheringAlgorithm = ALGORITHMS[scenario.algorithm]()
    resolved_seed = (
        scenario.engine_seed(seed) if engine_seed is None else engine_seed
    )
    # Every ASYNC cycle needs two activations, hence the looser
    # fairness bound.
    phased = (
        dict(activation=PhasedActivation(), fairness_bound=64)
        if scenario.engine == "async"
        else {}
    )
    return Simulation(
        algorithm,
        points,
        scheduler=make_scheduler(scenario.scheduler),
        crash_adversary=make_crashes(scenario.crashes, scenario.f),
        movement=make_movement(scenario.movement),
        seed=resolved_seed,
        frames=scenario.frames,
        max_rounds=scenario.max_rounds,
        halt_on_bivalent=scenario.halt_on_bivalent,
        record_trace=record_trace,
        visibility=scenario.visibility,
        **phased,
    )


def run_scenario(
    scenario: Scenario,
    seed: int,
    *,
    engine_seed: Optional[int] = None,
    record_trace: bool = False,
) -> SimulationResult:
    """Execute one scenario with one seed (fully deterministic).

    With ``record_trace`` the result's trace carries a full
    :class:`~repro.sim.trace.TraceMeta` block, which is what makes the
    archive self-describing: ``repro check`` can re-simulate it from the
    JSON alone.
    """
    # The capture point precedes the build: workload generation and
    # algorithm setup do real geometry, and that work belongs to the
    # seed's delta — otherwise it vanishes between payload windows.
    before = aggregate.capture_before() if _obs.state.enabled else None
    sim = build_simulation(
        scenario, seed, engine_seed=engine_seed, record_trace=record_trace
    )
    started = time.perf_counter() if _obs.state.enabled else 0.0
    result = sim.run()
    if _obs.state.enabled:
        # Per-worker throughput: keyed by pid so a pooled sweep shows one
        # row per worker process when snapshots are merged by the CLI.
        elapsed = time.perf_counter() - started
        _obs.metrics.inc("runner.runs")
        _obs.metrics.inc("runner.rounds", result.rounds)
        _obs.metrics.observe("runner.run_seconds", elapsed)
        _obs.metrics.observe(f"runner.worker.{os.getpid()}.run_seconds", elapsed)
        # The seed's exact registry delta + span tail rides home on the
        # result, so a pooled sweep's parent can aggregate what each
        # worker recorded (repro sweep --obs).  Computed from snapshots,
        # never by resetting the registry — the cumulative view that
        # `repro experiment --obs` prints must survive.
        result.obs = aggregate.seed_payload(before)
    if result.trace is not None:
        result.trace.meta = TraceMeta.for_run(
            scenario=scenario.to_dict(),
            seed=seed,
            engine_seed=sim.seed,
            tol=sim.tol,
            engine=scenario.engine,
        )
    return result


def _pin_backend(name: str) -> None:
    """Worker-side backend pin: process state *and* environment.

    Exporting ``REPRO_BACKEND`` matters beyond documentation — any
    grandchild process a worker spawns (the differential checker, a
    nested pool on a spawn-start platform) resolves its backend from the
    environment at import time, so a worker that only called
    :func:`set_backend` would hand its children the wrong default.
    """
    os.environ["REPRO_BACKEND"] = name
    kernels.set_backend(name)


def _call_pinned(fn: Callable, backend_name: str, item):
    """Run ``fn(item)`` with the kernel backend pinned to the *caller's*
    choice at submission time (module-level so it pickles)."""
    if kernels.get_backend() != backend_name:
        _pin_backend(backend_name)
    return fn(item)


@contextmanager
def executor(
    workers: Optional[int], policy: Optional[RunPolicy] = None
) -> Iterator[Optional[ResilientExecutor]]:
    """Shared worker pool for a series of batches (``None`` = sequential).

    Creating a process pool costs real time, so experiments that call
    :func:`run_batch` per matrix cell open one pool here and thread it
    through every call.  The yielded object is a
    :class:`~repro.resilience.ResilientExecutor`: it rebuilds its
    underlying pool transparently when a worker dies or hangs, and its
    teardown cancels queued futures so Ctrl-C never hangs behind a full
    queue.  The initializer pins the parent's kernel backend choice
    (state + ``REPRO_BACKEND``) so worker processes compute on the same
    backend even on spawn-start platforms and even when it was selected
    via :func:`repro.geometry.kernels.set_backend` rather than the
    environment variable.  :func:`parallel_map` additionally re-pins per
    call, so a backend switch between batches (as in the differential
    checker) reaches workers created earlier.
    """
    if not workers or workers <= 1:
        yield None
        return
    pool = ResilientExecutor(
        workers,
        policy=policy,
        initializer=_pin_backend,
        initargs=(kernels.get_backend(),),
    )
    try:
        yield pool
    finally:
        pool.shutdown(cancel=True)


def parallel_map(
    fn: Callable,
    items: Sequence,
    workers: Optional[int] = None,
    pool: Optional[ResilientExecutor] = None,
    *,
    policy: Optional[RunPolicy] = None,
    chaos: Optional[ChaosPolicy] = None,
    keys: Optional[Sequence[str]] = None,
    on_result: Optional[Callable[[int, object], None]] = None,
    on_failure: Optional[Callable[[str, BaseException, bool], None]] = None,
) -> List:
    """``[fn(x) for x in items]``, optionally across worker processes.

    Results come back in input order regardless of completion order, so
    parallel execution is a pure wall-clock optimization: every item is
    computed by a deterministic function of its own arguments, and the
    returned list is bit-identical to the sequential one — including
    under retries, timeouts and pool rebuilds (``policy``) and injected
    chaos faults (``chaos``, default: parsed from ``REPRO_CHAOS``).
    The backend active in the calling process at call time is pinned
    around every worker-side invocation, so long-lived pools never
    compute on a backend the caller has since switched away from.

    ``on_result(index, value)`` fires as items complete (completion
    order) — the checkpoint journal of :func:`run_batch` hangs off it.
    ``on_failure(key, exc, strike)`` fires per failed attempt — the
    sweep dashboard's retry/timeout counters hang off it.
    """
    items = list(items)
    call = partial(_call_pinned, fn, kernels.get_backend())
    if chaos is None:
        chaos = ChaosPolicy.from_env()
    if pool is not None:
        return pool.map_resilient(
            call, items, keys=keys, chaos=chaos, on_result=on_result,
            on_failure=on_failure, policy=policy,
        )
    if workers and workers > 1 and len(items) > 1:
        with executor(workers, policy=policy) as shared:
            return shared.map_resilient(
                call, items, keys=keys, chaos=chaos, on_result=on_result,
                on_failure=on_failure, policy=policy,
            )
    if policy is not None or on_result is not None or (
        chaos is not None and chaos.enabled
    ):
        # Serial but resilient: same retry/chaos/checkpoint machinery,
        # no process pool (chaos kills become in-process exceptions).
        serial = ResilientExecutor(None, policy=policy)
        return serial.map_resilient(
            call, items, keys=keys, chaos=chaos, on_result=on_result,
            on_failure=on_failure, policy=policy,
        )
    return [fn(x) for x in items]


def _archive_slug(label: str) -> str:
    """Filesystem-safe corpus file stem for a scenario label."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", label).strip("_")


def run_batch(
    scenario: Scenario,
    seeds: Sequence[int],
    workers: Optional[int] = None,
    pool: Optional[ResilientExecutor] = None,
    archive_dir: Optional[str] = None,
    archive_if: Optional[Callable[[SimulationResult], bool]] = None,
    *,
    policy: Optional[RunPolicy] = None,
    chaos: Optional[ChaosPolicy] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    on_seed_result: Optional[
        Callable[[int, SimulationResult], None]
    ] = None,
    on_failure: Optional[Callable[[str, BaseException, bool], None]] = None,
) -> List[SimulationResult]:
    """Run a scenario over a seed range (optionally in parallel).

    Each seed is an independent deterministic simulation, so sharding by
    seed across processes preserves the exact sequential results —
    including under the resilience machinery: ``policy`` configures
    per-seed timeouts, bounded retries with backoff, and pool-rebuild
    limits; ``chaos`` (default: ``REPRO_CHAOS``) injects deterministic
    faults for the chaos suite.

    ``journal_path`` turns on crash-safe checkpointing: every completed
    seed is appended (fsynced) to a ``repro-sweep-v1`` JSONL journal the
    moment it finishes, and with ``resume=True`` seeds already in the
    journal are *not* re-run — their recorded results (bit-identical by
    float64 round-trip) are returned in place.  A sweep killed at any
    point therefore resumes from its last checkpoint.

    ``archive_dir`` (or the ``REPRO_ARCHIVE_DIR`` environment variable)
    turns on failure archiving: every seed whose result satisfies
    ``archive_if`` (default: did not gather and was not a detected
    impossibility) is re-simulated with trace recording — bit-identical
    to the sweep run, by determinism — and written atomically to the
    directory as a self-describing trace JSON that ``repro check
    --replay`` accepts.  The archived corpus is what CI replays on both
    backends.

    ``on_seed_result(seed, result)`` fires per completed seed —
    journal-resumed seeds first (their recorded results), then fresh
    seeds in completion order; ``on_failure(key, exc, strike)`` fires
    per failed attempt.  The live sweep dashboard hangs off both.
    """
    seeds = list(seeds)
    completed: Dict[int, SimulationResult] = {}
    journal: Optional[SweepJournal] = None
    if journal_path:
        journal = SweepJournal.open(
            journal_path, scenario.to_dict(), resume=resume
        )
        completed = journal.completed() if resume else {}
    todo = [seed for seed in seeds if seed not in completed]
    label = scenario.label()

    if on_seed_result is not None:
        for seed in seeds:
            if seed in completed:
                on_seed_result(seed, completed[seed])

    def checkpoint(index: int, result: SimulationResult) -> None:
        if journal is not None:
            journal.append(todo[index], result)
        if on_seed_result is not None:
            on_seed_result(todo[index], result)

    try:
        fresh = parallel_map(
            partial(run_scenario, scenario),
            todo,
            workers=workers,
            pool=pool,
            policy=policy,
            chaos=chaos,
            keys=[f"{label}#seed{seed}" for seed in todo],
            on_result=checkpoint,
            on_failure=on_failure,
        )
    finally:
        if journal is not None:
            journal.close()

    by_seed = dict(completed)
    by_seed.update(zip(todo, fresh))
    results = [by_seed[seed] for seed in seeds]

    archive_dir = archive_dir or os.environ.get("REPRO_ARCHIVE_DIR")
    if archive_dir:
        should_archive = archive_if or (
            lambda r: not r.gathered and r.verdict != "impossible"
        )
        for seed, result in zip(seeds, results):
            if not should_archive(result):
                continue
            replayed = run_scenario(scenario, seed, record_trace=True)
            path = os.path.join(
                archive_dir,
                f"{_archive_slug(scenario.label())}-seed{seed}.json",
            )
            atomic_write(path, replayed.trace.to_json(indent=2))
    return results
