"""Seeded inputs of the three workloads, and the verdicts they must get.

Everything the program receives is drawn here from the benchmark seed, so
one seed always yields the same scenario lists and the same request
schedule (:func:`digest` fingerprints them), and another seed yields
different ones.  The program never sees the benchmark seed itself.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple

#: Every ``repro.workloads.generate`` family except ``gathered`` (already
#: gathered, nothing to run): the B/M/L1W/L2W/QR/A class mix of the
#: paper's case analysis.
SWEEP_FAMILIES = (
    "random",
    "multiple",
    "bivalent",
    "near-bivalent",
    "linear-unique",
    "linear-interval",
    "regular-polygon",
    "biangular",
    "qr-occupied-center",
    "unsafe-ray",
    "asymmetric",
)
SWEEP_SIZES = (8, 16)
#: Seeds per matrix cell in one block; a block is the unit a timed pass
#: completes, so every pass runs the same class mix.
SEEDS_PER_CELL = 4

#: large-team alternates a class-A and a class-QR first round.
LARGE_FAMILIES = ("random", "regular-polygon")
LARGE_N = 64

#: Small scenarios behind the serve traffic (families valid for odd n).
SERVE_FAMILIES = (
    "random",
    "asymmetric",
    "multiple",
    "linear-unique",
    "regular-polygon",
    "near-bivalent",
    "qr-occupied-center",
)
SERVE_SIZES = (6, 7, 8)
WARM_KEYS = 32
#: One serve request in this many names a fresh (never requested) seed.
FRESH_EVERY = 10

_SEED_SPACE = 2**31


def scenario_dict(workload: str, n: int, scheduler: str) -> dict:
    """A ``Scenario.to_dict()``-shaped scenario with f = n - 1 crashes."""
    return {
        "workload": workload,
        "n": n,
        "f": n - 1,
        "scheduler": scheduler,
        "crashes": "random",
        "movement": "random-stop",
    }


def expected_verdict(workload: str) -> str:
    """Theorem 5.1: gathered from every non-bivalent start with f < n;
    a bivalent start is detected as impossible."""
    return "impossible" if workload == "bivalent" else "gathered"


class Checker:
    """Correctness gate: counts attempted and failed operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def verdict(self, scenario: dict, seed: int, verdict: str) -> None:
        self.attempted += 1
        expected = expected_verdict(scenario["workload"])
        if verdict != expected:
            self.fail(
                f"{scenario['workload']}/n={scenario['n']} seed {seed}: "
                f"verdict {verdict!r}, Theorem 5.1 says {expected!r}"
            )


def sweep_cells() -> List[dict]:
    return [
        scenario_dict(family, n, "random")
        for family in SWEEP_FAMILIES
        for n in SWEEP_SIZES
    ]


def sweep_block(seed: int, block: int) -> List[Tuple[dict, List[int]]]:
    """Block ``block`` of sweep-mixed: every cell with its own seeds."""
    rng = random.Random(f"sweep-mixed:{seed}:{block}")
    return [
        (cell, [rng.randrange(_SEED_SPACE) for _ in range(SEEDS_PER_CELL)])
        for cell in sweep_cells()
    ]


def large_team_runs(seed: int) -> Iterator[Tuple[dict, int]]:
    """Endless alternating ``(scenario, seed)`` stream of large-team."""
    rng = random.Random(f"large-team:{seed}")
    index = 0
    while True:
        family = LARGE_FAMILIES[index % len(LARGE_FAMILIES)]
        yield scenario_dict(family, LARGE_N, "fsync"), rng.randrange(_SEED_SPACE)
        index += 1


@dataclass(frozen=True)
class Request:
    """One ``POST /run``: the body, and whether its key is fresh."""

    scenario: dict
    seed: int
    fresh: bool

    def body(self) -> bytes:
        return json.dumps(
            {"scenario": self.scenario, "seed": self.seed}, sort_keys=True
        ).encode()

    @property
    def key(self) -> str:
        return json.dumps([self.scenario, self.seed], sort_keys=True)


class RequestMix:
    """The serve-mixed request stream: repeats over a warm key set and
    one fresh seed in every ``FRESH_EVERY`` requests.  Fresh seeds are
    unique across the whole stream, so each one is a cache miss exactly
    once.

    Fresh keys visit the (family, n) cells in turn and only their seeds
    are random, so every stretch of traffic has the same class mix.  In
    :meth:`next`, each run of ``FRESH_EVERY`` requests holds exactly one
    fresh key at a random place, so every stretch of traffic also has
    the same share of misses.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"serve-mixed:{seed}")
        self._cells = [
            scenario_dict(family, n, "random")
            for family in SERVE_FAMILIES
            for n in SERVE_SIZES
        ]
        self._fresh_count = 0
        self._used: set = set()
        self._stratum: List[bool] = []
        self.warm: List[Request] = [self.fresh() for _ in range(WARM_KEYS)]

    def fresh(self) -> Request:
        cell = self._cells[self._fresh_count % len(self._cells)]
        self._fresh_count += 1
        while True:
            request = Request(cell, self._rng.randrange(_SEED_SPACE), True)
            if request.key not in self._used:
                self._used.add(request.key)
                return request

    def repeat(self) -> Request:
        warm = self._rng.choice(self.warm)
        return Request(warm.scenario, warm.seed, False)

    def next(self) -> Request:
        if not self._stratum:
            self._stratum = [False] * FRESH_EVERY
            self._stratum[self._rng.randrange(FRESH_EVERY)] = True
        return self.fresh() if self._stratum.pop() else self.repeat()

    def take(self, count: int) -> List[Request]:
        return [self.next() for _ in range(count)]


def digest(workload: str, seed: int) -> str:
    """Fingerprint of the inputs ``seed`` gives ``workload``."""
    if workload == "sweep-mixed":
        payload: object = [sweep_block(seed, block) for block in range(4)]
    elif workload == "large-team":
        stream = large_team_runs(seed)
        payload = [next(stream) for _ in range(40)]
    elif workload == "serve-mixed":
        mix = RequestMix(seed)
        payload = [
            (r.scenario, r.seed, r.fresh) for r in mix.warm + mix.take(2000)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]

