"""Experiment suite — empirical validation of every claim in the paper.

The paper is a theory paper with no measured tables or figures; the
experiments validate its theorem and lemmas on the simulator and
regenerate the tables recorded in EXPERIMENTS.md (index in DESIGN.md
section 5): E1-E9 cover every paper claim, E12/E13 strengthen them
(adversarial search, progress series), and E10/E11/E14-E17 probe beyond
the paper (ASYNC, byzantine, limited visibility, chirality violations,
sensor noise, the scheduler/model matrix).  Each module exposes
``run(quick)`` -> list of :class:`~repro.experiments.report.Table`.
"""

import inspect

from . import (
    e1_main_theorem,
    e10_async,
    e11_byzantine,
    e12_adversarial_search,
    e13_progress,
    e14_visibility,
    e15_chirality,
    e16_sensor_noise,
    e17_model_matrix,
    e2_bivalent,
    e3_transitions,
    e4_baselines,
    e5_waitfree,
    e6_scalability,
    e7_weber_detection,
    e8_delta,
    e9_safe_points,
)
from .report import Table
from .runner import Scenario, run_batch, run_scenario

__all__ = [
    "EXPERIMENTS",
    "Table",
    "Scenario",
    "run_batch",
    "run_scenario",
    "run_experiment",
]

#: Registry: experiment id -> (module, one-line description).
EXPERIMENTS = {
    "e1": (e1_main_theorem, "Theorem 5.1: gathering with f < n crashes"),
    "e2": (e2_bivalent, "Lemma 5.2: bivalent impossibility"),
    "e3": (e3_transitions, "Lemmas 5.3-5.9: class transitions + invariants"),
    "e4": (e4_baselines, "Baseline comparison (motivation)"),
    "e5": (e5_waitfree, "Lemma 5.1: wait-freedom"),
    "e6": (e6_scalability, "Scalability: rounds/wall-time vs n"),
    "e7": (e7_weber_detection, "Theorem 3.1: quasi-regularity detection"),
    "e8": (e8_delta, "delta-sensitivity of the movement model"),
    "e9": (e9_safe_points, "Definition 8 ablation: safe points"),
    "e10": (e10_async, "Beyond the paper: ASYNC (stale snapshots)"),
    "e11": (e11_byzantine, "Beyond the paper: one byzantine robot"),
    "e12": (e12_adversarial_search, "Adversarial search for the bivalent trap"),
    "e13": (e13_progress, "Progress measures over time (figure series)"),
    "e14": (e14_visibility, "Assumption ablation: limited visibility"),
    "e15": (e15_chirality, "Assumption ablation: chirality violations"),
    "e16": (e16_sensor_noise, "Assumption ablation: sensor noise"),
    "e17": (e17_model_matrix, "Scheduler/model matrix: timing, speeds, visibility"),
}


def run_experiment(experiment_id: str, quick: bool = True, workers=None):
    """Run one experiment by id; returns its list of tables.

    ``workers`` is forwarded to experiments whose ``run`` accepts it
    (the seed-sweep-heavy ones); the rest run sequentially as before.
    """
    try:
        module, _ = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {experiment_id!r}; known: {known}")
    if workers and "workers" in inspect.signature(module.run).parameters:
        return module.run(quick=quick, workers=workers)
    return module.run(quick=quick)
