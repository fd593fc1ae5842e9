"""Disorientation with chirality: global behaviour must not depend on
the robots' private coordinate systems.

The paper's robots have no common North and no common unit of distance,
only a common clockwise direction.  The simulator realizes this with
random orientation-preserving frames; these tests pin down that the
*global* behaviour is frame-independent: identity-frame runs and
random-frame runs of the same deterministic scenario produce the same
trajectory up to numerical noise.

The engine has two LOOK paths (see :mod:`repro.sim.engine`): with
``frames="identity"`` it computes one destination per occupied point in
the global frame, with ``frames="random"`` every robot runs its own
private-frame LOOK.  The scenario matrix below crosses schedulers x
movement models x crash adversaries, so each RNG substream (scheduling,
movement, crashes) is exercised alone and together, and asserts the two
paths agree seed for seed: same verdict after the same rounds, same
crashes and classification sequence, final positions within
``POSITION_TOL``.
"""

import pytest

from repro.algorithms import WaitFreeGather
from repro.core import Configuration, classify, wait_free_gather
from repro.experiments.runner import Scenario, run_scenario
from repro.geometry import Point, kernels, random_frame
from repro.sim import FullySynchronous, RigidMovement, Simulation
from repro.workloads import generate

import random


POSITION_TOL = 1e-6

SCHEDULERS = ["fsync", "round-robin", "random"]
MOVEMENTS = ["rigid", "adversarial-stop", "random-stop", "collusive-stop"]
CRASHES = ["none", "random", "after-move", "elected"]

MATRIX = [
    (scheduler, movement, crash)
    for scheduler in SCHEDULERS
    for movement in MOVEMENTS
    for crash in CRASHES
]

WORKLOADS = ["asymmetric", "multiple", "linear-unique", "regular-polygon",
             "linear-interval", "qr-occupied-center"]


def _framed_destination(points, me, frame):
    config = Configuration([frame.to_local(p) for p in points])
    dest_local = wait_free_gather(config, frame.to_local(me))
    return frame.to_global(dest_local)


class TestSingleStepEquivariance:
    """wait_free_gather commutes with orientation-preserving frames."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_destination_equivariant(self, workload):
        points = generate(workload, 8, 2)
        reference = {
            me: wait_free_gather(Configuration(points), me)
            for me in Configuration(points).support
        }
        for frame_seed in range(5):
            frame = random_frame(
                random.Random(frame_seed), origin=Point(1.5, -0.5)
            )
            for me, expected in reference.items():
                got = _framed_destination(points, me, frame)
                assert got.distance_to(expected) < 1e-6, (
                    f"{workload} frame {frame_seed} at {me}"
                )

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_classification_invariant(self, workload):
        points = generate(workload, 8, 3)
        reference = classify(Configuration(points))
        for frame_seed in range(5):
            frame = random_frame(random.Random(frame_seed))
            framed = Configuration([frame.to_local(p) for p in points])
            assert classify(framed) is reference


class TestWholeRunEquivalence:
    def test_identity_vs_random_frames_same_deterministic_run(self):
        # FSYNC + rigid motion is fully deterministic modulo frames: the
        # two runs must visit the same global configurations.
        points = generate("asymmetric", 7, 4)
        res_id = Simulation(
            WaitFreeGather(), points, frames="identity",
            scheduler=FullySynchronous(), movement=RigidMovement(), seed=1,
        ).run()
        res_rand = Simulation(
            WaitFreeGather(), points, frames="random",
            scheduler=FullySynchronous(), movement=RigidMovement(), seed=2,
        ).run()
        assert res_id.gathered and res_rand.gathered
        assert res_id.rounds == res_rand.rounds
        assert res_id.gathering_point.distance_to(res_rand.gathering_point) < 1e-6

    def test_algorithm_genuinely_consumes_chirality(self):
        # The algorithm is equivariant under orientation-PRESERVING maps
        # (tested above) but deliberately NOT under reflections: the
        # clockwise side-step in a mirrored world is a different
        # geometric move, so F(mirror(C)) != mirror(F(C)).  If this test
        # ever finds them equal, the implementation stopped consuming
        # the chirality assumption.
        points = [Point(0, 0)] * 3 + [Point(1, 0), Point(3, 0), Point(0, 2)]
        config = Configuration(points)
        blocked = Point(3, 0)
        d = wait_free_gather(config, blocked)
        mirrored = [Point(p.x, -p.y) for p in points]
        d_mirror = wait_free_gather(Configuration(mirrored), Point(3, 0))
        assert d.y != 0.0  # the side-step leaves the axis...
        assert d_mirror.distance_to(Point(d.x, -d.y)) > 0.1  # ...chirally
        # Both are still legal side-steps: distance to the target kept.
        assert abs(d.norm() - 3.0) < 1e-9
        assert abs(d_mirror.norm() - 3.0) < 1e-9


def assert_equivalent(private, global_):
    assert global_.verdict == private.verdict
    assert global_.rounds == private.rounds
    assert global_.live_ids == private.live_ids
    assert global_.crashed_ids == private.crashed_ids
    assert global_.classes_seen == private.classes_seen
    assert global_.initial_class == private.initial_class
    assert set(global_.final_positions) == set(private.final_positions)
    for rid, p in private.final_positions.items():
        q = global_.final_positions[rid]
        assert abs(p.x - q.x) <= POSITION_TOL
        assert abs(p.y - q.y) <= POSITION_TOL
    if private.gathering_point is None:
        assert global_.gathering_point is None
    else:
        assert global_.gathering_point is not None
        assert (
            private.gathering_point.distance_to(global_.gathering_point)
            <= POSITION_TOL
        )
    assert global_.total_distance == pytest.approx(
        private.total_distance, abs=1e-6, rel=1e-9
    )


def assert_look_paths_agree(scenario, seeds):
    private = Scenario(**{**scenario.to_dict(), "frames": "random"})
    for seed in seeds:
        assert_equivalent(
            run_scenario(private, seed), run_scenario(scenario, seed)
        )


@pytest.mark.parametrize("scheduler,movement,crash", MATRIX)
def test_matrix_cell_look_paths_agree(scheduler, movement, crash):
    scenario = Scenario(
        workload="random",
        n=7,
        f=0 if crash == "none" else 2,
        scheduler=scheduler,
        crashes=crash,
        movement=movement,
        max_rounds=2_000,
    )
    assert_look_paths_agree(scenario, [0, 1])


@pytest.mark.skipif(
    "numpy" not in kernels.available_backends(),
    reason="NumPy not importable in this environment",
)
@pytest.mark.parametrize(
    "workload,n",
    [
        ("random", 10),
        ("asymmetric", 12),
        ("multiple", 11),
        ("regular-polygon", 12),
        ("linear-interval", 16),
    ],
)
def test_numpy_backend_workloads_look_paths_agree(workload, n):
    """Same comparison with the numpy kernels active on both paths."""
    scenario = Scenario(
        workload=workload,
        n=n,
        f=1,
        scheduler="random",
        crashes="random",
        movement="adversarial-stop",
        max_rounds=2_000,
    )
    with kernels.backend("numpy"):
        assert_look_paths_agree(scenario, [0, 1, 2])
