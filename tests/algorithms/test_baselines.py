"""Unit tests for the baseline algorithms."""

import pytest

from repro.algorithms import (
    ALGORITHMS,
    CentroidConvergence,
    GatheringAlgorithm,
    NaiveLeaderGather,
    NumericalWeberGather,
    SequentialGather,
    WaitFreeGather,
)
from repro.core import Configuration
from repro.geometry import Point
from repro.sim import CrashAtRounds, RandomSubset, Simulation
from repro.workloads import generate

from ..conftest import regular_ngon

O = Point(0.0, 0.0)


class TestRegistry:
    def test_all_algorithms_registered(self):
        assert set(ALGORITHMS) == {
            "wait-free-gather",
            "centroid",
            "weber-numeric",
            "sequential",
            "naive-leader",
        }

    def test_registry_names_match_instances(self):
        for name, cls in ALGORITHMS.items():
            assert cls.name == name

    def test_protocol_conformance(self):
        for cls in ALGORITHMS.values():
            assert isinstance(cls(), GatheringAlgorithm)


class TestCentroid:
    def test_moves_to_center_of_gravity(self):
        c = Configuration([O, Point(3, 0), Point(0, 3)])
        dest = CentroidConvergence().compute(c, O)
        assert dest.close_to(Point(1, 1))

    def test_counts_multiplicities(self):
        c = Configuration([O, O, O, Point(4, 0)])
        dest = CentroidConvergence().compute(c, O)
        assert dest.close_to(Point(1, 0))

    def test_gathers_under_fsync_no_crashes(self):
        result = Simulation(
            CentroidConvergence(), generate("random", 6, 1), seed=1
        ).run()
        assert result.gathered  # FSYNC + rigid: one hop to the centroid

    def test_crashed_robot_drags_the_rally_point(self):
        pts = generate("random", 6, 2)
        # Private frames: each robot's centroid carries its own frame
        # round-trip noise, so the survivors never stack exactly (with
        # one shared global-frame LOOK they land on one bitwise point).
        result = Simulation(
            CentroidConvergence(),
            pts,
            scheduler=RandomSubset(0.5),
            crash_adversary=CrashAtRounds({0: 0}),
            frames="random",
            seed=3,
            max_rounds=300,
        ).run()
        # The unique fixpoint of the centroid rule with a corpse is the
        # corpse's own position: the survivors converge towards it only
        # geometrically, far slower than the paper's algorithm — after
        # 300 rounds they are still not within sensor resolution.
        assert not result.gathered
        wfg = Simulation(
            WaitFreeGather(),
            pts,
            scheduler=RandomSubset(0.5),
            crash_adversary=CrashAtRounds({0: 0}),
            frames="random",
            seed=3,
            max_rounds=300,
        ).run()
        assert wfg.gathered and wfg.rounds < 100


class TestNumericalWeber:
    def test_targets_geometric_median(self):
        pts = regular_ngon(5, radius=2.0)
        c = Configuration(pts)
        dest = NumericalWeberGather().compute(c, pts[0])
        assert dest.close_to(O)

    def test_gathers_with_crashes(self):
        result = Simulation(
            NumericalWeberGather(),
            generate("random", 7, 3),
            scheduler=RandomSubset(0.6),
            crash_adversary=CrashAtRounds({1: 0, 2: 4}),
            seed=5,
            max_rounds=4000,
        ).run()
        assert result.gathered


class TestSequential:
    def test_single_mover_only(self):
        pts = [O, O, Point(1, 0), Point(5, 5), Point(2, 3)]
        c = Configuration(pts)
        algo = SequentialGather()
        movers = [
            p for p in c.support if not algo.compute(c, p).close_to(p, c.tol)
        ]
        assert len(movers) == 1

    def test_target_position_stays(self):
        pts = [O, O, Point(1, 0), Point(5, 5)]
        c = Configuration(pts)
        assert SequentialGather().compute(c, O) == O

    def test_gathers_fault_free(self):
        result = Simulation(
            SequentialGather(),
            generate("random", 5, 4),
            seed=2,
            max_rounds=4000,
        ).run()
        assert result.gathered

    def test_deadlocks_when_mover_crashes(self):
        pts = [O, O, Point(1, 0), Point(5, 5)]
        result = Simulation(
            SequentialGather(),
            pts,
            crash_adversary=CrashAtRounds({2: 0}),  # the designated mover
            seed=0,
            max_rounds=500,
        ).run()
        assert result.verdict == "stalled"


class TestNaiveLeader:
    def test_unique_leader_when_asymmetric(self):
        pts = generate("asymmetric", 6, 1)
        c = Configuration(pts)
        algo = NaiveLeaderGather()
        dests = {algo.compute(c, p) for p in c.support}
        assert len(dests) == 1

    def test_ties_scatter_in_symmetric_configs(self):
        pts = regular_ngon(4, radius=2.0)
        c = Configuration(pts)
        algo = NaiveLeaderGather()
        dests = {algo.compute(c, p) for p in c.support}
        assert len(dests) > 1  # disagreement: the anonymity failure

    def test_gathers_on_easy_workloads(self):
        result = Simulation(
            NaiveLeaderGather(), generate("asymmetric", 6, 2), seed=1,
            max_rounds=2000,
        ).run()
        assert result.gathered
