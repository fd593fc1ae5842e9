"""Unit tests for the experiment runner plumbing."""

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.runner import (
    CRASHES,
    ENGINES,
    FRAMES,
    MOVEMENTS,
    SCHEDULERS,
    Scenario,
    executor,
    make_crashes,
    make_movement,
    make_scheduler,
    parallel_map,
    run_batch,
    run_scenario,
)


class TestFactories:
    @pytest.mark.parametrize(
        "name",
        ["fsync", "round-robin", "random", "laggard", "half-split", "poisson"],
    )
    def test_schedulers(self, name):
        assert make_scheduler(name) is not make_scheduler(name)  # fresh

    @pytest.mark.parametrize(
        "name",
        [
            "rigid",
            "adversarial-stop",
            "random-stop",
            "collusive-stop",
            "per-robot-speed",
        ],
    )
    def test_movements(self, name):
        assert make_movement(name).name.startswith(name.split("(")[0])

    def test_crashes(self):
        assert make_crashes("none", 5).budget == 0
        assert make_crashes("random", 0).budget == 0  # f=0 forces none
        assert make_crashes("random", 3).budget == 3
        assert make_crashes("after-move", 2).budget == 2
        assert make_crashes("elected", 2).budget == 2
        with pytest.raises(ValueError):
            make_crashes("weird", 1)


class TestScenario:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("workload", "nope"),
            ("workload", 3),
            ("algorithm", "nope"),
            ("scheduler", "nope"),
            ("crashes", "nope"),
            ("movement", "nope"),
            ("engine", "batched"),
            ("frames", "mirrored"),
            ("n", "8"),
            ("n", 8.0),
            ("n", True),
            ("n", 0),
            # Size rules of the workload (bivalent: even n).
            ("n", 5),
            ("workload", "biangular"),
            ("workload", "linear-unique"),
            ("f", -1),
            ("f", 1.5),
            ("max_rounds", 0),
            ("max_rounds", None),
            ("visibility", 0),
            ("visibility", -2.5),
            ("visibility", "far"),
            ("visibility", True),
            ("visibility", float("nan")),
            ("halt_on_bivalent", 1),
            ("halt_on_bivalent", "yes"),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            Scenario(**{"workload": "bivalent", "n": 4, field: value})
        with pytest.raises(ValueError, match=field):
            Scenario.from_dict({"workload": "bivalent", "n": 4, field: value})

    def test_every_registry_name_accepted(self):
        for name in SCHEDULERS:
            Scenario(workload="random", n=4, scheduler=name)
        for name in MOVEMENTS:
            Scenario(workload="random", n=4, movement=name)
        for name in CRASHES:
            Scenario(workload="random", n=4, crashes=name)
        for name in ENGINES:
            Scenario(workload="random", n=4, engine=name)
        for name in FRAMES:
            Scenario(workload="random", n=4, frames=name)
        assert Scenario(workload="random", n=1, visibility=2).visibility == 2

    def test_label_mentions_key_parameters(self):
        s = Scenario(workload="random", n=8, f=3)
        label = s.label()
        assert "random" in label and "n=8" in label and "f=3" in label

    def test_label_names_non_default_frames(self, tmp_path):
        default = Scenario(workload="random", n=8, f=3)
        private = Scenario(workload="random", n=8, f=3, frames="random")
        assert "frames" not in default.label()
        assert private.label() == default.label() + "/frames=random"
        # The failure archive is keyed by the label: the two runs of one
        # seed land in two files.
        never = lambda result: True  # noqa: E731 - archive every seed
        for scenario in (default, private):
            run_batch(scenario, [0], archive_dir=str(tmp_path), archive_if=never)
        assert len(list(tmp_path.iterdir())) == 2

    def test_run_scenario_deterministic(self):
        s = Scenario(workload="asymmetric", n=6, f=2, max_rounds=3000)
        r1 = run_scenario(s, seed=4)
        r2 = run_scenario(s, seed=4)
        assert r1.rounds == r2.rounds
        assert r1.verdict == r2.verdict

    def test_run_batch_length(self):
        s = Scenario(workload="multiple", n=6, max_rounds=3000)
        results = run_batch(s, range(3))
        assert len(results) == 3
        assert all(r.gathered for r in results)


def _square(x):
    return x * x


class TestParallelRunner:
    def test_parallel_map_sequential_fallback(self):
        assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]
        assert parallel_map(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_parallel_map_ordering(self):
        assert parallel_map(_square, list(range(20)), workers=4) == [
            x * x for x in range(20)
        ]

    def test_executor_none_for_sequential(self):
        with executor(None) as pool:
            assert pool is None
        with executor(1) as pool:
            assert pool is None

    def test_run_batch_workers_bit_identical(self):
        """Acceptance: workers=4 equals sequential over an E1-style sweep.

        32 seeds of an E1 cell; the parallel shard must return exactly
        the sequential verdicts, round counts and final positions, in
        the same order.
        """
        scenario = Scenario(
            workload="asymmetric",
            n=6,
            f=2,
            scheduler="random",
            crashes="random",
            movement="random-stop",
            max_rounds=5_000,
        )
        seeds = range(32)
        sequential = run_batch(scenario, seeds)
        parallel = run_batch(scenario, seeds, workers=4)
        assert [r.verdict for r in sequential] == [r.verdict for r in parallel]
        assert [r.rounds for r in sequential] == [r.rounds for r in parallel]
        assert [r.final_positions for r in sequential] == [
            r.final_positions for r in parallel
        ]

    def test_run_batch_shared_pool(self):
        scenario = Scenario(workload="multiple", n=6, max_rounds=3000)
        with executor(2) as pool:
            first = run_batch(scenario, range(2), pool=pool)
            second = run_batch(scenario, range(2), pool=pool)
        assert [r.rounds for r in first] == [r.rounds for r in second]


class TestRegistry:
    def test_all_experiments_registered(self):
        assert sorted(EXPERIMENTS) == [
            "e1", "e10", "e11", "e12", "e13", "e14", "e15", "e16", "e17",
            "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9",
        ]

    def test_unknown_experiment_raises(self):
        from repro.experiments import run_experiment

        with pytest.raises(ValueError):
            run_experiment("e99")
