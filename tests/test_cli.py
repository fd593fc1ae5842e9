"""Unit tests for the command-line interface."""

import argparse
import re

import pytest

from repro.cli import build_parser, main

WORKLOADS = (
    "asymmetric", "biangular", "bivalent", "gathered", "linear-interval",
    "linear-unique", "multiple", "near-bivalent", "qr-occupied-center",
    "random", "regular-polygon", "unsafe-ray",
)
ALGORITHMS = (
    "centroid", "naive-leader", "sequential", "wait-free-gather",
    "weber-numeric",
)
SCHEDULERS = (
    "fsync", "round-robin", "random", "laggard", "half-split", "poisson",
)
CRASHES = ("none", "random", "after-move", "elected")
MOVEMENTS = (
    "rigid", "adversarial-stop", "random-stop", "collusive-stop",
    "per-robot-speed",
)
EXPERIMENT_IDS = tuple(sorted(f"e{i}" for i in range(1, 18))) + ("all",)

#: The scenario flags of simulate and profile: (dest, default, choices).
RUN_FLAGS = {
    ("algorithm", "wait-free-gather", ALGORITHMS),
    ("crashes", "random", CRASHES),
    ("engine", "atom", ("atom", "async")),
    ("f", 0, None),
    ("max_rounds", 20000, None),
    ("movement", "random-stop", MOVEMENTS),
    ("n", 8, None),
    ("scheduler", "random", SCHEDULERS),
    ("seed", 0, None),
    ("visibility", None, None),
    ("workload", "random", WORKLOADS),
}

#: Every subcommand's (dest, default, choices) set, as shipped: the
#: flag table must not add, drop or re-default an option.
PARSER_PINS = {
    "simulate": RUN_FLAGS | {
        ("obs", False, None),
        ("obs_jsonl", None, None),
        ("save_trace", None, None),
        ("trace", False, None),
    },
    "profile": RUN_FLAGS | {
        ("backend", "auto", ("auto", "python", "numpy")),
        ("obs_jsonl", None, None),
    },
    "classify": {
        ("n", 8, None),
        ("seed", 0, None),
        ("workload", "random", WORKLOADS),
    },
    "hunt": {
        ("algorithm", "wait-free-gather", ALGORITHMS),
        ("n", 8, None),
        ("rounds", 40, None),
        ("seed", 0, None),
        ("workload", "unsafe-ray", WORKLOADS),
    },
    "check": {
        ("algorithm", "wait-free-gather", ALGORITHMS),
        ("backend", "recorded", ("recorded", "python", "numpy", "both")),
        ("corpus", None, None),
        ("crashes", "random", CRASHES),
        ("diff", False, None),
        ("emit_trace", None, None),
        ("f", 0, None),
        ("invariants", (), None),
        ("max_rounds", 20000, None),
        ("movement", "random-stop", MOVEMENTS),
        ("n", 8, None),
        ("out", None, None),
        ("replay", (), None),
        ("scheduler", "random", SCHEDULERS),
        ("seed", 0, None),
        ("seeds", (0,), None),
        ("visibility", None, None),
        ("workload", "random", WORKLOADS),
    },
    "render": {
        ("algorithm", "wait-free-gather", ALGORITHMS),
        ("crashes", "none", CRASHES),
        ("f", 0, None),
        ("n", 8, None),
        ("output", None, None),
        ("scheduler", "random", SCHEDULERS),
        ("seed", 0, None),
        ("snapshot", False, None),
        ("workload", "random", WORKLOADS),
    },
    "sweep": RUN_FLAGS - {("seed", 0, None)} | {
        ("archive_failures", None, None),
        ("backoff", 0.1, None),
        ("journal", None, None),
        ("live", False, None),
        ("metrics", None, None),
        ("obs", False, None),
        ("resume", False, None),
        ("retries", 2, None),
        ("seed_start", 0, None),
        ("seeds", 16, None),
        ("timeout", None, None),
        ("workers", None, None),
    },
    "experiment": {
        ("archive_failures", None, None),
        ("csv", False, None),
        ("full", False, None),
        ("id", None, EXPERIMENT_IDS),
        ("obs", False, None),
        ("workers", None, None),
    },
    "bench": {
        ("check", False, None),
        ("output", "BENCH_micro.json", None),
        ("quick", False, None),
        ("repeats", 3, None),
        ("sizes", None, None),
        ("threshold", 0.25, None),
        ("window", 5, None),
    },
    "serve": {
        ("access_log", None, None),
        ("breaker_cooldown", 10.0, None),
        ("breaker_threshold", 5, None),
        ("breaker_window", 30.0, None),
        ("drain_timeout", 10.0, None),
        ("host", "127.0.0.1", None),
        ("max_inflight", None, None),
        ("memory_entries", 4096, None),
        ("no_cache", False, None),
        ("port", 8642, None),
        ("request_deadline", None, None),
        ("retries", 2, None),
        ("selftest", False, None),
        ("selftest_timeout", 120.0, None),
        ("store", None, None),
        ("sweep_weight", 4, None),
        ("timeout", None, None),
        ("trace_jsonl", None, None),
        ("workers", None, None),
    },
    "serve-store": {
        ("action", None, ("verify", "gc", "stats")),
        ("json", False, None),
        ("no_repair", False, None),
        ("store", None, None),
    },
    "trace-export": {
        ("inputs", None, None),
        ("output", None, None),
        ("pid", 0, None),
    },
    "stats": {("input", None, None)},
}


def _flag_set(cmd: argparse.ArgumentParser) -> set:
    def frozen(value):
        return tuple(value) if isinstance(value, list) else value

    return {
        (a.dest, frozen(a.default), frozen(a.choices))
        for a in cmd._actions
        if a.dest != "help"
    }


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.workload == "random"
        assert args.algorithm == "wait-free-gather"

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--workload", "nope"])

    def test_every_subcommand_keeps_its_flags(self):
        subparsers = next(
            a
            for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        assert set(subparsers.choices) == set(PARSER_PINS)
        for name, cmd in subparsers.choices.items():
            assert _flag_set(cmd) == PARSER_PINS[name], name

    def test_bad_scenario_value_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "0"])
        assert exc.value.code == 2
        assert "n must be >= 1" in capsys.readouterr().err


class TestOneRunPath:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--seed", "3"],
            ["--workload", "asymmetric", "--n", "6", "--f", "2",
             "--crashes", "after-move", "--scheduler", "round-robin",
             "--movement", "rigid", "--seed", "3"],
            ["--workload", "multiple", "--n", "7", "--f", "3",
             "--engine", "async", "--seed", "5"],
        ],
    )
    def test_simulate_and_profile_agree_on_rounds(self, capsys, flags):
        main(["simulate", *flags])
        simulated = re.search(
            r"^rounds     : (\d+)$", capsys.readouterr().out, re.M
        )
        main(["profile", *flags])
        profiled = re.search(
            r"^verdict    : \w+ in (\d+) rounds", capsys.readouterr().out, re.M
        )
        assert simulated and profiled
        assert simulated.group(1) == profiled.group(1)

    def test_render_matches_run_scenario_and_direct_engine(self, tmp_path):
        from repro.algorithms import ALGORITHMS as REGISTRY
        from repro.experiments.runner import (
            Scenario,
            make_crashes,
            make_scheduler,
            run_scenario,
        )
        from repro.sim import Simulation
        from repro.viz import render_trace
        from repro.workloads import generate

        target = tmp_path / "run.svg"
        assert main(
            ["render", str(target), "--workload", "multiple", "--n", "7",
             "--scheduler", "round-robin", "--crashes", "after-move",
             "--f", "2", "--seed", "2"]
        ) == 0
        scenario = Scenario(
            workload="multiple", n=7, scheduler="round-robin",
            crashes="after-move", f=2, movement="rigid", max_rounds=20_000,
        )
        result = run_scenario(scenario, 2, engine_seed=2, record_trace=True)
        assert target.read_text() == render_trace(result.trace, result)
        # ... and to the engine built by hand, as render used to do.
        direct = Simulation(
            REGISTRY["wait-free-gather"](),
            generate("multiple", 7, 2),
            scheduler=make_scheduler("round-robin"),
            crash_adversary=make_crashes("after-move", 2),
            seed=2,
            record_trace=True,
            max_rounds=20_000,
        ).run()
        assert target.read_text() == render_trace(direct.trace, direct)


class TestSimulate:
    def test_successful_run_exit_zero(self, capsys):
        code = main(
            ["simulate", "--workload", "asymmetric", "--n", "6", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict    : gathered" in out

    def test_crash_tolerant_run(self, capsys):
        code = main(
            [
                "simulate",
                "--workload", "random",
                "--n", "6",
                "--f", "5",
                "--crashes", "random",
                "--seed", "2",
            ]
        )
        assert code == 0
        assert "gathered" in capsys.readouterr().out

    def test_bivalent_reports_impossible(self, capsys):
        code = main(
            ["simulate", "--workload", "bivalent", "--n", "6", "--seed", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0  # impossibility correctly detected is a success
        assert "impossible" in out

    def test_trace_flag_prints_rounds(self, capsys):
        main(
            [
                "simulate",
                "--workload", "multiple",
                "--n", "6",
                "--seed", "1",
                "--trace",
            ]
        )
        out = capsys.readouterr().out
        assert "[M]" in out


class TestClassify:
    def test_polygon_reports_qr(self, capsys):
        code = main(
            ["classify", "--workload", "regular-polygon", "--n", "6",
             "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "class  : QR" in out
        assert "qreg   : 6" in out

    def test_bivalent_reports_b(self, capsys):
        main(["classify", "--workload", "bivalent", "--n", "6"])
        out = capsys.readouterr().out
        assert "class  : B" in out
        assert "safe   : 0" in out


class TestHunt:
    def test_hunt_naive_leader_finds_trap(self, capsys):
        code = main(
            [
                "hunt",
                "--algorithm", "naive-leader",
                "--workload", "unsafe-ray",
                "--n", "8",
                "--rounds", "10",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "reached B : True" in out

    def test_hunt_wfg_survives(self, capsys):
        code = main(["hunt", "--n", "6", "--rounds", "15"])
        out = capsys.readouterr().out
        assert code == 0
        assert "reached B : False" in out


class TestRender:
    def test_render_run(self, capsys, tmp_path):
        target = str(tmp_path / "run.svg")
        code = main(
            ["render", target, "--workload", "asymmetric", "--n", "6",
             "--seed", "1"]
        )
        assert code == 0
        with open(target) as handle:
            assert handle.read().startswith("<svg")
        assert "gathered" in capsys.readouterr().out

    def test_render_snapshot(self, capsys, tmp_path):
        target = str(tmp_path / "snap.svg")
        code = main(
            ["render", target, "--workload", "regular-polygon", "--n", "6",
             "--snapshot"]
        )
        assert code == 0
        with open(target) as handle:
            assert "Weber point" in handle.read()

    @pytest.mark.parametrize(
        "workload, n, verdict",
        [("bivalent", "6", "impossible"), ("gathered", "4", "gathered")],
    )
    def test_render_run_that_halts_before_any_step(
        self, capsys, tmp_path, workload, n, verdict
    ):
        # Nothing moves, so the drawing is the initial configuration,
        # captioned with the verdict.
        target = str(tmp_path / "halt.svg")
        code = main(["render", target, "--workload", workload, "--n", n])
        assert code == 0
        with open(target) as handle:
            svg = handle.read()
        assert svg.startswith("<svg")
        assert f"verdict={verdict} in 0 rounds" in svg
        assert f"wrote {target} ({verdict} in 0 rounds)" in capsys.readouterr().out

    def test_render_rejects_size_its_workload_cannot_build(self, capsys, tmp_path):
        target = tmp_path / "bad.svg"
        for extra in ([], ["--snapshot"]):
            with pytest.raises(SystemExit) as exc:
                main(["render", str(target), "--workload", "bivalent",
                      "--n", "5", *extra])
            assert exc.value.code == 2
            assert "even n" in capsys.readouterr().err
        assert not target.exists()


class TestSaveTrace:
    def test_trace_json_written_and_loadable(self, capsys, tmp_path):
        from repro.sim import Trace

        target = str(tmp_path / "trace.json")
        code = main(
            ["simulate", "--workload", "multiple", "--n", "6",
             "--seed", "1", "--save-trace", target]
        )
        assert code == 0
        assert "trace saved" in capsys.readouterr().out
        with open(target) as handle:
            trace = Trace.from_json(handle.read())
        assert len(trace) > 0

    def test_saved_trace_carries_full_meta(self, tmp_path):
        from repro.sim import Trace

        target = str(tmp_path / "trace.json")
        main(
            ["simulate", "--workload", "asymmetric", "--n", "6",
             "--f", "1", "--seed", "1", "--save-trace", target]
        )
        with open(target) as handle:
            trace = Trace.from_json(handle.read())
        assert trace.meta is not None
        assert trace.meta.scenario["workload"] == "asymmetric"
        assert trace.meta.seed == 1
        assert trace.meta.engine_seed == 1  # simulate passes the raw seed


class TestCheck:
    def _save(self, tmp_path, name="t.json", seed="1"):
        target = str(tmp_path / name)
        main(
            ["simulate", "--workload", "asymmetric", "--n", "6",
             "--f", "1", "--seed", seed, "--save-trace", target]
        )
        return target

    def test_replay_ok_exit_zero(self, capsys, tmp_path):
        target = self._save(tmp_path)
        code = main(["check", "--replay", target])
        out = capsys.readouterr().out
        assert code == 0
        assert "bit-identical" in out
        assert "check ok" in out

    def test_replay_both_backends(self, capsys, tmp_path):
        target = self._save(tmp_path)
        code = main(["check", "--replay", target, "--backend", "both"])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend 'python'" in out
        assert "backend 'numpy'" in out

    def test_tampered_trace_exit_one(self, capsys, tmp_path):
        import json

        target = self._save(tmp_path)
        with open(target) as handle:
            data = json.load(handle)
        record = data["records"][0]
        rid = next(iter(record["destinations"]))
        record["destinations"][rid][0] += 1.0
        with open(target, "w") as handle:
            json.dump(data, handle)
        code = main(["check", "--replay", target])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out
        assert "reproduce:" in out

    def test_invariants_mode(self, capsys, tmp_path):
        target = self._save(tmp_path)
        code = main(["check", "--invariants", target])
        out = capsys.readouterr().out
        assert code == 0
        assert "invariants ok" in out

    def test_corpus_mode(self, capsys, tmp_path):
        self._save(tmp_path, "a.json", seed="1")
        self._save(tmp_path, "b.json", seed="2")
        code = main(["check", "--corpus", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("replay ok") == 2
        assert out.count("invariants ok") == 2

    def test_empty_corpus_is_usage_error(self, capsys, tmp_path):
        assert main(["check", "--corpus", str(tmp_path)]) == 2

    def test_no_mode_is_usage_error(self, capsys):
        assert main(["check"]) == 2

    def test_emit_trace_internal_mode(self, capsys, tmp_path):
        import json

        from repro.experiments.runner import Scenario
        from repro.sim.replay import load_trace

        scenario_path = str(tmp_path / "scenario.json")
        out_path = str(tmp_path / "out.json")
        scenario = Scenario(workload="asymmetric", n=6, f=1)
        with open(scenario_path, "w") as handle:
            json.dump(scenario.to_dict(), handle)
        code = main(
            ["check", "--emit-trace", scenario_path, "--seed", "4",
             "--out", out_path]
        )
        assert code == 0
        trace = load_trace(out_path)
        assert trace.meta.seed == 4
        assert Scenario.from_dict(trace.meta.scenario) == scenario
