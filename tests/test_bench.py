"""Smoke tests for the JSON benchmark harness (not a benchmark run)."""

import json

import pytest

from repro.bench import (
    HISTORY_SCHEMA,
    SCHEMA,
    check_regressions,
    load_history,
    run_bench,
    write_bench,
)
from repro.geometry import kernels
from repro.resilience import TraceFormatError


def _doc(micro_s=0.010, round_s=0.100, lcm_cycle_s=0.050,
         serve_warm_s=0.001, generated_at="2026-01-01T00:00:00"):
    """A minimal one-key bench document with controllable timings."""
    return {
        "schema": SCHEMA,
        "generated_at": generated_at,
        "micro": [
            {"name": "safe_points", "backend": "python", "n": 16,
             "best_s": micro_s, "mean_s": micro_s},
        ],
        "round_throughput": [
            {"backend": "python", "n": 16, "round_s": round_s,
             "robots_per_s": 16 / round_s},
        ],
        "lcm_round_throughput": [
            {"activation": "async", "backend": "python", "n": 16,
             "cycle_s": lcm_cycle_s, "robots_per_s": 16 / lcm_cycle_s},
        ],
        "serve_request_latency": [
            {"endpoint": "run", "n": 6, "cold_s": 0.050,
             "warm_s": serve_warm_s, "warm_mean_s": serve_warm_s,
             "repeats": 5, "speedup": 0.050 / serve_warm_s},
        ],
    }


def _history(*docs):
    return {
        "schema": HISTORY_SCHEMA,
        "latest": docs[-1] if docs else None,
        "runs": [
            {"git_sha": None, "recorded_at": d["generated_at"], "document": d}
            for d in docs
        ],
    }


class TestBenchDocument:
    def test_schema_and_sections(self, tmp_path):
        document = run_bench(sizes=[8], repeats=1)
        assert document["schema"] == SCHEMA
        assert document["sizes"] == [8]
        names = {entry["name"] for entry in document["micro"]}
        assert names == {
            "configuration",
            "view_table",
            "safe_points",
            "geometric_median",
        }
        for entry in document["micro"]:
            assert entry["best_s"] > 0.0
            assert entry["backend"] in kernels.available_backends()
        for entry in document["round_throughput"]:
            assert entry["robots_per_s"] > 0.0
        # LCM-cycle section: both activation models measured, on the
        # python backend (the scalar unified loop).
        activations = {
            entry["activation"] for entry in document["lcm_round_throughput"]
        }
        assert activations == {"atom", "async"}
        for entry in document["lcm_round_throughput"]:
            assert entry["backend"] == "python"
            assert entry["cycle_s"] > 0.0
        # Serve latency section: present, and the warm cache hit is
        # strictly cheaper than the cold simulating request.
        for entry in document["serve_request_latency"]:
            assert entry["endpoint"] == "run"
            assert 0.0 < entry["warm_s"] < entry["cold_s"]

        path = tmp_path / "bench.json"
        write_bench(document, str(path))
        payload = json.loads(path.read_text())
        assert payload["schema"] == HISTORY_SCHEMA
        assert payload["latest"]["schema"] == SCHEMA

    def test_two_writes_keep_both_history_entries(self, tmp_path):
        path = tmp_path / "bench.json"
        first = {"schema": SCHEMA, "generated_at": "2026-01-01T00:00:00"}
        second = {"schema": SCHEMA, "generated_at": "2026-01-02T00:00:00"}
        write_bench(first, str(path))
        write_bench(second, str(path))
        payload = json.loads(path.read_text())
        assert payload["schema"] == HISTORY_SCHEMA
        assert len(payload["runs"]) == 2
        assert payload["latest"] == second
        stamps = [run["recorded_at"] for run in payload["runs"]]
        assert stamps == ["2026-01-01T00:00:00", "2026-01-02T00:00:00"]

    def test_single_run_document_is_refused(self, tmp_path):
        # A bare repro-bench/1 run document is not a history: refused,
        # and left on disk rather than clobbered by the next write.
        path = tmp_path / "bench.json"
        single = {"schema": SCHEMA, "generated_at": "2025-12-31T00:00:00"}
        path.write_text(json.dumps(single))
        with pytest.raises(TraceFormatError, match=HISTORY_SCHEMA):
            load_history(str(path))
        fresh = {"schema": SCHEMA, "generated_at": "2026-01-01T00:00:00"}
        with pytest.raises(TraceFormatError):
            write_bench(fresh, str(path))
        assert json.loads(path.read_text()) == single

    def test_foreign_file_fails_loudly(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ValueError):
            load_history(str(path))
        with pytest.raises(ValueError):
            write_bench({"schema": SCHEMA}, str(path))

    def test_check_within_threshold_passes(self):
        history = _history(_doc(), _doc())
        assert check_regressions(history, _doc(micro_s=0.011)) == []

    def test_check_flags_all_metric_kinds(self):
        history = _history(_doc())
        regressions = check_regressions(
            history,
            _doc(micro_s=0.050, round_s=0.500, lcm_cycle_s=0.250,
                 serve_warm_s=0.005),
            threshold=0.25,
        )
        assert {r["metric"] for r in regressions} == {
            "micro", "round_throughput", "lcm_round_throughput",
            "serve_request_latency",
        }
        lcm = next(
            r for r in regressions if r["metric"] == "lcm_round_throughput"
        )
        assert lcm["key"] == "async/16"
        assert lcm["ratio"] == pytest.approx(5.0)
        serve = next(
            r for r in regressions if r["metric"] == "serve_request_latency"
        )
        assert serve["key"] == "run/6"
        assert serve["ratio"] == pytest.approx(5.0)
        micro = next(r for r in regressions if r["metric"] == "micro")
        assert micro["key"] == "safe_points/python/16"
        assert micro["ratio"] == pytest.approx(5.0)
        assert micro["baseline_s"] == pytest.approx(0.010)

    def test_baseline_is_median_of_window(self):
        # One noisy (slow) run in the history must not inflate the
        # baseline: the median of {10, 10, 100} ms is 10 ms, so a 50 ms
        # current run still regresses.
        history = _history(_doc(), _doc(micro_s=0.100), _doc())
        regressions = check_regressions(history, _doc(micro_s=0.050))
        assert any(r["metric"] == "micro" for r in regressions)
        assert all(
            r["baseline_s"] == pytest.approx(0.010)
            for r in regressions
            if r["metric"] == "micro"
        )

    def test_window_limits_which_runs_count(self):
        # With window=1 only the latest (slow) run forms the baseline,
        # so the same current document now passes.
        history = _history(
            _doc(), _doc(), _doc(micro_s=0.100, round_s=1.0)
        )
        slow = _doc(micro_s=0.050, round_s=0.500)
        assert check_regressions(history, slow, window=1) == []
        assert check_regressions(history, slow, window=3)

    def test_unmeasured_keys_are_skipped(self):
        # Growing the size matrix cannot fail the gate: keys with no
        # history samples are not gated at all.
        history = _history(_doc())
        grown = _doc()
        grown["micro"].append(
            {"name": "safe_points", "backend": "python", "n": 256,
             "best_s": 9.9, "mean_s": 9.9}
        )
        grown["round_throughput"].append(
            {"backend": "python", "n": 256, "round_s": 9.9,
             "robots_per_s": 256 / 9.9}
        )
        assert check_regressions(history, grown) == []

    def test_empty_history_gates_nothing(self):
        assert check_regressions(_history(), _doc()) == []

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            check_regressions(_history(), _doc(), threshold=-0.1)
        with pytest.raises(ValueError):
            check_regressions(_history(), _doc(), window=0)

    def test_speedups_present_when_numpy_available(self):
        document = run_bench(sizes=[16], repeats=1)
        if "numpy" in kernels.available_backends():
            by_metric = {
                entry["metric"]: entry for entry in document["speedups"]
            }
            assert set(by_metric) == {"round_throughput"}
            for entry in by_metric.values():
                assert entry["n"] == 16
                assert entry["speedup"] > 0.0
        else:
            assert document["speedups"] == []
