"""Counters, stats, kernel timers, hooks, and the process-wide toggle."""

import os

import pytest

from repro import obs
from repro.geometry import kernels
from repro.obs.metrics import Metrics, Stat

NUMPY_AVAILABLE = "numpy" in kernels.available_backends()

needs_numpy = pytest.mark.skipif(
    not NUMPY_AVAILABLE, reason="NumPy not importable in this environment"
)


class TestStat:
    def test_running_aggregate(self):
        stat = Stat()
        for value in (2.0, 4.0, 9.0):
            stat.add(value)
        assert stat.count == 3
        assert stat.total == 15.0
        assert stat.mean == 5.0
        assert stat.min == 2.0
        assert stat.max == 9.0

    def test_empty_stat_serializes_without_infinities(self):
        payload = Stat().to_dict()
        assert payload["count"] == 0
        assert payload["min"] is None and payload["max"] is None


class TestMetricsRegistry:
    def test_counters_and_stats(self):
        registry = Metrics()
        registry.inc("a")
        registry.inc("a", 2)
        registry.observe("latency", 0.5)
        registry.observe("latency", 1.5)
        assert registry.counter("a") == 3
        assert registry.counter("missing") == 0
        snapshot = registry.snapshot()
        assert snapshot["counters"]["a"] == 3
        assert snapshot["stats"]["latency"]["mean"] == 1.0

    def test_kernel_rows_sorted_by_total_time(self):
        registry = Metrics()
        registry.record_kernel("cheap", 0.001, "numpy")
        registry.record_kernel("hot", 0.5, "numpy")
        registry.record_kernel("hot", 0.5, "numpy")
        rows = registry.kernels()
        assert [row["kernel"] for row in rows] == ["hot", "cheap"]
        assert rows[0]["calls"] == 2
        assert rows[0]["total_s"] == 1.0

    def test_reset_drops_everything(self):
        registry = Metrics()
        registry.inc("a")
        registry.observe("s", 1.0)
        registry.record_kernel("k", 0.1, "numpy")
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "stats": {},
            "kernels": [],
            "hists": {},
        }


class TestToggle:
    def test_enable_exports_env_for_workers(self):
        obs.enable()
        assert obs.is_enabled()
        assert os.environ.get("REPRO_OBS") == "1"
        obs.disable()
        assert not obs.is_enabled()
        assert "REPRO_OBS" not in os.environ

    def test_observability_context_restores_disabled(self):
        assert not obs.is_enabled()
        with obs.observability():
            assert obs.is_enabled()
        assert not obs.is_enabled()

    def test_observability_context_preserves_enabled(self):
        obs.enable()
        with obs.observability():
            assert obs.is_enabled()
        assert obs.is_enabled()


class TestKernelInstrumentation:
    @needs_numpy
    def test_timed_kernels_record_when_enabled(self):
        coords = [(0.0, 0.0), (3.0, 4.0), (1.0, 1.0)]
        with kernels.backend("numpy"):
            obs.enable()
            assert kernels.pairwise_diameter(coords) == 5.0
        rows = obs.metrics.kernels()
        assert any(
            row["kernel"] == "pairwise_diameter" and row["backend"] == "numpy"
            for row in rows
        )

    @needs_numpy
    def test_disabled_kernels_record_nothing(self):
        coords = [(0.0, 0.0), (3.0, 4.0)]
        with kernels.backend("numpy"):
            assert kernels.pairwise_diameter(coords) == 5.0
        assert obs.metrics.kernels() == []

    @needs_numpy
    def test_on_kernel_hook_sees_calls(self):
        # Every kernel call reaches the tracer's hooks as a kernel span.
        seen = []
        obs.tracer.add_sink(seen.append)
        coords = [(0.0, 0.0), (1.0, 0.0)]
        with kernels.backend("numpy"):
            obs.enable()
            kernels.pairwise_diameter(coords)
        assert [(s.kind, s.name) for s in seen] == [
            ("kernel", "pairwise_diameter")
        ]
        assert seen[0].attrs == {"backend": "numpy"}


class TestHooks:
    def test_remove_hook(self):
        seen = []
        obs.tracer.add_sink(seen.append)
        obs.tracer.end(obs.tracer.begin("first", "phase"))
        assert obs.tracer.remove_sink(seen.append)
        obs.tracer.end(obs.tracer.begin("second", "phase"))
        assert [s.name for s in seen] == ["first"]
        assert not obs.tracer.remove_sink(seen.append)
