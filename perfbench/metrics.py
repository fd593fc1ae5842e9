"""Metric names, units and directions, and the per-layer table builder.

``BENCHMARK.json`` lists the same names; ``tests/test_metrics.py`` keeps
the two in step.  Every workload reports every metric: an end-to-end
metric has a meaning on each workload (README.md gives the table), and a
layer a workload does not exercise reads 0.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from tracer import KERNELS, MEMO_KEYS

#: (name, unit, better) of the end-to-end metrics.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("serial_per_s", "1/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("heavy_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def _per_layer() -> List[Tuple[str, str, str]]:
    rows = [
        ("core.configuration.builds", "count", "lower"),
        ("core.configuration.self_s", "s", "lower"),
    ]
    for key in MEMO_KEYS:
        rows.append((f"core.memo.{key}.computes", "count", "lower"))
        rows.append((f"core.memo.{key}.self_s", "s", "lower"))
    rows += [
        ("core.memo.hit_ratio", "ratio", "higher"),
        ("core.towers_per_step", "ratio", "lower"),
        ("core.algorithm.compute_calls", "count", "lower"),
        ("core.algorithm.self_s", "s", "lower"),
        ("geometry.sec.calls", "count", "lower"),
        ("geometry.sec.self_s", "s", "lower"),
    ]
    for name in KERNELS:
        rows.append((f"geometry.kernels.{name}.calls", "count", "lower"))
        rows.append((f"geometry.kernels.{name}.self_s", "s", "lower"))
    rows += [
        ("sim.steps", "count", "lower"),
        ("sim.step.self_s", "s", "lower"),
        ("sim.snap.calls", "count", "lower"),
        ("sim.snap.self_s", "s", "lower"),
        ("sim.rounds_per_run", "count", "lower"),
        ("resilience.parallel_efficiency", "ratio", "higher"),
        ("resilience.journal.appends", "count", "higher"),
        ("resilience.journal.self_s", "s", "lower"),
        ("resilience.retries", "count", "lower"),
        ("obs.overhead_frac", "ratio", "lower"),
        ("serve.store.get.calls", "count", "lower"),
        ("serve.store.get.self_s", "s", "lower"),
        ("serve.store.hit_ratio", "ratio", "higher"),
        ("serve.store.put.calls", "count", "lower"),
        ("serve.store.put.self_s", "s", "lower"),
        ("serve.admission.acquire_s", "s", "lower"),
        ("serve.shed", "count", "lower"),
        ("serve.compute.self_s", "s", "lower"),
        ("serve.handler.self_s", "s", "lower"),
        ("loadgen.lag_p99_ms", "ms", "lower"),
        ("trace.coverage_frac", "ratio", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return rows


#: (name, unit, better) of the per-layer metrics.
PER_LAYER: List[Tuple[str, str, str]] = _per_layer()

#: Span name -> metric prefix for the spans reported as calls + self time.
_SPAN_METRICS = {
    "core.configuration": ("core.configuration.builds", "core.configuration.self_s"),
    "core.algorithm": ("core.algorithm.compute_calls", "core.algorithm.self_s"),
    "geometry.sec": ("geometry.sec.calls", "geometry.sec.self_s"),
    "sim.step": ("sim.steps", "sim.step.self_s"),
    "sim.snap": ("sim.snap.calls", "sim.snap.self_s"),
    "resilience.journal": ("resilience.journal.appends", "resilience.journal.self_s"),
    "serve.store.get": ("serve.store.get.calls", "serve.store.get.self_s"),
    "serve.store.put": ("serve.store.put.calls", "serve.store.put.self_s"),
    "serve.admission": (None, "serve.admission.acquire_s"),
    "serve.compute": (None, "serve.compute.self_s"),
    "serve.handler": (None, "serve.handler.self_s"),
}
for _key in MEMO_KEYS:
    _SPAN_METRICS[f"core.memo.{_key}"] = (
        f"core.memo.{_key}.computes",
        f"core.memo.{_key}.self_s",
    )
for _name in KERNELS:
    _SPAN_METRICS[f"geometry.kernels.{_name}"] = (
        f"geometry.kernels.{_name}.calls",
        f"geometry.kernels.{_name}.self_s",
    )


def layer_table(
    summaries: Iterable[Dict[str, Dict[str, float]]],
    counts: Iterable[Dict[str, int]],
    values: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric, from span summaries plus measured
    ``values`` by metric name; anything not measured reads 0."""
    table = {name: 0.0 for name, _, _ in PER_LAYER}
    for summary in summaries:
        for span, row in summary.items():
            calls, self_s = _SPAN_METRICS.get(span, (None, None))
            if calls is not None:
                table[calls] += row["calls"]
            if self_s is not None:
                table[self_s] += row["self_s"]
    hits = misses = 0
    for count in counts:
        hits += count.get("core.memo.hits", 0)
        misses += count.get("core.memo.misses", 0)
    if hits + misses:
        table["core.memo.hit_ratio"] = hits / (hits + misses)
    if table["sim.steps"]:
        table["core.towers_per_step"] = (
            table["core.memo.class.computes"] / table["sim.steps"]
        )
    for name, value in values.items():
        if name not in table:
            raise KeyError(f"not a per-layer metric: {name}")
        table[name] = value
    return table


def rounds_per_run(summary: Dict[str, Dict[str, float]], runs: int) -> float:
    """Engine steps per run from a span summary."""
    return summary.get("sim.step", {}).get("calls", 0) / runs


def units(rows: List[Tuple[str, str, str]]) -> Dict[str, str]:
    return {name: unit for name, unit, _ in rows}
