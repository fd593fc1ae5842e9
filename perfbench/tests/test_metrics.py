import json
import os

from metrics import END_TO_END, PER_LAYER, layer_table

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_benchmark_json_lists_the_metrics_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert e2e == END_TO_END
    assert layers == PER_LAYER


def test_layer_table_fills_every_metric():
    summary = {
        "sim.step": {"calls": 4, "self_s": 0.5, "total_s": 2.0},
        "core.memo.class": {"calls": 8, "self_s": 0.25, "total_s": 1.0},
    }
    table = layer_table(
        [summary],
        [{"core.memo.hits": 3, "core.memo.misses": 1}],
        {"trace.coverage_frac": 0.95},
    )
    assert set(table) == {name for name, _, _ in PER_LAYER}
    assert table["sim.steps"] == 4 and table["sim.step.self_s"] == 0.5
    assert table["core.towers_per_step"] == 2.0
    assert table["core.memo.hit_ratio"] == 0.75
    assert table["trace.coverage_frac"] == 0.95
    assert table["serve.store.get.calls"] == 0
