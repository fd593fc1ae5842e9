"""RoundEvent schema: round-span attrs in the telemetry stream, the
round-trip through JSON, and the join to trace meta."""

import json

import pytest

from repro import obs
from repro.experiments.runner import Scenario, run_scenario
from repro.geometry import DEFAULT_TOLERANCE
from repro.obs import TELEMETRY_SCHEMA, RoundEvent, read_telemetry
from repro.sim.trace import TraceMeta

#: n < KERNEL_MIN_N and fully deterministic components: the run is
#: bitwise identical wherever it executes, so event streams recorded in
#: different processes (or on different backends) are comparable.
SMALL = Scenario(
    workload="asymmetric",
    n=6,
    f=2,
    scheduler="round-robin",
    crashes="after-move",
    movement="rigid",
    max_rounds=2_000,
)


def scenario_meta(scenario, seed):
    return TraceMeta.for_run(
        scenario=scenario.to_dict(),
        seed=seed,
        engine_seed=scenario.engine_seed(seed),
        tol=DEFAULT_TOLERANCE,
        engine=scenario.engine,
    ).to_dict()


class TestDictRoundTrip:
    def test_event_round_trips_exactly(self):
        event = RoundEvent(
            round_index=7,
            engine="atom",
            config_class="QR",
            support=5,
            max_multiplicity=2,
            spread=3.25,
            elected_target=(1.5, -2.25),
            target_is_safe=True,
            active=(0, 1, 4),
            crashed=(2,),
            moved=(0, 4),
        )
        assert RoundEvent.from_dict(event.to_dict()) == event

    def test_none_fields_survive(self):
        event = RoundEvent(
            round_index=0,
            engine="async",
            config_class="M",
            support=3,
            max_multiplicity=4,
            spread=0.0,
            elected_target=None,
            target_is_safe=None,
            active=(),
            crashed=(),
            moved=(),
        )
        restored = RoundEvent.from_dict(event.to_dict())
        assert restored == event
        assert restored.elected_target is None
        assert restored.target_is_safe is None


def read_stream(path):
    """``(meta, round events, run summaries)`` of a telemetry stream."""
    meta, records = read_telemetry(path)
    events = [
        RoundEvent.from_dict(r["attrs"])
        for r in records
        if r["type"] == "span" and r["kind"] == "round"
    ]
    runs = [
        r["attrs"] for r in records
        if r["type"] == "span" and r["kind"] == "run"
    ]
    return meta, events, runs


class TestJsonlStream:
    def test_stream_round_trips_and_joins_to_trace_meta(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with obs.observability(jsonl=path, meta=scenario_meta(SMALL, 3)):
            result = run_scenario(SMALL, 3, record_trace=True)

        meta, events, run_ends = read_stream(path)
        # One event per recorded round, bit-exact through JSON.
        assert len(events) == len(result.trace)
        assert events == [
            RoundEvent.from_record(record) for record in result.trace.records
        ]
        # The header meta is the trace's meta: the streams join on
        # seed and scenario.
        trace_meta = result.trace.meta
        assert meta["seed"] == trace_meta.seed == 3
        assert Scenario.from_dict(meta["scenario"]) == SMALL
        assert meta["engine"] == trace_meta.engine == "atom"
        # The run span carries the run-end summary.
        assert len(run_ends) == 1
        assert run_ends[0]["verdict"] == result.verdict
        assert run_ends[0]["rounds"] == result.rounds

    def test_events_describe_their_records(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with obs.observability(jsonl=path):
            result = run_scenario(SMALL, 3, record_trace=True)
        _, events, _ = read_stream(path)
        for event, record in zip(events, result.trace.records):
            assert event.round_index == record.round_index
            assert event.config_class == record.config_class.value
            assert event.crashed == record.crashed_now
            assert event.moved == record.moved
            assert event.support == len(record.config_after.support)
            assert event.spread >= 0.0

    def test_header_is_first_line(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with obs.observability(jsonl=path):
            run_scenario(SMALL, 3)
        with open(path, "r", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header["format"] == TELEMETRY_SCHEMA

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "not-events.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            read_telemetry(str(path))

    def test_async_engine_events_tagged(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        scenario = Scenario(
            workload="asymmetric",
            n=6,
            f=1,
            scheduler="round-robin",
            crashes="after-move",
            movement="rigid",
            max_rounds=2_000,
            engine="async",
        )
        with obs.observability(jsonl=path, meta=scenario_meta(scenario, 3)):
            result = run_scenario(scenario, 3)
        meta, events, run_ends = read_stream(path)
        assert meta["engine"] == "async"
        assert events and all(e.engine == "async" for e in events)
        assert len(events) == result.rounds
        assert run_ends[0]["engine"] == "async"
        # Phased activation reports its stale moves in the run summary.
        assert "stale_moves" in run_ends[0]
