"""Hook quarantine: a broken telemetry callback never crashes the run.

The hook points are the two places a callable registers to observe the
process: span sinks on a :class:`~repro.obs.spans.Tracer` and record
sinks on the log hub.  Both go through one quarantine
(:func:`repro.obs.log.quarantine`): the first exception removes the
callable, then warns once through the hub.
"""

import pytest

from repro import obs
from repro.experiments.runner import Scenario, run_scenario
from repro.obs.spans import Tracer


def _boom(*args):
    raise RuntimeError("hook exploded")


@pytest.fixture()
def log_records():
    records = []
    obs.log_hub.add_sink(records.append)
    yield records
    obs.log_hub.remove_sink(records.append)


def _quarantine_records(records):
    return [r for r in records if r["event"].endswith("_sink.quarantined")]


def _emit(tracer, name):
    tracer.end(tracer.begin(name, "phase"))


class TestQuarantine:
    def test_raising_hook_warned_once_and_removed(self, log_records):
        tracer = Tracer()
        seen = []
        tracer.add_sink(_boom)
        tracer.add_sink(lambda span: seen.append(span.name))
        _emit(tracer, "first")
        complaints = _quarantine_records(log_records)
        assert len(complaints) == 1
        assert "hook exploded" in complaints[0]["msg"]
        assert complaints[0]["level"] == "warning"
        # The offender is gone; later spans dispatch warning-free and
        # the healthy hook keeps firing.
        _emit(tracer, "second")
        assert len(_quarantine_records(log_records)) == 1
        assert seen == ["first", "second"]

    def test_quarantine_covers_every_hook_point(self, log_records):
        tracer = Tracer()
        tracer.add_sink(_boom)
        obs.log_hub.add_sink(_boom)
        _emit(tracer, "span")
        # The span sink's complaint went through the hub, whose broken
        # sink was removed before its own complaint — no recursion.
        assert sorted(r["event"] for r in _quarantine_records(log_records)) == [
            "log_sink.quarantined",
            "span_sink.quarantined",
        ]
        # Both are gone: no second warning from either hook point.
        _emit(tracer, "again")
        obs.get_logger("repro.test").info("unit.after", "quiet")
        assert len(_quarantine_records(log_records)) == 2

    def test_base_exceptions_still_propagate(self):
        def interrupt(span):
            raise KeyboardInterrupt

        tracer = Tracer()
        tracer.add_sink(interrupt)
        with pytest.raises(KeyboardInterrupt):
            _emit(tracer, "span")

    def test_broken_hook_does_not_break_a_simulation(self, log_records):
        scenario = Scenario(
            workload="asymmetric",
            n=6,
            f=1,
            scheduler="round-robin",
            crashes="after-move",
            movement="rigid",
            max_rounds=2_000,
        )
        obs.enable()
        seen = []
        obs.tracer.add_sink(_boom)
        obs.tracer.add_sink(
            lambda span: seen.append(span) if span.kind == "round" else None
        )
        result = run_scenario(scenario, 3)
        complaints = _quarantine_records(log_records)
        assert len(complaints) == 1
        assert "hook exploded" in complaints[0]["msg"]
        assert result.rounds > 0
        # Every round after the quarantine still reached the good hook.
        assert len(seen) == result.rounds
