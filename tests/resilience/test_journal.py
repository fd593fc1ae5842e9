"""SweepJournal: crash-safe checkpointing and resume semantics."""

import json
import os

import pytest

from repro.experiments.runner import Scenario, run_scenario
from repro.resilience import (
    JOURNAL_SCHEMA,
    SweepJournal,
    TraceFormatError,
    result_from_dict,
    result_to_dict,
)

SCENARIO = Scenario(
    workload="asymmetric",
    n=6,
    f=1,
    scheduler="round-robin",
    crashes="after-move",
    movement="rigid",
    max_rounds=2_000,
)


def results_for(seeds):
    return {seed: run_scenario(SCENARIO, seed) for seed in seeds}


def assert_results_equal(a, b):
    """Bitwise equality of two results (floats compared exactly)."""
    assert a.verdict == b.verdict
    assert a.rounds == b.rounds
    assert a.final_positions == b.final_positions
    assert a.live_ids == b.live_ids
    assert a.crashed_ids == b.crashed_ids
    assert a.gathering_point == b.gathering_point
    assert a.total_distance == b.total_distance
    assert a.initial_class == b.initial_class
    assert a.classes_seen == b.classes_seen


class TestResultSerialization:
    def test_round_trip_is_bit_identical(self):
        for seed, result in results_for(range(4)).items():
            # Through an actual JSON text round trip: repr-serialized
            # floats must come back as the same float64.
            data = json.loads(json.dumps(result_to_dict(result)))
            assert_results_equal(result, result_from_dict(data))

    def test_malformed_dict_raises_trace_format_error(self):
        with pytest.raises(TraceFormatError, match="malformed result"):
            result_from_dict({"verdict": "gathered"}, source="j:2")


class TestJournalLifecycle:
    def test_header_then_entries(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        results = results_for(range(3))
        with SweepJournal.open(path, SCENARIO.to_dict()) as journal:
            for seed, result in results.items():
                journal.append(seed, result)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == JOURNAL_SCHEMA
        assert Scenario.from_dict(header["scenario"]) == SCENARIO
        assert [json.loads(line)["seed"] for line in lines[1:]] == [0, 1, 2]

    def test_resume_returns_bit_identical_results(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        results = results_for(range(3))
        with SweepJournal.open(path, SCENARIO.to_dict()) as journal:
            for seed, result in results.items():
                journal.append(seed, result)
        resumed = SweepJournal.open(path, SCENARIO.to_dict(), resume=True)
        completed = resumed.completed()
        resumed.close()
        assert sorted(completed) == [0, 1, 2]
        for seed, result in results.items():
            assert_results_equal(result, completed[seed])

    def test_fresh_open_truncates_existing(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal.open(path, SCENARIO.to_dict()) as journal:
            journal.append(0, run_scenario(SCENARIO, 0))
        with SweepJournal.open(path, SCENARIO.to_dict()) as journal:
            pass
        assert SweepJournal.peek(path) == {}

    def test_resume_nonexistent_starts_fresh(self, tmp_path):
        path = str(tmp_path / "new.jsonl")
        with SweepJournal.open(path, SCENARIO.to_dict(), resume=True) as j:
            assert j.completed() == {}
        assert os.path.exists(path)


class TestCrashTolerance:
    def _journal_with(self, tmp_path, seeds):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal.open(path, SCENARIO.to_dict()) as journal:
            for seed in seeds:
                journal.append(seed, run_scenario(SCENARIO, seed))
        return path

    def test_torn_final_line_is_truncated_on_resume(self, tmp_path):
        path = self._journal_with(tmp_path, range(3))
        whole = os.path.getsize(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seed": 3, "result": {"verd')  # SIGKILL here
        journal = SweepJournal.open(path, SCENARIO.to_dict(), resume=True)
        journal.close()
        assert sorted(journal.completed()) == [0, 1, 2]
        # The torn bytes are gone: appends continue from the valid end.
        assert os.path.getsize(path) == whole

    def test_torn_line_with_newline_is_also_dropped(self, tmp_path):
        path = self._journal_with(tmp_path, range(2))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seed": 2, "result"\n')
        journal = SweepJournal.open(path, SCENARIO.to_dict(), resume=True)
        journal.close()
        assert sorted(journal.completed()) == [0, 1]

    def test_interior_corruption_raises(self, tmp_path):
        path = self._journal_with(tmp_path, range(3))
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # corrupt a middle entry
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="line 3"):
            SweepJournal.open(path, SCENARIO.to_dict(), resume=True)

    def test_scenario_mismatch_refused(self, tmp_path):
        path = self._journal_with(tmp_path, range(1))
        other = Scenario(workload="random", n=8).to_dict()
        with pytest.raises(TraceFormatError, match="different scenario"):
            SweepJournal.open(path, other, resume=True)

    def test_foreign_header_refused(self, tmp_path):
        path = str(tmp_path / "bogus.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"format": "repro-telemetry-v1", "meta": null}\n')
        with pytest.raises(TraceFormatError, match=JOURNAL_SCHEMA):
            SweepJournal.open(path, SCENARIO.to_dict(), resume=True)

    def test_empty_file_refused(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        with pytest.raises(TraceFormatError, match="empty or torn"):
            SweepJournal.peek(path)
