"""Corrupted-input corpus: every loader fails structured, never raw.

Truncated JSONL, garbage bytes and wrong-version headers must surface
as :class:`TraceFormatError` (a :class:`ValueError` carrying path +
line/offset) from the loaders, and as a one-line ``error:`` diagnostic
with a non-zero exit from the CLI — never a traceback.
"""

import json
import pickle

import pytest

from repro import cli
from repro.bench import HISTORY_SCHEMA, load_history
from repro.experiments.runner import Scenario, run_scenario
from repro.obs import TELEMETRY_SCHEMA, read_telemetry
from repro.resilience import ReproError, TraceFormatError
from repro.sim.replay import load_trace

SCENARIO = Scenario(
    workload="asymmetric",
    n=6,
    f=1,
    scheduler="round-robin",
    crashes="after-move",
    movement="rigid",
    max_rounds=2_000,
)


@pytest.fixture
def trace_json():
    result = run_scenario(SCENARIO, 0, record_trace=True)
    return result.trace.to_json(indent=2)


class TestErrorTaxonomy:
    def test_trace_format_error_is_a_value_error(self):
        # Pre-existing `except ValueError` fallbacks (the stats command,
        # older tests) must keep working across the taxonomy migration.
        assert issubclass(TraceFormatError, ValueError)
        assert issubclass(TraceFormatError, ReproError)

    def test_exit_codes(self):
        assert ReproError("x").exit_code == 1
        assert TraceFormatError("x").exit_code == 2

    def test_pickles_across_process_boundaries(self):
        # Worker exceptions travel through the pool's result queue.
        exc = TraceFormatError("bad file", path="/p", line=3, offset=17)
        restored = pickle.loads(pickle.dumps(exc))
        assert str(restored) == "bad file"
        assert (restored.path, restored.line, restored.offset) == ("/p", 3, 17)


class TestTraceLoader:
    def test_truncated_trace(self, tmp_path, trace_json):
        path = tmp_path / "trace.json"
        path.write_text(trace_json[: len(trace_json) // 2])
        with pytest.raises(TraceFormatError) as info:
            load_trace(str(path))
        assert info.value.path == str(path)
        assert info.value.line is not None

    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_bytes(b"\x00\xff\xfenot json at all")
        with pytest.raises(TraceFormatError):
            load_trace(str(path))

    def test_wrong_version_header(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"format": "repro-trace-v99", "records": []}))
        with pytest.raises(TraceFormatError, match="repro-trace-v99"):
            load_trace(str(path))

    def test_malformed_record(self, tmp_path, trace_json):
        data = json.loads(trace_json)
        del data["records"][1]["destinations"]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(data))
        with pytest.raises(TraceFormatError, match="round record 1"):
            load_trace(str(path))

    def test_missing_records_array(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"format": "repro-trace-v2", "meta": None}))
        with pytest.raises(TraceFormatError, match="no records"):
            load_trace(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError, match="cannot read"):
            load_trace(str(tmp_path / "nope.json"))


class TestBenchLoader:
    def test_truncated_history(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text('{"schema": "repro-bench/2", "latest": {"mic')
        with pytest.raises(TraceFormatError) as info:
            load_history(str(path))
        assert info.value.path == str(path)

    def test_foreign_schema(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"schema": "someone-elses/9"}))
        with pytest.raises(TraceFormatError, match=HISTORY_SCHEMA):
            load_history(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError, match="cannot read"):
            load_history(str(tmp_path / "nope.json"))


class TestObsLoader:
    HEADER = json.dumps({"format": TELEMETRY_SCHEMA, "meta": None})
    SPAN = json.dumps({"type": "span", "id": 1, "parent": None,
                       "name": "run", "kind": "run", "start_ns": 0,
                       "dur_ns": 1})
    LOG = json.dumps({"type": "log", "ts": 1.0, "level": "info",
                      "logger": "repro.serve.access",
                      "event": "http.access", "msg": "ok"})

    def test_undecodable_payload_line_is_reported_not_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(self.HEADER + '\n{"type": "span", "eng\n')
        with pytest.raises(TraceFormatError) as info:
            read_telemetry(str(path))
        assert info.value.line == 2
        assert "undecodable" in str(info.value)

    def test_malformed_event_reported_with_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(self.HEADER + '\n{"not_an_event": true}\n')
        with pytest.raises(TraceFormatError, match="line 2"):
            read_telemetry(str(path))

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(self.HEADER + "\n[1, 2, 3]\n")
        with pytest.raises(TraceFormatError, match="not an object"):
            read_telemetry(str(path))

    def test_wrong_header_stays_plain_value_error(self, tmp_path):
        # The stats command relies on a header mismatch being a
        # ValueError (it then retries the input as a trace archive).
        path = tmp_path / "events.jsonl"
        path.write_text('{"format": "other"}\n')
        with pytest.raises(ValueError):
            read_telemetry(str(path))

    @pytest.mark.parametrize("record", ["SPAN", "LOG"])
    @pytest.mark.parametrize("bad_line", [
        '{"type": "log", "ts": 1, "lev',
        '{"type": "metric", "value": 3}',
        '"just a string"',
    ])
    def test_corrupt_line_mid_stream_reported_with_its_line(
        self, tmp_path, record, bad_line
    ):
        # Good records on both sides of the corruption: the reader must
        # stop at the bad line and name it, not silently keep what came
        # before it and drop the rest.
        good = getattr(self, record)
        path = tmp_path / "stream.jsonl"
        path.write_text(
            "\n".join([self.HEADER, good, good, bad_line, good, good]) + "\n"
        )
        with pytest.raises(TraceFormatError) as info:
            read_telemetry(str(path))
        assert info.value.line == 4
        assert info.value.path == str(path)

    @pytest.mark.parametrize("record", ["SPAN", "LOG"])
    def test_torn_final_line_is_dropped(self, tmp_path, record):
        good = getattr(self, record)
        path = tmp_path / "stream.jsonl"
        path.write_text(
            "\n".join([self.HEADER, good, good]) + "\n" + good[:-7]
        )
        _, records = read_telemetry(str(path))
        assert records == [json.loads(good)] * 2


class TestCliSurface:
    """Corrupted files through the CLI: structured stderr, exit 2."""

    def run_cli(self, capsys, *argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "Traceback" not in captured.out
        return code, captured

    def test_stats_on_garbage(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("][ not json")
        code, captured = self.run_cli(capsys, "stats", str(path))
        assert code == 2
        assert captured.err.startswith("error:")

    def test_stats_on_truncated_obs_stream(self, tmp_path, capsys, trace_json):
        path = tmp_path / "events.jsonl"
        path.write_text(
            json.dumps({"format": TELEMETRY_SCHEMA, "meta": None})
            + '\n{"type": "span", "eng\n'
        )
        code, captured = self.run_cli(capsys, "stats", str(path))
        assert code == 2
        assert "line 2" in captured.err

    def test_check_replay_on_truncated_trace(self, tmp_path, capsys, trace_json):
        path = tmp_path / "trace.json"
        path.write_text(trace_json[: len(trace_json) // 2])
        code, captured = self.run_cli(capsys, "check", "--replay", str(path))
        assert code == 2
        assert captured.err.startswith("error:")
        assert str(path) in captured.err

    def test_sweep_resume_on_corrupted_journal(self, tmp_path, capsys):
        path = tmp_path / "sweep.jsonl"
        path.write_text('{"format": "repro-sweep-v1", "scenario"\n')
        code, captured = self.run_cli(
            capsys,
            "sweep",
            "--workload", "asymmetric", "--n", "6", "--f", "1",
            "--scheduler", "round-robin", "--crashes", "after-move",
            "--movement", "rigid", "--seeds", "2",
            "--journal", str(path), "--resume",
        )
        assert code == 2
        assert captured.err.startswith("error:")
