"""CLI surface of the telemetry layer: telemetry streams, sweep metrics,
trace export, and the stats edge cases."""

import json
import os

import pytest

from repro.cli import main
from repro.obs import (
    SWEEP_METRICS_SCHEMA,
    TELEMETRY_SCHEMA,
    RoundEvent,
    read_telemetry,
)
from repro.sim.replay import load_trace


def _assert_chrome_shape(path):
    """The structural contract Perfetto needs to open the file."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    assert isinstance(document["traceEvents"], list)
    assert document["traceEvents"]
    for event in document["traceEvents"]:
        assert event["ph"] in ("X", "M")
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] == "X":
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
            assert isinstance(event["name"], str)
    return document


class TestSimulateSpans:
    def test_spans_jsonl_written_and_readable(self, tmp_path, capsys):
        spans_path = str(tmp_path / "run.spans.jsonl")
        code = main([
            "simulate", "--workload", "asymmetric", "--n", "6",
            "--seed", "1", "--obs-jsonl", spans_path,
        ])
        assert code == 0
        assert "telemetry saved to" in capsys.readouterr().out
        meta, spans = read_telemetry(spans_path)
        assert meta["scenario"]["workload"] == "asymmetric"
        kinds = {s["kind"] for s in spans}
        assert {"run", "round", "phase"} <= kinds


class TestSweepMetrics:
    def test_obs_sweep_writes_metrics_next_to_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "sweep.journal.jsonl")
        code = main([
            "sweep", "--workload", "asymmetric", "--n", "6",
            "--seeds", "3", "--obs", "--journal", journal,
        ])
        assert code == 0
        metrics_path = str(tmp_path / "sweep-metrics.json")
        assert f"metrics    : {metrics_path}" in capsys.readouterr().out
        with open(metrics_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["schema"] == SWEEP_METRICS_SCHEMA
        assert document["seeds"]["total"] == 3
        assert document["seeds"]["done"] == 3
        assert document["rounds"]["total"] == sum(
            document["rounds"]["by_class"].values()
        )
        assert document["span_count"] > 0

    def test_metrics_flag_picks_the_path(self, tmp_path):
        target = str(tmp_path / "elsewhere" / "m.json")
        os.makedirs(os.path.dirname(target))
        code = main([
            "sweep", "--workload", "asymmetric", "--n", "6",
            "--seeds", "2", "--metrics", target,
        ])
        assert code == 0
        with open(target, "r", encoding="utf-8") as handle:
            assert json.load(handle)["seeds"]["done"] == 2


class TestTraceExport:
    def _spans_file(self, tmp_path):
        path = str(tmp_path / "run.spans.jsonl")
        main([
            "simulate", "--workload", "asymmetric", "--n", "6",
            "--seed", "1", "--obs-jsonl", path,
        ])
        return path

    def test_span_stream_export(self, tmp_path, capsys):
        spans_path = self._spans_file(tmp_path)
        out_path = str(tmp_path / "out.json")
        code = main(["trace-export", spans_path, "-o", out_path])
        assert code == 0
        assert "telemetry stream" in capsys.readouterr().out
        document = _assert_chrome_shape(out_path)
        args = [
            e["args"] for e in document["traceEvents"] if e["ph"] == "X"
        ]
        assert all("span_id" in a for a in args)

    def test_default_output_path(self, tmp_path):
        spans_path = self._spans_file(tmp_path)
        assert main(["trace-export", spans_path]) == 0
        _assert_chrome_shape(
            os.path.splitext(spans_path)[0] + ".perfetto.json"
        )

    def test_event_stream_export(self, tmp_path, capsys):
        events_path = str(tmp_path / "run.obs.jsonl")
        main([
            "simulate", "--workload", "asymmetric", "--n", "6",
            "--seed", "1", "--obs-jsonl", events_path,
        ])
        out_path = str(tmp_path / "out.json")
        assert main(["trace-export", events_path, "-o", out_path]) == 0
        assert "telemetry stream" in capsys.readouterr().out
        document = _assert_chrome_shape(out_path)
        # Real timing, not the synthetic per-round timeline: the round
        # events ride along as the round spans' args.
        rounds = [
            e for e in document["traceEvents"] if e.get("cat") == "round"
        ]
        assert rounds and all("class" in e["args"] for e in rounds)

    def test_trace_archive_export(self, tmp_path, capsys):
        trace_path = str(tmp_path / "run.trace.json")
        main([
            "simulate", "--workload", "asymmetric", "--n", "6",
            "--seed", "1", "--save-trace", trace_path,
        ])
        out_path = str(tmp_path / "out.json")
        assert main(["trace-export", trace_path, "-o", out_path]) == 0
        assert "trace archive" in capsys.readouterr().out
        _assert_chrome_shape(out_path)

    def test_corrupt_spans_file_exits_2(self, tmp_path, capsys):
        spans_path = self._spans_file(tmp_path)
        with open(spans_path, "a", encoding="utf-8") as handle:
            handle.write('{"id": 1, "trunc\n')
        code = main(["trace-export", spans_path, "-o", str(tmp_path / "o")])
        assert code == 2
        assert "undecodable telemetry line" in capsys.readouterr().err


class TestTraceExportMerge:
    def _spans_file(self, tmp_path, name, seed):
        path = str(tmp_path / name)
        main([
            "simulate", "--workload", "asymmetric", "--n", "6",
            "--seed", str(seed), "--obs-jsonl", path,
        ])
        return path

    def test_multiple_inputs_merge_with_distinct_pids(self, tmp_path,
                                                      capsys):
        first = self._spans_file(tmp_path, "a.spans.jsonl", 1)
        second = self._spans_file(tmp_path, "b.spans.jsonl", 2)
        out_path = str(tmp_path / "merged.json")
        code = main(["trace-export", first, second, "-o", out_path])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("telemetry stream") == 2
        document = _assert_chrome_shape(out_path)
        pids = {e["pid"] for e in document["traceEvents"]}
        assert pids == {0, 1}

    def test_pid_flag_offsets_every_track_group(self, tmp_path):
        first = self._spans_file(tmp_path, "a.spans.jsonl", 1)
        second = self._spans_file(tmp_path, "b.spans.jsonl", 2)
        out_path = str(tmp_path / "merged.json")
        assert main([
            "trace-export", first, second, "--pid", "10", "-o", out_path,
        ]) == 0
        document = _assert_chrome_shape(out_path)
        assert {e["pid"] for e in document["traceEvents"]} == {10, 11}


class TestStatsOnLogFiles:
    def _log_file(self, tmp_path):
        from repro.obs import TelemetrySink
        from repro.obs.log import get_logger, hub

        path = str(tmp_path / "daemon.log.jsonl")
        sink = TelemetrySink(path, meta={"source": "unit-test"},
                             tailable=True)
        hub.add_sink(sink.log)
        try:
            log = get_logger("repro.unit")
            log.info("http.access", "request", status=200)
            log.info("http.access", "request", status=200)
            log.warn_once("pool.broken", "pool.worker_lost", "gone")
        finally:
            hub.remove_sink(sink.log)
            sink.close()
        return path

    def test_log_file_gets_level_event_tables(self, tmp_path, capsys):
        path = self._log_file(tmp_path)
        code = main(["stats", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 round events, 3 log records" in out
        assert "source=unit-test" in out
        assert "http.access" in out
        assert "pool.worker_lost" in out
        # The warn-once table names the key that fired.
        assert "pool.broken" in out

    def test_round_event_paths_still_work(self, tmp_path, capsys):
        # The log reader must not swallow the existing stats inputs.
        events_path = str(tmp_path / "run.obs.jsonl")
        main([
            "simulate", "--workload", "asymmetric", "--n", "6",
            "--seed", "1", "--obs-jsonl", events_path,
        ])
        assert main(["stats", events_path]) == 0
        assert "telemetry stream" in capsys.readouterr().out


class TestStatsEdgeCases:
    def test_empty_event_stream_reported_not_tabulated(self, tmp_path,
                                                       capsys):
        path = tmp_path / "empty.obs.jsonl"
        path.write_text(
            json.dumps({"format": TELEMETRY_SCHEMA, "meta": None}) + "\n"
        )
        code = main(["stats", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "no round events recorded" in out
        assert "obs-disabled run" in out

    def test_corrupt_event_stream_blames_the_right_format(self, tmp_path,
                                                          capsys):
        path = tmp_path / "bad.obs.jsonl"
        path.write_text(
            json.dumps({"format": TELEMETRY_SCHEMA, "meta": None})
            + '\n{"type": "span", "trunc\n'
        )
        code = main(["stats", str(path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def _table(out, table_id):
    """The rendered block of one ``[table_id]`` table in ``out``."""
    start = out.index(f"[{table_id}]")
    end = out.find("\n\n", start)
    return (out[start:] if end < 0 else out[start:end]).rstrip("\n")


class TestStreamMatchesTraceArchive:
    """One run recorded twice: the telemetry stream and the trace
    archive must tell the same round-by-round story."""

    def test_stream_and_archive_agree(self, tmp_path, capsys):
        stream = str(tmp_path / "run.jsonl")
        archive = str(tmp_path / "run.trace.json")
        assert main([
            "simulate", "--workload", "asymmetric", "--n", "6", "--f", "2",
            "--crashes", "after-move", "--scheduler", "round-robin",
            "--movement", "rigid", "--seed", "3",
            "--obs-jsonl", stream, "--save-trace", archive,
        ]) == 0
        capsys.readouterr()

        # Round-span attrs are exactly the events derived from the
        # archived records.
        _, records = read_telemetry(stream)
        attrs = [
            r["attrs"] for r in records
            if r["type"] == "span" and r["kind"] == "round"
        ]
        trace = load_trace(archive)
        assert attrs == [
            RoundEvent.from_record(record).to_dict()
            for record in trace.records
        ]

        # stats prints identical class and summary tables for both.
        assert main(["stats", stream]) == 0
        from_stream = capsys.readouterr().out
        assert main(["stats", archive]) == 0
        from_archive = capsys.readouterr().out
        for table_id in ("stats-classes", "stats-summary"):
            assert _table(from_stream, table_id) == _table(
                from_archive, table_id
            )
        # Only the stream has run spans, so only it reports the verdict.
        assert "gathered" in _table(from_stream, "stats-runs")

        # trace-export keeps the whole hierarchy on the real timeline.
        out_path = str(tmp_path / "run.perfetto.json")
        assert main(["trace-export", stream, "-o", out_path]) == 0
        document = _assert_chrome_shape(out_path)
        cats = {e.get("cat") for e in document["traceEvents"]}
        assert {"run", "round", "phase"} <= cats
