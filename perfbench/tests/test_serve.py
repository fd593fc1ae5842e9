import json

import pytest

import inputs
import serve
import speed
from inputs import Checker


@pytest.fixture(autouse=True)
def scratch_store(tmp_path, monkeypatch):
    monkeypatch.setattr(serve, "WORK", str(tmp_path))


def _send_twice(daemon, request):
    contract = serve.Contract(Checker())
    serve._sequential(daemon, [request, request], contract)
    return contract


def test_untraced_daemon_is_the_repro_serve_command():
    daemon = serve.Daemon("plain")
    try:
        assert daemon.proc.args[1:4] == ["-m", "repro", "serve"]
        contract = _send_twice(daemon, inputs.RequestMix(1).warm[0])
        assert contract.checker.failed == 0, contract.checker.errors
        assert (contract.misses, contract.hits) == (1, 1)
        contract.cross_check(daemon)
        assert contract.checker.failed == 0, contract.checker.errors
    finally:
        daemon.stop()
    assert daemon.proc.returncode == 0


def test_traced_daemon_records_serve_layers_and_exits_cleanly(tmp_path):
    trace_out = str(tmp_path / "spans.json")
    daemon = serve.Daemon("traced", trace_out)
    try:
        contract = _send_twice(daemon, inputs.RequestMix(2).warm[0])
        assert contract.checker.failed == 0, contract.checker.errors
    finally:
        daemon.stop()
    assert daemon.proc.returncode == 0
    with open(trace_out) as handle:
        spans = json.load(handle)
    summary = spans["summary"]
    assert summary["serve.handler"]["calls"] == 2
    assert summary["serve.compute"]["calls"] == 1
    assert summary["serve.store.put"]["calls"] == 1
    assert summary["sim.step"]["calls"] >= 1
    assert spans["counts"]["core.memo.misses"] >= 1
    assert 0 < spans["covered_s"]


def test_ready_probe_measures_a_fresh_daemon():
    assert 0 < serve._ready_probe() < 60


def test_control_server_answers_and_stops():
    echo = serve.Echo(inputs.RequestMix(3).warm[0])
    try:
        probe = echo.probe()
    finally:
        echo.stop()
    assert set(probe) == set(serve.ECHO_REFERENCE_S)
    assert all(0 < latency < 1 for latency in probe.values())
    assert echo.proc.returncode is not None


def test_round_scales_the_hit_path_by_the_control_server():
    slow = {style: 2 * ref for style, ref in serve.ECHO_REFERENCE_S.items()}
    round_ = serve.Round(echo_before=slow)
    with speed.Slice() as timing:
        pass
    for phase in serve.SCALED_BY:
        round_.add(phase, timing, [1.0])
    round_.close(echo_after=slow)  # the HTTP path ran at half speed
    for phase, by in serve.SCALED_BY.items():
        expected = timing.factor if by == "loop" else 0.5
        assert round_.factors[phase] == pytest.approx(expected)
