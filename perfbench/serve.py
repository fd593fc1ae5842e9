"""The serve-mixed workload: a ``repro serve`` daemon under HTTP load.

Traffic is ``POST /run``: 9 in 10 repeat a warmed key (memory cache
hits, the reads) and 1 in 10 names a fresh seed of a small n = 6-8
scenario (a full simulation plus a sha256-enveloped disk write, the
writes).

A timed run (``S`` = ``--seconds``) is ``ROUNDS`` rounds and then the
ladder, all from one process.  Each round runs these phases, as
``SHARES`` of ``S/ROUNDS``, and then, off the clock, its share of the
``SETUP_REPEATS`` daemon start-ups that give ``setup_s``:

* fixed-rate open loop at ``RATE`` req/s on nproc connections (0.25):
  hit and miss latency, each timed from its due time;
* one client over warm keys (0.15): the read rate;
* one client over fresh keys (0.25): write latency;
* one client over the 90/10 mix (0.25): the serial rate;
* the same client on one keep-alive connection (0.02): reported only.

All but the last open a connection per request, as the repository's own
client does.  Each phase is one speed slice (``speed.py``): its
latencies and rates are scaled to the reference machine speed measured
around it.  The rate ladder takes the last ``LADDER_SHARE·S``:
``max_rps``, the highest offered rate with p99 <= 100 ms and no failed
request.

Every 200 body must parse as a run result with the Theorem 5.1 verdict,
every hit must be byte-identical to its key's first miss body, and the
daemon's own ``/metrics`` store counters must match the client's counts.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import sys
import time
from itertools import count
from typing import Dict, List, Optional

import inputs
from inputs import Checker
from common import WORK, SetupProbes, child_env, peak_rss_mb, stop, time_to_ready
from loadgen import Outcome, closed_loop, http_sender, open_loop, group_rates
from metrics import layer_table, rounds_per_run
from speed import Slice, factor_summary
from stats import balanced_median, median, ms, percentile, tail


#: Fixed offered rate for the latency metrics, well below saturation.
RATE = 100.0
#: Latency limit of the ``max_rps`` ladder (p99 over all requests).
LIMIT_S = 0.1
#: Completions per rate sample in the one-client closed-loop phases.
GROUP = 20
#: Set-up samples per timed run, taken between rounds.
SETUP_REPEATS = 15
#: Each measured phase runs in this many slices, interleaved with the
#: others; the gated numbers are medians over slices, so a burst of
#: machine noise moves one slice, not the result.
ROUNDS = 10
#: Offered rates of the max_rps ladder, as multiples of ``RATE``.
LADDER = (1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
#: Phase lengths as shares of a round (``S/ROUNDS``).  Only the open
#: loop uses more than one connection, and it is far below saturation:
#: with more runnable threads than cores a phase measures the scheduler.
SHARES = {
    "open": 0.25,
    "reads": 0.15,
    "writes": 0.25,
    "single": 0.25,
    "keep-alive": 0.02,
}
#: Share of ``S`` taken by the max_rps ladder after the rounds.
LADDER_SHARE = 0.08
#: Requests per probe of the control server.
ECHO_REQUESTS = 10
#: The control server's median latencies on an idle host, by probe
#: style: the hit path is reported in units of these references.
ECHO_REFERENCE_S = {"paced": 0.0014, "back-to-back": 0.0008}
#: Which host-speed measure scales each phase: the control server for
#: the HTTP-bound hit path (paced like the open loop, or back to back
#: like the closed loops), the CPU loop for compute-bound writes.
SCALED_BY = {
    "hits": "paced",
    "reads": "back-to-back",
    "single": "back-to-back",
    "misses": "loop",
    "writes": "loop",
}


class Daemon:
    """One daemon subprocess with a fresh store: ``python -m repro serve``
    itself, or the same command under the layer tracer."""

    def __init__(self, name: str, trace_out: Optional[str] = None) -> None:
        store = os.path.join(WORK, f"store-{name}-{os.getpid()}")
        if trace_out:
            argv = [
                sys.executable,
                os.path.join(os.path.dirname(__file__), "serve_daemon.py"),
                "--store",
                store,
                "--trace-out",
                trace_out,
            ]
        else:
            argv = [sys.executable, "-m", "repro", "serve"]
            argv += ["--port", "0", "--store", store]
        started = time.perf_counter()
        _, self.proc, line = time_to_ready(argv, child_env())
        try:
            # "repro serve listening on http://HOST:PORT"
            match = re.search(r"listening on http://[^\s]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"unexpected first line from repro serve: {line!r}")
            self.port = int(match.group(1))
            self._wait_ready()
        except BaseException:
            stop(self.proc)
            raise
        self.ready_s = time.perf_counter() - started

    def _get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            try:
                if self._get("/readyz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("daemon never became ready")

    def metrics(self) -> dict:
        status, body = self._get("/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics -> {status}")
        return json.loads(body)

    def sender(self, keep_alive: bool = False):
        return lambda: http_sender("127.0.0.1", self.port, keep_alive=keep_alive)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        stop(self.proc)

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        stop(self.proc)


class Echo:
    """The control server (``echo_server.py``) in a subprocess."""

    def __init__(self, request) -> None:
        script = os.path.join(os.path.dirname(__file__), "echo_server.py")
        argv = [sys.executable, script]
        _, self.proc, line = time_to_ready(argv, child_env())
        self.port = int(line)
        self.request = request

    def probe(self) -> Dict[str, float]:
        """Median latencies of ``ECHO_REQUESTS`` requests sent at ``RATE``
        and of as many back to back, each on a new connection like the
        measured traffic."""
        medians = {}
        for style, rate in (("paced", RATE), ("back-to-back", 1e9)):
            outcomes = open_loop(
                lambda: http_sender("127.0.0.1", self.port, keep_alive=False),
                [self.request] * ECHO_REQUESTS,
                rate,
                1,
            )
            if any(o.status != 200 for o in outcomes):
                raise RuntimeError(f"control server failed: {outcomes[0].error}")
            medians[style] = median([o.done - o.sent for o in outcomes])
        return medians

    def stop(self) -> None:
        stop(self.proc)


class Contract:
    """The serve cache contract, checked on every outcome."""

    def __init__(self, checker: Checker) -> None:
        self.checker = checker
        self.first: Dict[str, bytes] = {}
        self.hits = 0
        self.misses = 0

    def check(self, request, outcome: Outcome) -> None:
        checker = self.checker
        checker.attempted += 1
        scenario = request.scenario
        where = (
            f"POST /run {scenario['workload']}/n={scenario['n']} "
            f"seed {request.seed}"
        )
        if outcome.error or outcome.status != 200:
            checker.fail(f"{where}: status {outcome.status} {outcome.error or ''}")
            return
        expected = "hit" if request.key in self.first else "miss"
        if outcome.cache != expected:
            checker.fail(f"{where}: X-Repro-Cache {outcome.cache!r}, not {expected!r}")
            return
        if outcome.cache == "hit":
            self.hits += 1
            if outcome.body != self.first[request.key]:
                checker.fail(f"{where}: hit body differs from the first miss body")
            return
        self.misses += 1
        self.first[request.key] = outcome.body
        try:
            doc = json.loads(outcome.body)
            verdict = doc["result"]["verdict"]
            same = doc["kind"] == "run" and doc["seed"] == request.seed and all(
                doc["scenario"][field] == value for field, value in scenario.items()
            )
        except (ValueError, KeyError, TypeError) as exc:
            checker.fail(f"{where}: body is not a run result ({exc})")
            return
        if not same:
            checker.fail(f"{where}: body describes another run")
        elif verdict != inputs.expected_verdict(scenario["workload"]):
            checker.fail(f"{where}: verdict {verdict!r}")

    def check_all(self, requests, outcomes: List[Outcome]) -> None:
        for request, outcome in zip(requests, outcomes):
            self.check(request, outcome)

    def cross_check(self, daemon: Daemon) -> dict:
        """The daemon's store counters against the client's counts."""
        cache = daemon.metrics()["cache"]
        if (cache["hits"], cache["misses"]) != (self.hits, self.misses):
            self.checker.fail(
                f"/metrics store hits/misses {cache['hits']}/{cache['misses']} "
                f"!= client {self.hits}/{self.misses}"
            )
        return cache


def _closed(daemon, source, contract, connections, seconds, keep_alive=False):
    """Closed loop over requests drawn from ``source()``; returns the
    requests and their outcomes, both in send order, and the wall time."""
    issued: List = []

    def next_request():
        request = source()
        issued.append(request)
        return request

    outcomes, wall = closed_loop(
        daemon.sender(keep_alive), next_request, connections, seconds
    )
    # Outcomes are in send order, so the contract sees keys in the
    # order the daemon could first have seen them.
    contract.check_all(issued, outcomes)
    return issued, outcomes, wall


def _sequential(daemon, requests, contract) -> float:
    """Send ``requests`` one after another; returns the wall time."""
    start = time.perf_counter()
    outcomes = open_loop(daemon.sender(), requests, 1e9, 1)
    contract.check_all(requests, outcomes)
    return time.perf_counter() - start


def _ladder(daemon, mix, contract, seconds, connections) -> Optional[float]:
    """Achieved rate of the highest ladder step with p99 <= ``LIMIT_S``
    and no failed request (``None`` when the first step fails)."""
    best = None
    step_s = seconds / len(LADDER)
    for share in LADDER:
        requests = mix.take(int(share * RATE * step_s))
        outcomes = open_loop(daemon.sender(), requests, share * RATE, connections)
        contract.check_all(requests, outcomes)
        if any(o.status != 200 for o in outcomes) or percentile(
            [o.latency for o in outcomes], 0.99
        ) > LIMIT_S:
            break
        best = len(outcomes) / (max(o.done for o in outcomes) - outcomes[0].due)
    return best


def serve_mixed(seed: int, seconds: float, trace: bool) -> dict:
    checker = Checker()
    connections = os.cpu_count() or 1
    mix = inputs.RequestMix(seed)
    contract = Contract(checker)
    if trace:
        result = _traced(mix, contract, connections)
    else:
        result = _timed(mix, contract, seconds, connections)
    result["checker"] = checker
    return result


_PROBE_NAMES = count()


def _ready_probe() -> float:
    """Reference seconds from spawning a fresh daemon until ``/readyz``
    is 200.

    The probe daemon has done no work, so it is killed rather than
    drained (a graceful stop waits out the serve loop's 0.5 s poll)."""
    with Slice() as timing:
        daemon = Daemon(f"probe{next(_PROBE_NAMES)}")
        daemon.kill()
    return daemon.ready_s * timing.factor


class Round:
    """The raw samples of one round, with the scale factor of each phase:
    the CPU loop's around the phase, or the control server's around the
    round (``SCALED_BY``)."""

    def __init__(self, echo_before: Dict[str, float]) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.factors: Dict[str, float] = {}
        #: The (family, n) cell of each write.
        self.cells: List[tuple] = []
        self.echo_before = echo_before
        self.echo_factors: Dict[str, float] = {}

    def add(self, phase: str, timing: Slice, samples: List[float]) -> None:
        self.samples[phase] = samples
        self.factors[phase] = timing.factor

    def close(self, echo_after: Dict[str, float]) -> None:
        for style, reference in ECHO_REFERENCE_S.items():
            mean = (self.echo_before[style] + echo_after[style]) / 2
            self.echo_factors[style] = reference / mean
        for phase, by in SCALED_BY.items():
            if by != "loop":
                self.factors[phase] = self.echo_factors[by]


def _cell(request) -> tuple:
    return request.scenario["workload"], request.scenario["n"]


def _figures(rounds: List[Round], scaled: bool) -> dict:
    """Gated figures from the rounds' samples, latencies in (reference)
    seconds and rates per (reference) second.  Write costs differ several
    times over between the (family, n) cells, so their figure is the
    balanced median over cells."""

    def per_round(phase: str, rate: bool = False) -> List[List[float]]:
        out = []
        for round_ in rounds:
            factor = round_.factors[phase] if scaled else 1.0
            scale = 1.0 / factor if rate else factor
            out.append([value * scale for value in round_.samples[phase]])
        return out

    return {
        "throughput_per_s": median(sum(per_round("reads", True), [])),
        "serial_per_s": median(sum(per_round("single", True), [])),
        "p50_ms": 1e3 * median([median(r) for r in per_round("hits")]),
        "heavy_p50_ms": 1e3
        * balanced_median(
            pair
            for round_, writes in zip(rounds, per_round("writes"))
            for pair in zip(round_.cells, writes)
        ),
        "hits": sum(per_round("hits"), []),
        "misses": sum(per_round("misses"), []),
        "writes": sum(per_round("writes"), []),
    }


def _timed(mix, contract, seconds, connections) -> dict:
    probes = SetupProbes(_ready_probe, SETUP_REPEATS)
    echo = Echo(mix.warm[0])
    try:
        daemon = Daemon("main")
    except BaseException:
        echo.stop()
        raise
    rounds: List[Round] = []
    kept_requests = 0
    kept_s = 0.0
    lags: List[float] = []
    read_latency: List[float] = []
    part = seconds / ROUNDS
    try:
        _sequential(daemon, mix.warm, contract)
        for round_index in range(ROUNDS):
            # Each phase is a speed slice of its own; the control server
            # is probed around the whole round.
            round_ = Round(echo.probe())
            fixed = mix.take(int(RATE * SHARES["open"] * part))
            with Slice() as timing:
                outcomes = open_loop(daemon.sender(), fixed, RATE, connections)
            contract.check_all(fixed, outcomes)
            for phase, cache in (("hits", "hit"), ("misses", "miss")):
                latencies = [o.latency for o in outcomes if o.cache == cache]
                round_.add(phase, timing, latencies)
            with Slice() as timing:
                _, reads, _ = _closed(
                    daemon, mix.repeat, contract, 1, SHARES["reads"] * part
                )
            round_.add("reads", timing, group_rates(reads, GROUP))
            with Slice() as timing:
                written, writes, _ = _closed(
                    daemon, mix.fresh, contract, 1, SHARES["writes"] * part
                )
            round_.add("writes", timing, [o.done - o.sent for o in writes])
            round_.cells = [_cell(request) for request in written]
            with Slice() as timing:
                _, single, _ = _closed(
                    daemon, mix.next, contract, 1, SHARES["single"] * part
                )
            round_.add("single", timing, group_rates(single, GROUP))
            _, kept, kept_wall = _closed(
                daemon,
                mix.next,
                contract,
                1,
                SHARES["keep-alive"] * part,
                keep_alive=True,
            )
            kept_requests += len(kept)
            kept_s += kept_wall
            lags += [o.lag for o in outcomes]
            round_.close(echo.probe())
            rounds.append(round_)
            read_latency += [(o.done - o.sent) * round_.factors["reads"] for o in reads]
            probes.due((round_index + 1) / ROUNDS)
        max_rps = _ladder(daemon, mix, contract, LADDER_SHARE * seconds, connections)
        cache = contract.cross_check(daemon)
        rss = daemon.peak_rss_mb()
    finally:
        echo.stop()
        daemon.stop()
    gated = _figures(rounds, scaled=True)
    raw = _figures(rounds, scaled=False)
    hits, misses = gated.pop("hits"), gated.pop("misses")
    writes = gated.pop("writes")
    del raw["hits"], raw["misses"], raw["writes"]
    report = {
        "hit_p50_ms": 1e3 * median(hits),
        "hit_p99_ms": ms(tail(hits, 0.99)),
        "miss_p50_ms": 1e3 * median(misses),
        "miss_p90_ms": ms(tail(misses, 0.9)),
        "hit_samples": len(hits),
        "miss_samples": len(misses),
        "lag_p99_ms": ms(tail(lags, 0.99)),
        "max_rps": max_rps,
        "read_rps": gated["throughput_per_s"],
        "read_p99_ms": ms(tail(read_latency, 0.99)),
        "write_p50_ms": 1e3 * median(writes),
        "write_p50_ms_balanced": gated["heavy_p50_ms"],
        "write_samples": len(writes),
        "single_client_rps": gated["serial_per_s"],
        "keepalive_client_rps": kept_requests / kept_s,
        "store_hits": cache["hits"],
        "store_misses": cache["misses"],
        "speed_factor": factor_summary(
            [round_.factors["writes"] for round_ in rounds]
        ),
        "echo_factor": {
            style: factor_summary([round_.echo_factors[style] for round_ in rounds])
            for style in ECHO_REFERENCE_S
        },
        "unscaled": raw,
    }
    return {
        "setup_s": probes.median(),
        "e2e": dict(gated, peak_rss_mb=rss),
        "report": report,
    }


#: Requests of the fixed closed-loop list the traced comparison replays.
TRACE_REQUESTS = 300
#: Length of the traced run's open-loop phase (enough for a lag p99).
TRACE_OPEN_S = 12.0


def _traced(mix, contract, connections) -> dict:
    """The same fixed request list against an untraced and a traced
    daemon (fresh stores, so the same hits and misses), then an open-loop
    phase on the untraced one for generator lag and shedding."""
    requests = mix.warm + mix.take(TRACE_REQUESTS)
    trace_out = os.path.join(WORK, f"serve-trace-{os.getpid()}.json")
    plain = Daemon("plain")
    try:
        untraced_wall = _sequential(plain, requests, contract)
        fixed = mix.take(int(RATE * TRACE_OPEN_S))
        outcomes = open_loop(plain.sender(), fixed, RATE, connections)
        contract.check_all(fixed, outcomes)
        contract.cross_check(plain)
        shed = plain.metrics()["robustness"]["rejected"]
    finally:
        plain.stop()
    traced_contract = Contract(contract.checker)
    traced = Daemon("traced", trace_out)
    try:
        traced_wall = _sequential(traced, requests, traced_contract)
        cache = traced_contract.cross_check(traced)
    finally:
        traced.stop()
    with open(trace_out) as handle:
        spans = json.load(handle)
    lags = [o.lag for o in outcomes]
    summary = spans["summary"]
    lookups = cache["hits"] + cache["misses"]
    return {
        "setup_s": plain.ready_s,
        "layers": layer_table(
            [summary],
            [spans["counts"]],
            {
                "sim.rounds_per_run": rounds_per_run(summary, traced_contract.misses),
                "serve.store.hit_ratio": cache["hits"] / lookups,
                "serve.shed": shed,
                "loadgen.lag_p99_ms": 1e3 * percentile(lags, 0.99),
                "trace.coverage_frac": spans["covered_s"] / traced_wall,
                "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
            },
        ),
        "report": {"traced_requests": len(requests)},
    }

