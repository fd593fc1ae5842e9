"""Benchmark harness — ``repro-gather bench``.

Measures the hot geometry primitives (micro benchmarks) and end-to-end
round throughput of the simulator for every available kernel backend,
and writes the results as one JSON document (``BENCH_micro.json`` at the
repo root by default).  The JSON is the repo's performance record: the
recorded ``speedups`` section is how the "numpy backend is >= 3x faster
at n = 256" claim in README.md is regenerated.

Schema (``repro-bench/1``)
--------------------------
``micro``
    One entry per (name, backend, n): ``best_s``/``mean_s`` over
    ``repeats`` timed calls of one primitive on a fresh input.
``round_throughput``
    One entry per (backend, n): seconds for one fully-synchronous
    ATOM round of ``wait-free-gather`` on a random workload, and the
    derived ``robots_per_s``.
``lcm_round_throughput``
    One entry per (activation, n): seconds for one complete LCM cycle
    of the unified engine under each activation model — one round for
    ``atom``, a LOOK tick plus a MOVE tick for ``async`` — on the
    python backend.  This is the dispatch-overhead guard for the
    engine unification: the pluggable activation model must not make
    the scalar loop slower.
``serve_request_latency``
    Cold-vs-warm ``POST /run`` latency against an in-process
    ``repro serve`` daemon on an ephemeral port: ``cold_s`` is the
    first request (cache miss, full simulation), ``warm_s`` the best of
    ``repeats`` cache hits — the serving layer's overhead floor, which
    the regression gate watches.  Skipped (empty) when the loopback
    socket cannot bind.
``serve_shed_latency``
    Response latency under synthetic overload (every handler slowed by
    deterministic chaos, all clients firing at once), once with
    ``--max-inflight`` admission control and once unbounded: p50/p99/max
    plus the shed count per mode.  Recorded for the load-shed curve in
    EXPERIMENTS.md, not gated — the warm-hit key above is the gate.
``speedups``
    Python-over-numpy ratios of the round times per size (only when
    both backends ran).

Timing methodology: wall-clock ``time.perf_counter`` around the call,
*best of repeats* as the headline number (robust against scheduler
noise; the mean is also recorded).  Inputs are rebuilt fresh for every
repetition because configurations memoize their derived structure — a
second call on the same object would time a dict lookup.

History (``repro-bench/2``)
---------------------------
The file on disk is a *history*, not a single run: ``latest`` holds the
most recent per-run document (the regression-guard view) and ``runs`` an
append-only array of ``{git_sha, recorded_at, document}`` entries, one
per ``repro bench`` invocation — the perf trajectory across commits.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

from .algorithms import WaitFreeGather
from .core import Configuration, safe_points
from .core.views import view_table
from .geometry import geometric_median, kernels
from .resilience import TraceFormatError, atomic_write
from .sim import AtomicActivation, PhasedActivation, Simulation
from .sim.scheduler import FullySynchronous
from .workloads import generate

__all__ = [
    "run_bench",
    "write_bench",
    "load_history",
    "check_regressions",
    "DEFAULT_SIZES",
    "QUICK_SIZES",
]

#: Schema of one benchmark run's document.
SCHEMA = "repro-bench/1"
#: Schema of the on-disk file: a history of run documents.
HISTORY_SCHEMA = "repro-bench/2"
DEFAULT_SIZES = [16, 64, 256]
QUICK_SIZES = [16, 64]

#: Workload seed shared by all benchmarks: timings are comparable across
#: runs and backends because everybody measures the same point set.
_SEED = 42

def _time_best(fn: Callable[[], object], repeats: int) -> Dict[str, float]:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {
        "best_s": min(samples),
        "mean_s": sum(samples) / len(samples),
        "repeats": repeats,
    }


def _micro_cases(points) -> Dict[str, Callable[[], object]]:
    """The micro-benchmarked primitives, each on a *fresh* input.

    Every thunk rebuilds its :class:`Configuration` inside the timed
    region where the primitive needs one, except ``configuration``
    itself (whose construction — the tolerant cluster merge — is the
    thing being measured).
    """
    return {
        "configuration": lambda: Configuration(points),
        "view_table": lambda: view_table(Configuration(points)),
        "safe_points": lambda: safe_points(Configuration(points)),
        "geometric_median": lambda: geometric_median(points),
    }


def _one_round_seconds(n: int) -> float:
    """One fully-synchronous round of the paper's algorithm, timed."""
    sim = Simulation(
        WaitFreeGather(),
        generate("random", n, _SEED),
        scheduler=FullySynchronous(),
        seed=1,
    )
    start = time.perf_counter()
    sim.step()
    return time.perf_counter() - start


def _lcm_cycle_seconds(n: int, activation_name: str) -> float:
    """One complete LCM cycle under the named activation model, timed.

    ``atom`` completes a cycle per round; ``async`` needs a LOOK tick
    and a MOVE tick under the fully-synchronous scheduler, so two
    steps are timed — either way the measurement covers one full
    look/compute/move pass for every robot.
    """
    activation = (
        AtomicActivation() if activation_name == "atom" else PhasedActivation()
    )
    sim = Simulation(
        WaitFreeGather(),
        generate("random", n, _SEED),
        scheduler=FullySynchronous(),
        activation=activation,
        seed=1,
    )
    steps = 1 if activation_name == "atom" else 2
    start = time.perf_counter()
    for _ in range(steps):
        sim.step()
    return time.perf_counter() - start


#: Scenario served by the request-latency benchmark: small enough that
#: the cold request finishes in tens of milliseconds, deterministic so
#: every warm repetition hits the same cache entry.
_SERVE_SCENARIO = {
    "workload": "random",
    "n": 6,
    "f": 1,
    "crashes": "random",
    "max_rounds": 5_000,
}


def _serve_request_latency(repeats: int) -> List[Dict]:
    """Cold/warm ``POST /run`` timings against an in-process daemon.

    Returns a one-entry list (schema-wise a section like the others), or
    an empty list when the loopback socket cannot bind — bench must
    degrade, not die, in network-less sandboxes.
    """
    import threading

    from .serve.server import ReproServer, _request

    try:
        server = ReproServer(port=0)
    except OSError:
        return []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        payload = {"scenario": _SERVE_SCENARIO, "seed": 0}

        start = time.perf_counter()
        status, _, _ = _request(
            server.host, server.port, "POST", "/run", payload
        )
        cold_s = time.perf_counter() - start
        if status != 200:
            return []

        warm = []
        for _ in range(repeats):
            start = time.perf_counter()
            _request(server.host, server.port, "POST", "/run", payload)
            warm.append(time.perf_counter() - start)
    finally:
        server.close()
        thread.join(timeout=30)
    warm_s = min(warm)
    return [
        {
            "endpoint": "run",
            "n": _SERVE_SCENARIO["n"],
            "cold_s": cold_s,
            "warm_s": warm_s,
            "warm_mean_s": sum(warm) / len(warm),
            "repeats": repeats,
            "speedup": cold_s / warm_s,
        }
    ]


def _serve_shed_latency(threads: int = 8, per_thread: int = 4) -> List[Dict]:
    """Response latency under real overload, with and without admission
    control.

    ``threads * per_thread`` uncacheable requests (``"cache": false`` —
    every one computes) arrive at once and serialize behind the daemon's
    single simulation slot.  With ``--max-inflight`` the daemon sheds
    the excess as instant 429s, so the latency distribution stays flat;
    unbounded, every request queues behind the slot and the tail grows
    linearly with the offered load.  Recorded (p50/p99/shed per mode),
    not gated — the *warm hit* latency key is the regression gate; this
    section documents the load-shed curve for EXPERIMENTS.md.
    """
    import threading as _threading

    from .serve.server import ReproServer, _request

    entries: List[Dict] = []
    for mode, max_inflight in (("admission", 2), ("unbounded", None)):
        try:
            server = ReproServer(port=0, max_inflight=max_inflight)
        except OSError:
            return entries
        thread = _threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        try:
            payload = {
                "scenario": _SERVE_SCENARIO,
                "seed": 0,
                "cache": False,
            }
            status, _, _ = _request(
                server.host, server.port, "POST", "/run", payload
            )
            if status != 200:
                return entries
            latencies: List[float] = []
            shed = [0]
            lock = _threading.Lock()
            barrier = _threading.Barrier(threads)

            def client_thread():
                barrier.wait()
                for _ in range(per_thread):
                    start = time.perf_counter()
                    response_status, _, _ = _request(
                        server.host, server.port, "POST", "/run", payload
                    )
                    elapsed = time.perf_counter() - start
                    with lock:
                        latencies.append(elapsed)
                        if response_status == 429:
                            shed[0] += 1

            workers = [
                _threading.Thread(target=client_thread)
                for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            server.close()
            thread.join(timeout=30)
        latencies.sort()
        offered = len(latencies)
        entries.append(
            {
                "mode": mode,
                "max_inflight": max_inflight,
                "offered": offered,
                "ok": offered - shed[0],
                "shed": shed[0],
                "p50_s": latencies[offered // 2],
                "p99_s": latencies[min(offered - 1, (offered * 99) // 100)],
                "max_s": latencies[-1],
            }
        )
    return entries


def run_bench(
    sizes: Optional[Sequence[int]] = None,
    repeats: int = 3,
    backends: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Run the full benchmark matrix and return the JSON-ready document."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    sizes = list(sizes if sizes is not None else DEFAULT_SIZES)
    backends = list(backends if backends is not None else kernels.available_backends())
    say = progress or (lambda message: None)

    numpy_version = None
    if "numpy" in kernels.available_backends():
        import numpy

        numpy_version = numpy.__version__

    micro: List[Dict] = []
    round_throughput: List[Dict] = []
    for backend_name in backends:
        with kernels.backend(backend_name):
            for n in sizes:
                points = generate("random", n, _SEED)
                for name, thunk in _micro_cases(points).items():
                    say(f"micro {name} backend={backend_name} n={n}")
                    entry = {"name": name, "backend": backend_name, "n": n}
                    entry.update(_time_best(thunk, repeats))
                    micro.append(entry)
                say(f"round backend={backend_name} n={n}")
                # One round is seconds-to-minutes of work at the larger
                # sizes; a single sample is already noise-dominated by
                # real computation, so rounds are not repeated.
                round_s = _one_round_seconds(n)
                round_throughput.append(
                    {
                        "backend": backend_name,
                        "n": n,
                        "round_s": round_s,
                        "robots_per_s": n / round_s,
                    }
                )

    lcm_round_throughput: List[Dict] = []
    with kernels.backend("python"):
        for activation_name in ("atom", "async"):
            for n in sizes:
                say(f"lcm cycle activation={activation_name} n={n}")
                cycle_s = _lcm_cycle_seconds(n, activation_name)
                lcm_round_throughput.append(
                    {
                        "activation": activation_name,
                        "backend": "python",
                        "n": n,
                        "cycle_s": cycle_s,
                        "robots_per_s": n / cycle_s,
                    }
                )

    say("serve request latency (cold vs warm)")
    # Warm hits are sub-millisecond; extra repeats are free and make the
    # best-of robust against scheduler noise.
    serve_request_latency = _serve_request_latency(max(repeats, 5))

    say("serve shed latency (overload, admission on/off)")
    serve_shed_latency = _serve_shed_latency()

    speedups: List[Dict] = []
    by_size: Dict[int, Dict[str, float]] = {}
    for entry in round_throughput:
        by_size.setdefault(entry["n"], {})[entry["backend"]] = entry["round_s"]
    for n in sizes:
        times = by_size.get(n, {})
        if "python" in times and "numpy" in times:
            speedups.append(
                {
                    "metric": "round_throughput",
                    "n": n,
                    "python_s": times["python"],
                    "numpy_s": times["numpy"],
                    "speedup": times["python"] / times["numpy"],
                }
            )
    return {
        "schema": SCHEMA,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python_version": sys.version.split()[0],
        "numpy_version": numpy_version,
        "platform": platform.platform(),
        "workload": {"kind": "random", "seed": _SEED},
        "sizes": sizes,
        "repeats": repeats,
        "backends": backends,
        "micro": micro,
        "round_throughput": round_throughput,
        "lcm_round_throughput": lcm_round_throughput,
        "serve_request_latency": serve_request_latency,
        "serve_shed_latency": serve_shed_latency,
        "speedups": speedups,
    }


def _git_sha() -> Optional[str]:
    """HEAD commit of the working directory's repo, or ``None``."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def load_history(path: str) -> Dict:
    """Read a ``repro-bench/2`` history file.

    Corrupted JSON or any other top-level schema (a bare
    ``repro-bench/1`` run document included) raises
    :class:`~repro.resilience.errors.TraceFormatError` (a
    :class:`ValueError`) carrying the path and, for syntax errors, the
    line/offset — so a stale or truncated file fails loudly rather than
    being silently clobbered by the next bench run.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(
            f"{path}: corrupted bench history: invalid JSON at line "
            f"{exc.lineno} column {exc.colno}: {exc.msg}",
            path=path,
            line=exc.lineno,
            offset=exc.pos,
        ) from exc
    except OSError as exc:
        raise TraceFormatError(
            f"{path}: cannot read bench history: {exc}", path=path
        ) from exc
    except UnicodeDecodeError as exc:
        raise TraceFormatError(
            f"{path}: not a text file (binary garbage at byte "
            f"{exc.start})",
            path=path,
            offset=exc.start,
        ) from exc
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema == HISTORY_SCHEMA:
        return data
    raise TraceFormatError(
        f"{path!r} is not a {HISTORY_SCHEMA} file (schema={schema!r})",
        path=path,
    )


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def check_regressions(
    history: Dict,
    document: Dict,
    threshold: float = 0.25,
    window: int = 5,
) -> List[Dict]:
    """Regression gate: ``document`` against the recent history.

    For every benchmark key — ``(name, backend, n)`` of a micro
    benchmark (``best_s``), ``(backend, n)`` of a round-throughput
    measurement (``round_s``), ``(activation, n)`` of an LCM-cycle measurement (``cycle_s``, the
    unified engine's per-activation-model dispatch cost) and
    ``(endpoint, n)`` of a serve-latency measurement (``warm_s``, the
    cache-hit overhead floor; ``cold_s`` is simulation-dominated and
    already covered by the round gates) — the baseline
    is the **median over the last ``window`` history runs** that
    measured that key.  The median
    (not the best or the mean) absorbs the odd noisy run without
    letting a slow drift hide; keys the history never measured are
    skipped, so shrinking or growing the size matrix cannot fail the
    gate spuriously.

    Returns one dict per regression (``current > baseline * (1 +
    threshold)``): metric, key, current/baseline seconds, ratio, and
    the number of history samples behind the baseline.  Empty list =
    gate passes.  ``repro bench --check`` exits non-zero on a
    non-empty return.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    if window < 1:
        raise ValueError("window must be >= 1")
    recent = [
        run.get("document") or {} for run in history.get("runs", [])[-window:]
    ]

    micro_samples: Dict[tuple, List[float]] = {}
    round_samples: Dict[tuple, List[float]] = {}
    lcm_samples: Dict[tuple, List[float]] = {}
    serve_samples: Dict[tuple, List[float]] = {}
    for doc in recent:
        for entry in doc.get("micro", []):
            key = (entry["name"], entry["backend"], entry["n"])
            micro_samples.setdefault(key, []).append(entry["best_s"])
        for entry in doc.get("round_throughput", []):
            key = (entry["backend"], entry["n"])
            round_samples.setdefault(key, []).append(entry["round_s"])
        for entry in doc.get("lcm_round_throughput", []):
            key = (entry["activation"], entry["n"])
            lcm_samples.setdefault(key, []).append(entry["cycle_s"])
        for entry in doc.get("serve_request_latency", []):
            key = (entry["endpoint"], entry["n"])
            serve_samples.setdefault(key, []).append(entry["warm_s"])

    regressions: List[Dict] = []

    def gate(metric: str, key: tuple, current: float,
             samples: Optional[List[float]]) -> None:
        if not samples:
            return
        baseline = _median(samples)
        if baseline <= 0.0 or current <= baseline * (1.0 + threshold):
            return
        regressions.append(
            {
                "metric": metric,
                "key": "/".join(str(part) for part in key),
                "current_s": current,
                "baseline_s": baseline,
                "ratio": current / baseline,
                "window": len(samples),
            }
        )

    for entry in document.get("micro", []):
        key = (entry["name"], entry["backend"], entry["n"])
        gate("micro", key, entry["best_s"], micro_samples.get(key))
    for entry in document.get("round_throughput", []):
        key = (entry["backend"], entry["n"])
        gate(
            "round_throughput", key, entry["round_s"], round_samples.get(key)
        )
    for entry in document.get("lcm_round_throughput", []):
        key = (entry["activation"], entry["n"])
        gate(
            "lcm_round_throughput",
            key,
            entry["cycle_s"],
            lcm_samples.get(key),
        )
    for entry in document.get("serve_request_latency", []):
        key = (entry["endpoint"], entry["n"])
        gate(
            "serve_request_latency",
            key,
            entry["warm_s"],
            serve_samples.get(key),
        )
    return regressions


def write_bench(document: Dict, path: str) -> None:
    """Append ``document`` to the bench history at ``path``.

    ``latest`` always mirrors the newest run so regression guards read
    one key; the ``runs`` array keeps every prior run (keyed by git SHA
    and timestamp), which is what makes the performance trajectory
    across commits recoverable from the file alone.

    The history is written atomically (temp file + fsync + rename): an
    interrupt mid-append leaves the previous history intact instead of
    a truncated JSON that poisons every later ``load_history``.
    """
    if os.path.exists(path):
        history = load_history(path)
    else:
        history = {"schema": HISTORY_SCHEMA, "latest": None, "runs": []}
    history["runs"].append(
        {
            "git_sha": _git_sha(),
            "recorded_at": document.get("generated_at"),
            "document": document,
        }
    )
    history["latest"] = document
    atomic_write(path, json.dumps(history, indent=2, sort_keys=False) + "\n")
