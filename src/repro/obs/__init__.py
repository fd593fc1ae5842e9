"""Observability: one telemetry stream, a metrics registry, a log hub.

A single process-wide toggle gates the whole subsystem.  When **off**
(the default) nothing is allocated, recorded or dispatched: call sites
guard on one attribute read (``state.enabled``), so the simulation hot
loop pays a few nanoseconds per round and the kernels one branch per
call.  When **on** (``REPRO_OBS=1`` in the environment, ``--obs`` on the
CLI, or :func:`enable` / :func:`observability` in code) the engine and
kernels record into:

spans
    The span tracer (:mod:`repro.obs.spans`): run -> round -> phase
    (look/compute/move) -> kernel time ranges with explicit
    parent/child ids and monotonic timestamps, kept in a bounded ring.
    Each round span carries that round's
    :class:`~repro.obs.events.RoundEvent` — the Section IV
    configuration class, multiplicity and spread, the elected target
    and whether it was a safe point, and the activated / crashed /
    moved sets — and each run span the run-end summary.

metrics
    A process-wide registry of counters and running aggregates
    (:mod:`repro.obs.metrics`): per-class round counts, run verdicts,
    per-kernel call counts and wall time with the active backend label,
    Weber solver iteration counts and residuals, and per-worker
    throughput of the experiment runner.

logs
    The structured log hub (:mod:`repro.obs.log`): leveled records with
    warn-once dedup and rate limiting.

Spans and log records reach files through one format,
``repro-telemetry-v1`` (:mod:`repro.obs.stream`): one
:class:`~repro.obs.stream.TelemetrySink` writes both record types and
one :func:`~repro.obs.stream.read_telemetry` reads them back.  The
header carries the same meta block as a ``repro-trace-v2`` archive, so
a stream joins to its trace by seed and scenario.  ``repro stats``
tabulates a stream and ``repro trace-export`` converts it to the Chrome
trace-event format for Perfetto.  A sink that raises — span or log — is
removed and reported once (:func:`~repro.obs.log.quarantine`); it never
takes the simulation down.

For sweep-scale runs, :mod:`repro.obs.aggregate` ships each worker's
registry snapshot and span tail home inside the per-seed result payload
and merges them — counters, stats, kernel timers and the fixed-bucket
histograms of :mod:`repro.obs.histogram` — into one ``sweep-metrics``
document; :mod:`repro.obs.dashboard` renders the merge live.

Layering: this package imports nothing from the rest of ``repro`` but
:mod:`repro.resilience`, so the engine, kernels and runner can all
import it without cycles.  ``RoundEvent.from_record`` defers its
``repro.core`` / ``repro.sim`` imports to call time for the same reason.

The toggle is exported to ``REPRO_OBS`` in the environment on
:func:`enable`, mirroring the kernel-backend pinning of the experiment
runner: worker subprocesses resolve the flag at import time, so a sweep
profiled with ``--workers N`` instruments every worker.

Instrumentation never changes results: telemetry and metrics are
derived from values the simulation already computed, and the CI ``obs``
job replays the committed corpus with ``REPRO_OBS=1`` to prove
instrumented executions stay bit-identical to uninstrumented ones.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from .aggregate import (
    SWEEP_METRICS_SCHEMA,
    Aggregator,
    write_sweep_metrics,
)
from .dashboard import SweepDashboard
from .events import RoundEvent
from .histogram import Histogram
from .log import StructuredLogger, get_logger, summarize_log
from .log import hub as log_hub
from .metrics import Metrics, metrics
from .spans import Span, Tracer, chrome_trace_events, tracer
from .stream import TELEMETRY_SCHEMA, TelemetrySink, read_telemetry

__all__ = [
    "TELEMETRY_SCHEMA",
    "TelemetrySink",
    "read_telemetry",
    "SWEEP_METRICS_SCHEMA",
    "StructuredLogger",
    "get_logger",
    "log_hub",
    "summarize_log",
    "Aggregator",
    "SweepDashboard",
    "write_sweep_metrics",
    "RoundEvent",
    "Metrics",
    "metrics",
    "Histogram",
    "Span",
    "Tracer",
    "tracer",
    "chrome_trace_events",
    "state",
    "is_enabled",
    "enable",
    "disable",
    "observability",
    "record_round",
    "record_kernel",
    "record_run_end",
]


class _ObsState:
    """The toggle, as one attribute read on a slotted singleton.

    Call sites in per-round and per-kernel-call paths check
    ``state.enabled`` directly rather than calling :func:`is_enabled`:
    an attribute read is the cheapest guard Python offers, which is what
    makes the disabled path genuinely free.
    """

    __slots__ = ("enabled",)

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled


def _env_truthy(value: Optional[str]) -> bool:
    return (value or "").strip().lower() in ("1", "true", "yes", "on")


#: The process-wide toggle; seeded from ``REPRO_OBS`` at import time.
state = _ObsState(_env_truthy(os.environ.get("REPRO_OBS")))


def is_enabled() -> bool:
    """Is the observability layer currently recording?"""
    return state.enabled


def enable() -> None:
    """Turn observability on, process-wide.

    Also exports ``REPRO_OBS=1`` so worker subprocesses started after
    this call (the experiment runner's pool, the differential checker's
    recorders) come up instrumented too.
    """
    state.enabled = True
    os.environ["REPRO_OBS"] = "1"


def disable() -> None:
    """Turn observability off and clear the environment export."""
    state.enabled = False
    os.environ.pop("REPRO_OBS", None)


@contextmanager
def observability(
    jsonl: Optional[str] = None,
    meta: Optional[dict] = None,
) -> Iterator[Metrics]:
    """Enable observability for a block, optionally streaming telemetry.

    Yields the process-wide :data:`metrics` registry.  With ``jsonl`` a
    :class:`TelemetrySink` is opened at that path, receives every
    finished span and every structured log record, and is closed (and
    promoted from ``<jsonl>.partial``) on exit.  ``meta`` (a
    ``repro-trace-v2`` meta dict) becomes the stream's join header.  The
    previous toggle value is restored on exit.
    """
    sink = TelemetrySink(jsonl, meta=meta) if jsonl else None
    if sink is not None:
        tracer.add_sink(sink.span)
        log_hub.add_sink(sink.log)
    previous = state.enabled
    enable()
    try:
        yield metrics
    finally:
        if not previous:
            disable()
        if sink is not None:
            tracer.remove_sink(sink.span)
            log_hub.remove_sink(sink.log)
            sink.close()


# -- recording entry points (callers guard on ``state.enabled``) -------------


def record_round(event: RoundEvent, seconds: Optional[float] = None) -> None:
    """Account a round event in the metrics.

    ``seconds`` (wall time of the round, when the engine measured it)
    feeds the fixed-bucket ``round_seconds`` latency histogram that the
    sweep aggregator merges across workers.
    """
    metrics.inc("rounds.total")
    metrics.inc(f"rounds.class.{event.config_class}")
    if event.crashed:
        metrics.inc("rounds.crashes", len(event.crashed))
    if seconds is not None:
        metrics.observe_hist("round_seconds", seconds)


def record_kernel(name: str, seconds: float, backend: str) -> None:
    """Account one kernel call.

    Also bins the latency into the ``kernel_seconds`` histogram and,
    when tracing is active, records a leaf ``kernel`` span attributed
    to the innermost open span (the phase that issued the call).
    """
    metrics.record_kernel(name, seconds, backend)
    metrics.observe_hist("kernel_seconds", seconds)
    if tracer.active:
        duration_ns = int(seconds * 1e9)
        tracer.complete(
            name,
            "kernel",
            time.perf_counter_ns() - duration_ns,
            duration_ns,
            attrs={"backend": backend},
        )


def record_run_end(summary: dict) -> None:
    """Account a finished run's verdict in the metrics."""
    metrics.inc("runs.total")
    verdict = summary.get("verdict")
    if verdict:
        metrics.inc(f"runs.verdict.{verdict}")
