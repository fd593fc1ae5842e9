"""The one telemetry stream: ``repro-telemetry-v1`` JSONL.

Every signal the repo writes as JSONL — per-round evidence, span
timing, daemon logs — is one record type of one format:

* line 1 — header ``{"format": "repro-telemetry-v1", "meta": {...}}``.
  A run artifact's ``meta`` is the *same* dict a ``repro-trace-v2``
  archive embeds (scenario, seeds, backend, tolerance, engine), so a
  stream joins to its trace on ``meta["seed"]`` / ``meta["scenario"]``;
  the daemon writes ``{"source": "repro-serve", "version": ...}``.
* one line per record, tagged by ``type``:

  - ``{"type": "span", "id", "parent", "name", "kind", "start_ns",
    "dur_ns", "attrs"}`` — a finished :class:`~repro.obs.spans.Span`.
    Round spans carry the round's
    :meth:`~repro.obs.events.RoundEvent.to_dict` as attrs and run spans
    the run-end summary, so what a round did and when it ran are one
    record;
  - ``{"type": "log", "ts", "level", "logger", "event", "msg",
    "fields"}`` — a structured record of :mod:`repro.obs.log`.

Python floats serialize via ``repr``, which round-trips float64 exactly,
so spreads and target coordinates survive the stream bit for bit.

Durability.  Every line is flushed as it is written and the file is
fsynced on close; beyond that a sink keeps one of two contracts:

* a run artifact (``observability(jsonl=...)``, ``serve
  --trace-jsonl``) streams into ``<path>.partial`` and is atomically
  renamed to ``path`` on :meth:`TelemetrySink.close`, so a finished
  stream is always whole and a killed run leaves only the ``.partial``
  file, never a truncated artifact where globs would pick it up;
* a log (``serve --access-log``, ``tailable=True``) is written at its
  final path so it can be tailed while the daemon runs.

Reading.  :func:`read_telemetry` raises :class:`ValueError` on a missing
or foreign header and :class:`~repro.resilience.errors.TraceFormatError`
— with path and 1-based line number — on any newline-terminated line
that is not an object with a known ``type``: a corrupted record is
reported, never silently skipped along with everything after it.  A
final line with no newline is the torn write of a killed process and is
dropped.
"""

from __future__ import annotations

import json
import threading
from typing import List, Optional, TextIO, Tuple

from ..resilience import TraceFormatError, fsync_handle, promote
from .spans import Span

__all__ = ["TELEMETRY_SCHEMA", "RECORD_TYPES", "TelemetrySink", "read_telemetry"]

#: Schema identifier of the telemetry stream.
TELEMETRY_SCHEMA = "repro-telemetry-v1"

#: The ``type`` tags a record line may carry.
RECORD_TYPES = ("span", "log")


class TelemetrySink:
    """Thread-safe streaming writer of one ``repro-telemetry-v1`` file.

    The header is written eagerly, so even a stream cut short
    identifies itself and its provenance.  :meth:`span` matches the
    tracer's sink signature and :meth:`log` the log hub's, so one sink
    registers with both; many per-request tracers of the daemon may
    share it, because every line is written under one lock.
    """

    def __init__(
        self, path: str, meta: Optional[dict] = None, tailable: bool = False
    ) -> None:
        self.path = path
        self.tailable = tailable
        self._lock = threading.Lock()
        self._handle: Optional[TextIO] = open(
            path if tailable else path + ".partial", "w", encoding="utf-8"
        )
        self._write({"format": TELEMETRY_SCHEMA, "meta": meta})

    def _write(self, payload: dict) -> None:
        line = json.dumps(payload, default=str) + "\n"
        with self._lock:
            # A record racing close() (a request finishing during
            # shutdown) is dropped rather than raised into its caller.
            if self._handle is not None:
                self._handle.write(line)
                self._handle.flush()

    def span(self, span: Span) -> None:
        payload = {"type": "span"}
        payload.update(span.to_dict())
        self._write(payload)

    def log(self, record: dict) -> None:
        payload = {"type": "log"}
        payload.update(record)
        self._write(payload)

    def close(self) -> None:
        with self._lock:
            if self._handle is None:
                return
            fsync_handle(self._handle)
            self._handle.close()
            self._handle = None
        if not self.tailable:
            promote(self.path + ".partial", self.path)


def read_telemetry(path: str) -> Tuple[Optional[dict], List[dict]]:
    """Read a telemetry stream: ``(meta, records)``.

    Records keep their ``type`` tag; see the module docstring for the
    failure contract.
    """
    with open(path, "rb") as handle:
        try:
            header = json.loads(handle.readline())
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("format") != TELEMETRY_SCHEMA:
            raise ValueError(f"{path!r} is not a {TELEMETRY_SCHEMA} stream")
        records: List[dict] = []
        for line_no, line in enumerate(handle, start=2):
            if not line.endswith(b"\n"):
                break  # torn final write
            try:
                payload = json.loads(line)
            except ValueError as exc:  # JSONDecodeError / UnicodeDecodeError
                raise TraceFormatError(
                    f"{path}: undecodable telemetry line {line_no}: "
                    f"{getattr(exc, 'msg', 'binary garbage')}",
                    path=path,
                    line=line_no,
                    offset=getattr(exc, "pos", getattr(exc, "start", None)),
                ) from exc
            if not isinstance(payload, dict) or payload.get("type") not in RECORD_TYPES:
                raise TraceFormatError(
                    f"{path}: telemetry line {line_no} is not an object "
                    f"with a known type {RECORD_TYPES}",
                    path=path,
                    line=line_no,
                )
            records.append(payload)
    return header.get("meta"), records
