"""Open- and closed-loop HTTP load from one process.

The open loop sends request ``i`` at its due time ``t0 + i / rate``
whatever the replies do, through at most ``connections`` connections.
A request that finds every connection busy goes out late, and its latency
is still measured from its due time: a stall in the server shows up in
every request queued behind it, not only in the one that caused it.  How
late each request went out is recorded as the generator's lag.

The closed loop keeps ``connections`` clients busy back to back for a
fixed time; it measures capacity, not latency.
"""

from __future__ import annotations

import http.client
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``send(request) -> (status, headers, body)`` on one connection.
Send = Callable[[object], Tuple[int, Dict[str, str], bytes]]


@dataclass
class Outcome:
    index: int
    due: float
    sent: float
    done: float
    status: int
    cache: Optional[str]
    body: bytes
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        """Seconds from the due time to the complete response."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """Seconds the generator sent this request after its due time."""
        return self.sent - self.due


def http_sender(
    host: str, port: int, *, keep_alive: bool, timeout: float = 30.0
) -> Send:
    """A ``Send`` on one connection.

    ``keep_alive=False`` opens a new connection per request, as the
    repository's own client does (``repro.serve.server._request``);
    ``keep_alive=True`` reuses one connection (reopened after an error).
    """
    state = {"conn": None}
    headers = {"Content-Type": "application/json"}
    if not keep_alive:
        headers["Connection"] = "close"

    def send(request) -> Tuple[int, Dict[str, str], bytes]:
        if state["conn"] is None:
            conn = http.client.HTTPConnection(host, port, timeout=timeout)
            if not keep_alive:
                # Close with a reset, not a TIME_WAIT: thousands of
                # connections per run would otherwise pile up in
                # TIME_WAIT and slow every later connect(), this run's
                # and the next one's.
                conn.connect()
                conn.sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            state["conn"] = conn
        conn = state["conn"]
        try:
            conn.request("POST", "/run", body=request.body(), headers=headers)
            response = conn.getresponse()
            body = response.read()
            return response.status, dict(response.getheaders()), body
        except (OSError, http.client.HTTPException):
            conn.close()
            state["conn"] = None
            raise
        finally:
            if not keep_alive and state["conn"] is not None:
                conn.close()
                state["conn"] = None

    return send


def _attempt(send: Send, request, index: int, due: float) -> Outcome:
    sent = time.perf_counter()
    try:
        status, headers, body = send(request)
        error = None
    except (OSError, http.client.HTTPException) as exc:
        status, headers, body = 0, {}, b""
        error = f"{type(exc).__name__}: {exc}"
    return Outcome(
        index,
        due,
        sent,
        time.perf_counter(),
        status,
        headers.get("X-Repro-Cache"),
        body,
        error,
    )


def open_loop(
    make_send: Callable[[], Send],
    requests: Sequence,
    rate: float,
    connections: int,
) -> List[Outcome]:
    """Send ``requests`` at ``rate`` per second; outcomes in request order."""
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter()

    def worker() -> None:
        send = make_send()
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(requests):
                return
            due = start + index / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            outcomes[index] = _attempt(send, requests[index], index, due)

    _run_threads(worker, connections)
    return outcomes  # type: ignore[return-value]


def closed_loop(
    make_send: Callable[[], Send],
    next_request: Callable[[], object],
    connections: int,
    seconds: float,
) -> Tuple[List[Outcome], float]:
    """Keep ``connections`` clients busy for ``seconds``.

    Returns the outcomes in send order and the wall time from start to
    the last reply.  ``next_request`` is called under a lock, so the
    request stream is consumed in one deterministic order.
    """
    outcomes: List[Outcome] = []
    lock = threading.Lock()
    start = time.perf_counter()

    def worker() -> None:
        send = make_send()
        while True:
            with lock:
                if time.perf_counter() - start >= seconds:
                    return
                index = len(outcomes)
                request = next_request()
                outcomes.append(None)  # type: ignore[arg-type]
            outcome = _attempt(send, request, index, time.perf_counter())
            with lock:
                outcomes[index] = outcome

    _run_threads(worker, connections)
    wall = max((o.done for o in outcomes), default=start) - start
    return outcomes, wall


def group_rates(outcomes: Sequence[Outcome], size: int) -> List[float]:
    """Completion rate of each run of ``size`` consecutive completions.

    The median over groups is a capacity that one stalled request cannot
    move far, unlike the mean over the whole phase.
    """
    done = sorted(o.done for o in outcomes)
    return [
        size / (done[i + size] - done[i])
        for i in range(0, len(done) - size, size)
        if done[i + size] > done[i]
    ]


def _run_threads(target: Callable[[], None], count: int) -> None:
    threads = [threading.Thread(target=target, daemon=True) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
