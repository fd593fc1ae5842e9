"""Helpers shared by the workloads: paths, processes, memory, calibration."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

from stats import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (journals, the daemon's store).
WORK = os.path.join(HERE, ".work")


def child_env(**extra: str) -> Dict[str, str]:
    """Environment for a benchmark subprocess: the source tree first on
    the path, observability off unless asked for."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    env.pop("REPRO_OBS", None)
    env.update(extra)
    return env


def time_to_ready(
    argv: Sequence[str], env: Dict[str, str], timeout: float = 60.0
) -> "tuple[float, subprocess.Popen, str]":
    """Start ``argv`` and wait for its first stdout line.

    Returns the seconds until that line arrived, the still-running
    process and the line.  The caller owns the process.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        list(argv),
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = _readline(proc, timeout)
    except BaseException:
        stop(proc)
        raise
    return time.perf_counter() - started, proc, line


def _readline(proc: subprocess.Popen, timeout: float) -> str:
    import selectors

    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout):
            raise RuntimeError(f"{proc.args!r}: no output within {timeout}s")
    line = proc.stdout.readline()
    if not line:
        err = proc.stderr.read() if proc.poll() is not None else ""
        raise RuntimeError(f"{proc.args!r} exited early: {err.strip()[-400:]}")
    return line.strip()


def stop(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """Terminate ``proc`` (SIGTERM, then SIGKILL) and wait for it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout)
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


class SetupProbes:
    """Set-up time, sampled ``count`` times by ``probe()`` (which returns
    seconds) in the gaps of a run's measured work.

    Spreading the samples over the run means a slow stretch of machine
    time moves a few of them, not the median.  The work loop calls
    ``due(fraction done)`` between units of work and leaves the probes'
    own time (``spent``) out of its measured clock.
    """

    def __init__(self, probe: Callable[[], float], count: int) -> None:
        self.probe = probe
        self.count = count
        self.samples: List[float] = []
        self.spent = 0.0

    def due(self, fraction: float) -> None:
        """Run probes until ``fraction`` of ``count`` have run."""
        target = min(self.count, math.ceil(self.count * fraction - 1e-9))
        while len(self.samples) < target:
            started = time.perf_counter()
            self.samples.append(self.probe())
            self.spent += time.perf_counter() - started

    def median(self) -> float:
        """The median over all ``count`` samples (running any still due)."""
        self.due(1.0)
        return median(self.samples)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (VmHWM) of ``pid`` (default: this process)."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def children(pid: Optional[int] = None) -> List[int]:
    """Direct child process ids of ``pid`` (default: this process)."""
    parent = pid or os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == parent:
            out.append(int(entry))
    return out


def tree_peak_rss_mb() -> float:
    """Peak RSS of this process plus the peaks of its live children."""
    total = peak_rss_mb()
    for pid in children():
        try:
            total += peak_rss_mb(pid)
        except OSError:
            pass
    return total


def calibration() -> Dict[str, float]:
    """Machine-speed record: a fixed pure-Python loop and a fixed numpy
    loop, median of three, so numbers from different machines can be
    normalised later.  Recorded only; never an end-to-end metric."""
    import numpy as np

    def python_loop() -> float:
        start = time.perf_counter()
        acc = 0.0
        for i in range(1_000_000):
            acc += (i % 7) * 0.5
        return time.perf_counter() - start

    def numpy_loop() -> float:
        rng = np.random.default_rng(0)
        a = rng.random((64, 2))
        start = time.perf_counter()
        for _ in range(1000):
            d = a[:, None, :] - a[None, :, :]
            np.sqrt((d * d).sum(-1)).sum()
        return time.perf_counter() - start

    def med(fn) -> float:
        return sorted(fn() for _ in range(3))[1]

    return {"python_loop_s": med(python_loop), "numpy_loop_s": med(numpy_loop)}


def ensure_source() -> None:
    """Put ``src`` first on the path; fail fast when it is missing."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program source at {SRC}/repro")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
