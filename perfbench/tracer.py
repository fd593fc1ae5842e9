"""Outside-in layer tracer: spans recorded around the program's entry points.

The tracer patches public entry points of ``repro`` from the benchmark's
own files (``src/repro`` is never edited).  Each patched call records one
span ``[name, start, end, parent]`` in a per-thread list kept in memory;
nothing is written until the caller asks for the summary at the end of a
run.  A span's *self time* is its duration minus the part of its interval
that its child spans cover, so the self times of all spans add up to the
wall time the spans cover, without double counting nested layers.

Every patch is undone by :meth:`Tracer.restore` (also on ``with`` exit),
in reverse order, so a traced pass leaves the program exactly as it found
it.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

#: One span: [name, start, end, parent index in the same thread's list].
Span = List


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of each span: duration minus the union of its children.

    Children are clipped to the parent's interval and merged before they
    are subtracted, so overlapping children (spans of other threads never
    share a list, but a caller may hand in any tree) are not counted
    twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """Span recorder plus the patch bookkeeping that feeds it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.counts: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lists: List[List[Span]] = []
        self._lists_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            with self._lists_lock:
                self._lists.append(local.spans)
        return local

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        local = self._state()
        spans, stack = local.spans, local.stack
        span = [name, self.clock(), 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = self.clock()
            stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def spans(self) -> List[List[Span]]:
        """Every thread's span list (each list's parents index into it)."""
        with self._lists_lock:
            return [list(spans) for spans in self._lists]

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr``; :meth:`restore` puts the original back."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Patch ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, original, *args, **kwargs)

        traced.__wrapped__ = original
        self.patch(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- summary -----------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {"calls", "self_s", "total_s"}}`` over all threads."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        for spans in self.spans():
            for span, own in zip(spans, self_times(spans)):
                row = out[span[0]]
                row["calls"] += 1
                row["self_s"] += own
                row["total_s"] += span[2] - span[1]
        return dict(out)

    def covered_s(self) -> float:
        """Wall time inside root spans (= the sum of all self times)."""
        return sum(
            span[2] - span[1]
            for spans in self.spans()
            for span in spans
            if span[3] < 0
        )


#: Geometry kernels wrapped as ``geometry.kernels.<name>`` spans.  Call
#: sites use ``kernels.<name>(...)``, so patching the module attribute
#: catches every call.
KERNELS = (
    "near_pairs",
    "batch_polar_views",
    "max_ray_loads",
    "weiszfeld",
    "distance_sums",
    "pairwise_diameter",
)

#: Memo keys reported one by one (other keys still get spans).
MEMO_KEYS = (
    "class",
    "views",
    "regularity",
    "quasi_regularity",
    "safe_points",
    "ray_loads",
    "weber_numeric",
    "weber_linear",
    "elected_safe",
)

_MISSING = object()


def install_core(tracer: Tracer) -> None:
    """Wrap the simulation-side layers: core, geometry and sim."""
    from repro.algorithms.wait_free import WaitFreeGather
    from repro.core import configuration
    from repro.geometry import kernels
    from repro.sim import batch, engine

    Configuration = configuration.Configuration
    tracer.wrap(Configuration, "__init__", "core.configuration")
    # Configuration.sec computes through this module global on a cache
    # miss only, so the span counts real SEC computations.
    tracer.wrap(configuration, "smallest_enclosing_circle", "geometry.sec")

    original_memo = Configuration.memo

    def memo(config, key, compute):
        # Spans only for misses, named by key: a hit does no layer work.
        if config.memo_get(key, _MISSING) is not _MISSING:
            tracer.count("core.memo.hits")
            return original_memo(config, key, compute)
        tracer.count("core.memo.misses")
        return tracer.call(
            f"core.memo.{key}", original_memo, config, key, compute
        )

    tracer.patch(Configuration, "memo", memo)
    for name in KERNELS:
        tracer.wrap(kernels, name, f"geometry.kernels.{name}")
    tracer.wrap(WaitFreeGather, "compute", "core.algorithm")
    tracer.wrap(engine.Simulation, "step", "sim.step")
    # Both engines import snap_destination by name.
    tracer.wrap(engine, "snap_destination", "sim.snap")
    tracer.wrap(batch, "snap_destination", "sim.snap")


def install_journal(tracer: Tracer) -> None:
    """Wrap the sweep journal (runs in the sweep's parent process)."""
    from repro.resilience.journal import SweepJournal

    tracer.wrap(SweepJournal, "append", "resilience.journal")


def install_serve(tracer: Tracer) -> None:
    """Wrap the daemon's store, admission and request handler."""
    from repro.serve import server, store, admission

    tracer.wrap(store.ResultStore, "get", "serve.store.get")
    tracer.wrap(store.ResultStore, "put", "serve.store.put")
    tracer.wrap(
        admission.AdmissionController, "acquire", "serve.admission"
    )
    # The daemon computes through this module global (one call per
    # missed seed), outside the simulation-slot wait.
    tracer.wrap(server, "run_scenario", "serve.compute")
    tracer.wrap(server._Handler, "do_POST", "serve.handler")
