"""Import location of :func:`~repro.sim.engine.snap_destination`."""

# perfbench/tracer.py patches ``repro.sim.batch.snap_destination``.
from .engine import snap_destination

__all__ = ["snap_destination"]
