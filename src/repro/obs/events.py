"""Structured per-round events — the observable skeleton of a run.

A :class:`RoundEvent` is the per-round cross-section the Section IV case
analysis argues about: which configuration class was active, how large
the maximum multiplicity was, how far apart the robots still were
(spread), which point the movers were sent to and whether it was a safe
point, and which robots were activated, crashed or actually moved.  The
engine builds one per round/tick when observability is enabled; its
:meth:`~RoundEvent.to_dict` becomes the attrs of that round's span, so
it lands in the telemetry stream (:mod:`repro.obs.stream`), which joins
to an archived ``repro-trace-v2`` trace by seed and scenario.

The event is intentionally *flat* (strings, ints, floats, tuples): it
must round-trip JSON exactly, diff cleanly between two runs, and never
hold references into live simulation state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["RoundEvent"]


@dataclass(frozen=True)
class RoundEvent:
    """Everything per-round observability records about one round.

    ``elected_target`` is the unique destination assigned to robots not
    already standing on it (the class-``A`` election, recovered exactly
    as :func:`repro.analysis.invariants.elected_target` does);
    ``target_is_safe`` is Definition 8 evaluated on that target when it
    is an occupied position, ``None`` when there was no election.
    ``spread`` is the diameter of the post-round configuration.
    """

    round_index: int
    engine: str  # "atom" | "async"
    config_class: str  # B / M / L1W / L2W / QR / A
    support: int  # distinct occupied locations after the round
    max_multiplicity: int
    spread: float
    elected_target: Optional[Tuple[float, float]]
    target_is_safe: Optional[bool]
    active: Tuple[int, ...]
    crashed: Tuple[int, ...]
    moved: Tuple[int, ...]

    @classmethod
    def from_record(cls, record, engine: str = "atom") -> "RoundEvent":
        """Build the event for one engine round record.

        Imports are deferred to call time: this module must stay
        import-leaf so the engines and kernels can import ``repro.obs``
        without cycles, but the derivation needs the core layer (safe
        points), the invariant helpers (election recovery) and the
        metrics helper (spread).  Only ever called with observability
        enabled, so the disabled hot path never pays for any of it.
        """
        from ..analysis.invariants import elected_target
        from ..core import is_safe_point
        from ..sim.metrics import spread

        before = record.config_before
        after = record.config_after
        target = elected_target(record)
        target_is_safe: Optional[bool] = None
        if target is not None and before.locate(target) is not None:
            target_is_safe = is_safe_point(before, target)
        return cls(
            round_index=record.round_index,
            engine=engine,
            config_class=record.config_class.value,
            support=len(after.support),
            max_multiplicity=after.max_multiplicity(),
            spread=spread(after.support),
            elected_target=target.as_tuple() if target is not None else None,
            target_is_safe=target_is_safe,
            active=tuple(record.active),
            crashed=tuple(record.crashed_now),
            moved=tuple(record.moved),
        )

    def to_dict(self) -> dict:
        """JSON-ready form; floats survive via ``repr`` round-tripping."""
        return {
            "round": self.round_index,
            "engine": self.engine,
            "class": self.config_class,
            "support": self.support,
            "max_mult": self.max_multiplicity,
            "spread": self.spread,
            "target": list(self.elected_target)
            if self.elected_target is not None
            else None,
            "target_safe": self.target_is_safe,
            "active": list(self.active),
            "crashed": list(self.crashed),
            "moved": list(self.moved),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RoundEvent":
        """Inverse of :meth:`to_dict` (exact round-trip)."""
        target = data.get("target")
        return cls(
            round_index=data["round"],
            engine=data.get("engine", "atom"),
            config_class=data["class"],
            support=data["support"],
            max_multiplicity=data["max_mult"],
            spread=data["spread"],
            elected_target=tuple(target) if target is not None else None,
            target_is_safe=data.get("target_safe"),
            active=tuple(data["active"]),
            crashed=tuple(data["crashed"]),
            moved=tuple(data["moved"]),
        )
