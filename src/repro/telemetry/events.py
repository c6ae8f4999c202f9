"""The trace-event schema and its validator.

Every event is a flat JSON object with three universal fields —

- ``kind``      one of :data:`EVENT_KINDS`
- ``cycle``     the pipeline cycle at which the event fired
- ``position``  the architectural position (retired-instruction count,
  which *rewinds* on rollback — two events at the same position on either
  side of a ``rollback_end`` are the original and redundant executions of
  the same instruction)

— plus the kind-specific required fields listed in :data:`EVENT_KINDS`.
Extra fields are allowed (sinks may annotate), missing required fields or
unknown kinds are schema violations. The flat shape is deliberate: a
JSONL trace stays greppable and diffable, and the validator doubles as
the CI check for traces emitted by the smoke campaign.
"""

from __future__ import annotations

import json
from typing import Any

SCHEMA_VERSION = 1

#: kind -> required kind-specific fields (beyond kind/cycle/position).
EVENT_KINDS: dict[str, tuple[str, ...]] = {
    # Campaign-level trial bracketing. A uarch ``trial_end`` also carries
    # ``sim_cycles`` (cycles the trial simulated) and, when it stopped
    # early on re-converging with golden, ``reconverged_cycle``; both are
    # absent for trials replayed from a journal.
    "trial_begin": ("workload", "point", "index"),
    "injection": ("target", "bit"),
    "trial_end": ("status",),
    # One per uarch workload that ran, after its trials: golden's length,
    # its state checkpoints, and the cycles simulated from them to reach
    # the trial prefixes and trial ends.
    "golden": ("workload", "golden_cycles", "checkpoints", "hop_cycles"),
    # Adaptive-planner convergence: one per stopped injection point.
    # ``margin`` is a float (the point's Wilson half-width at stop time),
    # deliberately absent from the integer-field list.
    "point_converged": ("workload", "point", "trials", "margin"),
    # Pipeline-visible symptom candidates (raw, pre-detector).
    "symptom": ("symptom", "pc"),
    # Controller decisions.
    "symptom_fired": ("symptom", "pc", "detector"),
    "symptom_suppressed": ("symptom", "pc", "reason"),
    "rollback_begin": ("symptom", "from_position", "to_position", "distance"),
    "rollback_end": ("verdict",),
    "replay_divergence": ("pc",),
    "breaker_trip": ("disabled_until",),
    # Checkpoint lifecycle.
    "checkpoint_create": ("checkpoint_position",),
    "checkpoint_release": ("checkpoint_position",),
}

_COMMON_FIELDS = ("kind", "cycle", "position")

#: Fields whose values must be integers when present.
_INT_FIELDS = frozenset(
    {
        "cycle",
        "position",
        "point",
        "index",
        "trials",
        "bit",
        "pc",
        "from_position",
        "to_position",
        "distance",
        "disabled_until",
        "checkpoint_position",
        "sim_cycles",
        "reconverged_cycle",
        "golden_cycles",
        "checkpoints",
        "hop_cycles",
    }
)


class TelemetryError(Exception):
    """An event or trace violates the telemetry schema."""


def make_event(kind: str, cycle: int, position: int, **fields: Any) -> dict:
    """Build a schema'd event dict (assumed valid; emitters are trusted —
    the validator exists for the serialized boundary, not the hot path)."""
    event = {"kind": kind, "cycle": cycle, "position": position}
    event.update(fields)
    return event


def validate_event(event: Any, where: str = "event") -> None:
    """Raise :class:`TelemetryError` unless ``event`` matches the schema."""
    if not isinstance(event, dict):
        raise TelemetryError(f"{where}: not a JSON object")
    kind = event.get("kind")
    if kind not in EVENT_KINDS:
        raise TelemetryError(f"{where}: unknown event kind {kind!r}")
    required = _COMMON_FIELDS + EVENT_KINDS[kind]
    for name in required:
        if name not in event:
            raise TelemetryError(f"{where}: {kind} event missing field {name!r}")
    for name, value in event.items():
        if name in _INT_FIELDS and not isinstance(value, int):
            raise TelemetryError(
                f"{where}: field {name!r} must be an integer, got {value!r}"
            )


def validate_trace(path: str) -> int:
    """Validate every line of a JSONL trace; returns the event count."""
    count = 0
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TelemetryError(f"{where}: not valid JSON ({exc})") from None
            validate_event(event, where=where)
            count += 1
    return count
