"""Trial outcome records for the resilient campaign runner.

Every injection trial — whether it completed, crashed the harness, or hung
past its wall-clock budget — produces exactly one :class:`TrialOutcome`.
The harness failure statuses extend the paper's fault-outcome taxonomy one
level up: a trial that kills or wedges the *simulator* is itself an
observation worth recording (with enough context to replay it), never a
reason to abort the campaign.

Outcome statuses:

``ok``
    The trial ran to completion; ``record`` holds the campaign-level
    trial result (:class:`~repro.faults.classify.ArchTrialResult` or
    :class:`~repro.faults.classify.UarchTrialResult`).
``harness-crash``
    The simulator raised while executing the trial. ``error`` captures the
    exception type, message, and traceback plus the injection descriptor
    (workload, point, trial index, per-trial seed) needed to replay it.
``harness-timeout``
    The trial exceeded its wall-clock budget and was interrupted by the
    guard; ``error`` carries the budget and the same replay descriptor.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.faults.classify import ArchTrialResult, UarchTrialResult

class GoldenRunError(RuntimeError):
    """A workload's fault-free golden run failed; the workload is skipped."""


class CampaignWorkloadWarning(UserWarning):
    """Structured warning emitted when a campaign skips a whole workload."""


OUTCOME_OK = "ok"
OUTCOME_CRASH = "harness-crash"
OUTCOME_TIMEOUT = "harness-timeout"

HARNESS_STATUSES = (OUTCOME_CRASH, OUTCOME_TIMEOUT)

# Trial-record fields added after journals already existed in the wild:
# omitted from journal entries while None (their default), so campaigns
# that never enable the corresponding detectors keep writing entries
# byte-identical to older versions. ``from_entry`` tolerates their absence
# because the dataclass defaults them to None.
_OMIT_RECORD_FIELDS_WHEN_NONE = (
    "miss_spike_latency",
    "stall_outlier_latency",
    "spurious_memop_latency",
)


def _record_type(level: str) -> type:
    # repro.faults imports this package for the guard/outcome types, so
    # the trial-record classes must be resolved lazily, not at import.
    from repro.faults.classify import ArchTrialResult, UarchTrialResult

    return {"arch": ArchTrialResult, "uarch": UarchTrialResult}[level]


def trial_key(workload: str, point: int, index: int) -> str:
    """The stable identity of one trial inside a campaign."""
    return f"{workload}:{point}:{index}"


def validate_shard(shard: tuple[int, int] | None) -> None:
    """Check a ``(shard_index, shard_count)`` stride-slice descriptor."""
    if shard is None:
        return
    shard_index, shard_count = shard
    if shard_count < 1:
        raise ValueError(f"shard count must be >= 1, got {shard_count}")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard index must be in [0, {shard_count}), got {shard_index}"
        )


@dataclass(frozen=True)
class TrialOutcome:
    """One journaled trial: its identity, status, and result or error."""

    key: str
    workload: str
    point: int
    index: int
    status: str
    record: Any | None = None
    error: dict | None = None
    # Trace-only figures of the run (uarch: simulated cycles and the
    # re-convergence cycle). Never journaled and not part of equality, so
    # journals stay deterministic.
    trace: dict | None = field(default=None, compare=False)

    @property
    def order(self) -> tuple[int, int]:
        return (self.point, self.index)

    def to_entry(self) -> dict:
        """The journal (JSONL) representation."""
        entry = {
            "kind": "trial",
            "key": self.key,
            "workload": self.workload,
            "point": self.point,
            "index": self.index,
            "status": self.status,
        }
        if self.record is not None:
            record = asdict(self.record)
            for name in _OMIT_RECORD_FIELDS_WHEN_NONE:
                if record.get(name) is None:
                    record.pop(name, None)
            entry["record"] = record
        if self.error is not None:
            entry["error"] = self.error
        return entry

    @classmethod
    def from_entry(cls, entry: dict, level: str) -> "TrialOutcome":
        record = None
        if entry.get("record") is not None:
            record = _record_type(level)(**entry["record"])
        return cls(
            key=entry["key"],
            workload=entry["workload"],
            point=entry["point"],
            index=entry["index"],
            status=entry["status"],
            record=record,
            error=entry.get("error"),
        )


@dataclass
class WorkloadRunOutcome:
    """Everything one workload contributed to a campaign run.

    ``skip_reason`` is set when the workload could not run at all (its
    golden run raised, or a parallel worker died twice); its trials are
    then absent rather than failed. ``total_bits`` is the injectable-state
    population for uarch campaigns (zero for arch). ``golden_cache``
    reports how the golden artifacts were obtained — ``"hit"`` (loaded
    from the cache), ``"miss"`` (computed and stored), or ``None`` (no
    cache in use); it is report-level metadata and never journaled, so
    cached and uncached journals stay byte-identical.

    Adaptive (planner-driven) runs additionally report the sampled
    injection points, the prescreened-dead subset, and — when the full
    local planner loop ran — the planner's per-workload summary. Like
    ``golden_cache`` these are report/scheduler metadata, never part of
    the trial journal entries themselves.
    """

    workload: str
    outcomes: list[TrialOutcome] = field(default_factory=list)
    skip_reason: str | None = None
    total_bits: int = 0
    golden_cache: str | None = None
    planner_points: tuple[int, ...] | None = None
    prescreened_points: tuple[int, ...] | None = None
    planner_summary: dict | None = None
    # Trace-only figures of the workload's golden run (uarch: its length,
    # checkpoint count and the cycles simulated to reach prefixes and
    # trial ends). Never journaled and not part of equality.
    trace: dict | None = field(default=None, compare=False)
