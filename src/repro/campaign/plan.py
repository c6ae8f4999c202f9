"""One trial plan for every campaign driver.

Both campaigns run the same trial space: a trial is (workload, injection
point, trial index), and everything random about it (the flipped bit)
is drawn from its own stream derived from ``(seed, workload, point,
index)``. Which trials a driver call runs is therefore a plain list,
the *plan*: ``[(point, [(index, trial_rng), ...]), ...]`` in (point,
index) order, which is also the serial journal order.

A plan is built in two steps:

- an *allocation* ``[(point, start, count)]`` says which trial indices
  each point gets. :func:`uniform_allocation` is the fixed-budget
  campaign's split; the adaptive planner (:mod:`repro.planner`) hands out
  one allocation per round, so a uniform campaign is an adaptive one
  that stops after a single round;
- :func:`expand` turns an allocation into a plan, leaving out the trials
  of other shards and those already journaled.

:func:`run_plan` then runs each planned trial through the
:class:`~repro.campaign.guard.TrialGuard` and hands the outcome on; the
level drivers only say how to reach a point and how to run one trial
there. :func:`check_plan_config` holds the config checks both levels
share.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable, Sequence
from dataclasses import replace

from repro.campaign.guard import TrialGuard
from repro.campaign.outcomes import TrialOutcome, trial_key
from repro.util.rng import DeterministicRng
from repro.workloads import WORKLOAD_NAMES

#: ``[(point, start_index, count)]``: the trial indices each point gets.
Allocation = list[tuple[int, int, int]]
#: ``[(point, [(index, trial_rng)])]`` in (point, index) order.
Plan = list[tuple[int, list[tuple[int, DeterministicRng]]]]
#: Runs one trial: ``(index, trial_rng, trace)`` to the trial's thunk and
#: its replay-descriptor fields. What the thunk writes into ``trace``
#: becomes the outcome's trace-only figures.
TrialRunner = Callable[
    [int, DeterministicRng, dict], tuple[Callable[[], object], dict]
]


def uniform_allocation(
    points: Sequence[int], trials_per_workload: int
) -> Allocation:
    """Split ``trials_per_workload`` trials over ``points`` so exactly that
    many run: the first ``extra`` points (in order) take one more than
    the rest."""
    base, extra = divmod(trials_per_workload, len(points))
    return [
        (point, 0, base + (position < extra))
        for position, point in enumerate(points)
    ]


def expand(
    allocation: Iterable[tuple[int, int, int]],
    rng: DeterministicRng,
    shard: tuple[int, int] | None = None,
    done: Collection[tuple[int, int]] = frozenset(),
) -> Plan:
    """The allocation's trials in (point, index) order, each with its own
    stream ``rng.child(f"trial:{point}:{index}")``.

    A trial outside the shard's stride slice (``index % shard_count ==
    shard_index``) or whose ``(point, index)`` is in ``done`` is left
    out, and so is a point left with no trial. The stride slices cover
    the index space for any per-point count, so the union of all shards
    is the unsharded plan, trial for trial.
    """
    plan: Plan = []
    for point, start, count in sorted(allocation):
        trials = [
            (index, rng.child(f"trial:{point}:{index}"))
            for index in range(start, start + count)
            if (shard is None or index % shard[1] == shard[0])
            and (point, index) not in done
        ]
        if trials:
            plan.append((point, trials))
    return plan


def run_plan(
    plan: Plan,
    workload: str,
    level: str,
    seed: int,
    guard: TrialGuard,
    on_outcome: Callable[[TrialOutcome], None] | None,
    at_point: Callable[[int], TrialRunner | None],
) -> list[TrialOutcome]:
    """Run every trial of ``plan`` under ``guard``, in plan order.

    ``at_point(point)`` readies the executor at one point and returns its
    trial runner, or None when the point cannot be reached (golden ended
    before it), which ends the run. Each trial's replay descriptor is
    ``{"level", "seed", "trial_seed"}`` plus the runner's fields.
    ``on_outcome`` sees each outcome as soon as it exists, which is how
    the runner streams results to the journal.
    """
    outcomes: list[TrialOutcome] = []
    for point, trials in plan:
        trial = at_point(point)
        if trial is None:
            break
        for index, trial_rng in trials:
            trace: dict = {}
            thunk, fields = trial(index, trial_rng, trace)
            outcome = guard.run(
                trial_key(workload, point, index), workload, point, index,
                thunk,
                descriptor={
                    "level": level,
                    "seed": seed,
                    "trial_seed": trial_rng.seed,
                    **fields,
                },
            )
            if trace:
                outcome = replace(outcome, trace=trace)
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
    return outcomes


def check_plan_config(config) -> None:
    """The checks both campaign configs share: the plan's shape (trials,
    points, seed, scale) and its workloads."""
    if config.trials_per_workload < 1:
        raise ValueError(
            f"trials_per_workload must be >= 1, got {config.trials_per_workload}"
        )
    if config.injection_points < 1:
        raise ValueError(
            f"injection_points must be >= 1, got {config.injection_points}"
        )
    if config.injection_points > config.trials_per_workload:
        raise ValueError(
            f"injection_points ({config.injection_points}) cannot exceed "
            f"trials_per_workload ({config.trials_per_workload}): every "
            f"injection point needs at least one trial"
        )
    if config.seed < 0:
        raise ValueError(f"seed must be non-negative, got {config.seed}")
    if config.workload_scale < 1:
        raise ValueError(
            f"workload_scale must be >= 1, got {config.workload_scale}"
        )
    if not config.workloads:
        raise ValueError("workloads must not be empty")
    unknown = [name for name in config.workloads if name not in WORKLOAD_NAMES]
    if unknown:
        raise ValueError(f"unknown workloads {unknown}; know {WORKLOAD_NAMES}")
