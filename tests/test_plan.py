"""The trial plan shared by every campaign driver: uniform allocation,
expansion with shard and resume filters, the emission loop, and the
config checks both campaign levels share."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import TrialGuard
from repro.campaign.plan import expand, run_plan, uniform_allocation
from repro.faults import ArchCampaignConfig, UarchCampaignConfig
from repro.util.rng import DeterministicRng
from repro.workloads import WORKLOAD_NAMES

RNG = DeterministicRng(2005).child("plan-test")


def _flat(plan):
    return [(point, index, rng.seed) for point, trials in plan
            for index, rng in trials]


def allocation_pairs(allocation):
    return [(point, index) for point, start, count in allocation
            for index in range(start, start + count)]


@st.composite
def plan_inputs(draw):
    points = sorted(draw(st.sets(st.integers(0, 5000), min_size=1,
                                 max_size=10)))
    trials = draw(st.integers(len(points), 40))
    shards = draw(st.integers(1, 4))
    everything = [(point, index) for point, index, _ in
                  _flat(expand(uniform_allocation(points, trials), RNG))]
    done = draw(st.sets(st.sampled_from(everything)))
    return points, trials, shards, done


@settings(max_examples=60, deadline=None)
@given(plan_inputs())
def test_plan_properties(inputs):
    points, trials, shards, done = inputs
    allocation = uniform_allocation(points, trials)

    # The uniform split: exactly `trials` trials, the first `extra`
    # points taking one more than the rest.
    base, extra = divmod(trials, len(points))
    assert [point for point, _, _ in allocation] == points
    assert [count for _, _, count in allocation] == (
        [base + 1] * extra + [base] * (len(points) - extra)
    )
    assert sum(count for _, _, count in allocation) == trials

    plan = expand(allocation, RNG, done=done)
    flat = _flat(plan)
    # (point, index) order, and no journaled trial is planned again.
    assert [(p, i) for p, i, _ in flat] == sorted(
        set(allocation_pairs(allocation)) - done
    )
    assert all(planned for _, planned in plan)
    # Each trial's stream is derived from its (point, index) only.
    assert all(seed == RNG.child(f"trial:{p}:{i}").seed for p, i, seed in flat)

    # The shards partition the unsharded plan.
    union = []
    for shard in range(shards):
        part = _flat(expand(allocation, RNG, (shard, shards), done))
        assert all(i % shards == shard for _, i, _ in part)
        union += part
    assert sorted(union) == flat


def test_expand_orders_an_unsorted_allocation():
    plan = expand([(30, 2, 1), (10, 0, 2)], RNG)
    assert [(p, i) for p, i, _ in _flat(plan)] == [(10, 0), (10, 1), (30, 2)]


def test_run_plan_emits_in_order_and_stops_at_an_unreachable_point():
    plan = expand(uniform_allocation([5, 7, 9], 5), RNG)
    seen = []

    def at_point(point):
        if point == 9:
            return None

        def trial(index, trial_rng, trace):
            trace["cycles"] = point * 10 + index
            if (point, index) == (7, 1):
                return (lambda: 1 // 0), {"bit": 3}
            return (lambda: ("record", point, index)), {"bit": index}

        return trial

    outcomes = run_plan(plan, "gcc", "arch", 11, TrialGuard(), seen.append,
                        at_point)
    assert outcomes == seen
    assert [(o.point, o.index) for o in outcomes] == [
        (5, 0), (5, 1), (7, 0), (7, 1)
    ]
    assert outcomes[0].key == "gcc:5:0"
    assert outcomes[0].record == ("record", 5, 0)
    assert outcomes[1].trace == {"cycles": 51}
    crashed = outcomes[3]
    assert crashed.status == "harness-crash"
    assert crashed.error["descriptor"] == {
        "level": "arch", "seed": 11,
        "trial_seed": RNG.child("trial:7:1").seed, "bit": 3,
    }


BAD_CONFIGS = [
    (dict(trials_per_workload=0, injection_points=1),
     "trials_per_workload must be >= 1, got 0"),
    (dict(injection_points=0),
     "injection_points must be >= 1, got 0"),
    (dict(trials_per_workload=2, injection_points=3),
     "injection_points (3) cannot exceed trials_per_workload (2): every "
     "injection point needs at least one trial"),
    (dict(seed=-1), "seed must be non-negative, got -1"),
    (dict(workload_scale=0), "workload_scale must be >= 1, got 0"),
    (dict(workloads=()), "workloads must not be empty"),
    (dict(workloads=("gcc", "nope")),
     f"unknown workloads ['nope']; know {WORKLOAD_NAMES}"),
]


@pytest.mark.parametrize("config_class",
                         [ArchCampaignConfig, UarchCampaignConfig])
@pytest.mark.parametrize("options,message", BAD_CONFIGS,
                         ids=[message.split()[0] + f"-{n}"
                              for n, (_, message) in enumerate(BAD_CONFIGS)])
def test_both_levels_reject_a_bad_plan_shape(config_class, options, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        config_class(**options)
