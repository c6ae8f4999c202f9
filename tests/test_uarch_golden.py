"""One golden pass per uarch workload: the prefixes and trial-end state
reached from golden's checkpoints equal a walk from reset, on a cache miss
and on a hit, and a hit builds no pipeline from reset."""

import pytest

from repro.cache import GoldenArtifactCache
from repro.campaign import run_campaign
from repro.faults import UarchCampaignConfig
from repro.faults import uarch_campaign
from repro.telemetry import RingBufferTraceSink, validate_event
from repro.uarch.latches import state_digest
from repro.workloads import WORKLOAD_NAMES, build_workload

DETECTORS = ("miss_spike", "stall_outlier", "spurious_memop")
DEFAULT = dict(trials_per_workload=3, injection_points=3)
MEMHIER = dict(DEFAULT, memhier_targets=True, detectors=DETECTORS)


def _digest(pipeline):
    return state_digest(pipeline.registry, pipeline.memory)


@pytest.fixture
def trial_inputs(monkeypatch):
    """Replaces ``_run_trial`` with a recorder of what each trial is
    handed: its point, its prefix's cycle and digest, and golden (with
    the trial-end state)."""
    seen = []

    def record(workload, prefix, golden, config, point, field_index, bit,
               trace=None):
        seen.append((point, prefix.cycle_count, _digest(prefix), golden))

    monkeypatch.setattr(uarch_campaign, "_run_trial", record)
    return seen


def _reset_walk(bundle, config, points):
    """The reference: a plain pipeline walked from reset through every
    point, check boundary and trial end of the trials, recording the
    digest at each point and check boundary and the registry snapshot and
    retired count at each trial end."""
    window = config.window_cycles
    ends = {point + window for point in points}
    checks = {
        cycle
        for point in points
        for cycle in range(
            uarch_campaign._next_check(point), point + window,
            uarch_campaign.CHECK_PERIOD,
        )
    }
    pipeline = uarch_campaign._load(bundle, config)
    digests, snapshots, retired_at = {}, {}, {}
    for cycle in sorted(set(points) | checks | ends):
        pipeline.run(cycle - pipeline.cycle_count)
        if not pipeline.running:
            break
        if cycle in ends:
            snapshots[cycle] = pipeline.registry.snapshot()
            retired_at[cycle] = pipeline.retired_count
        digests[cycle] = _digest(pipeline)
    return digests, snapshots, retired_at


@pytest.mark.parametrize("seed", [6015, 31])
@pytest.mark.parametrize("options", [DEFAULT, MEMHIER],
                         ids=["default", "memhier"])
def test_hops_match_a_walk_from_reset(tmp_path, trial_inputs, options, seed):
    config = UarchCampaignConfig(seed=seed, **options)
    cache = GoldenArtifactCache(str(tmp_path))
    for workload in WORKLOAD_NAMES:
        bundle = build_workload(workload, config.workload_scale, seed)
        reference = None
        for expected_cache in ("miss", "hit"):
            trial_inputs.clear()
            outcome = uarch_campaign.run_workload_trials(
                config, workload, cache=cache
            )
            assert outcome.golden_cache == expected_cache
            points = [point for point, _, _, _ in trial_inputs]
            assert len(points) == config.injection_points
            if reference is None:
                reference = _reset_walk(bundle, config, points)
            digests, snapshots, retired_at = reference
            golden = trial_inputs[0][3]
            for point, cycle, digest, _ in trial_inputs:
                assert cycle == point
                assert digest == digests[point], point
            assert golden.snapshots == snapshots
            assert golden.retired_at == retired_at
            checks = set(digests) - set(points) - set(snapshots)
            assert checks
            for cycle in checks:
                assert golden.digests[cycle] == digests[cycle], cycle


def test_one_golden_pass_and_none_on_a_hit(tmp_path, monkeypatch):
    config = UarchCampaignConfig(seed=77, workloads=("gcc",), **DEFAULT)
    cache = GoldenArtifactCache(str(tmp_path))
    builds = []
    real = uarch_campaign.load_pipeline

    def counting(*args, **kwargs):
        builds.append(kwargs.get("collect_retired"))
        return real(*args, **kwargs)

    monkeypatch.setattr(uarch_campaign, "load_pipeline", counting)
    records = {}
    for name in ("miss", "hit"):
        builds.clear()
        outcome = uarch_campaign.run_workload_trials(config, "gcc", cache=cache)
        assert outcome.golden_cache == name
        records[name] = [o.to_entry() for o in outcome.outcomes]
        assert builds == ([True] if name == "miss" else [])
    assert records["miss"] == records["hit"]


def test_golden_trace_event_per_workload():
    config = UarchCampaignConfig(seed=6015, workloads=("gcc", "mcf"), **DEFAULT)
    sink = RingBufferTraceSink()
    report = run_campaign("uarch", config, jobs=1, trace=sink)
    events = sink.events("golden")
    assert [event["workload"] for event in events] == ["gcc", "mcf"]
    period = uarch_campaign.CHECKPOINT_PERIOD
    for event in events:
        validate_event(event)
        assert event["checkpoints"] == -(-event["golden_cycles"] // period)
        # Each prefix and trial end is less than one period past its
        # checkpoint.
        assert 0 < event["hop_cycles"] < 2 * config.injection_points * period
    untraced = run_campaign("uarch", config, jobs=1)
    assert [o.to_entry() for o in report.outcomes] == [
        o.to_entry() for o in untraced.outcomes
    ]


PENDING = UarchCampaignConfig(
    trials_per_workload=4, injection_points=4, window_cycles=800,
    workloads=("gcc",),
)


def test_hops_reach_pending_points_only(tmp_path):
    """A unit with no pending trial hops nowhere, and a resume with one
    pending trial hops less than the full run, with the same record."""
    cache = GoldenArtifactCache(str(tmp_path))
    full = uarch_campaign.run_workload_trials(PENDING, "gcc", cache=cache)
    assert len(full.outcomes) == 4
    # One trial per point: every trial index is 0, so shard 1 of 2 is empty.
    empty = uarch_campaign.run_workload_trials(
        PENDING, "gcc", shard=(1, 2), cache=cache
    )
    assert empty.outcomes == []
    assert empty.trace["hop_cycles"] == 0
    assert empty.total_bits == full.total_bits > 0
    resumed = uarch_campaign.run_workload_trials(
        PENDING, "gcc", prior=full.outcomes[:-1], cache=cache
    )
    assert 0 < resumed.trace["hop_cycles"] < full.trace["hop_cycles"]
    assert resumed.total_bits == full.total_bits
    assert [o.to_entry() for o in resumed.outcomes] == [
        full.outcomes[-1].to_entry()
    ]
