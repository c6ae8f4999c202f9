"""The machine-state description: pinned journals, latent-residue
relevance, completeness of the description, and fork and checkpoint
equivalence."""

import hashlib

import pytest

from repro.campaign import run_campaign
from repro.faults import UarchCampaignConfig
from repro.faults.uarch_campaign import _latent_is_arch_relevant
from repro.uarch import load_pipeline
from repro.uarch.latches import LATCH_CLASSES, state_digest
from repro.uarch.pipeline import Pipeline
from repro.util.rng import DeterministicRng
from repro.workloads import WORKLOAD_NAMES

# SHA-256 of the journal trial lines (byte for byte, in journal order).
# Serial/--jobs/--resume/shard tests only compare modes with each other;
# these digests catch a change to the state registry that reorders fields
# or shifts pick_bit the same way in every mode. A deliberate change to
# campaign semantics or the journal format needs new digests; a registry
# refactor must not.
DEFAULT_PIN_CONFIG = UarchCampaignConfig(
    trials_per_workload=10, injection_points=5, window_cycles=800,
    workloads=("gcc", "mcf", "gzip"), seed=12,
)
MEMHIER_PIN_CONFIG = UarchCampaignConfig(
    trials_per_workload=10, injection_points=5, window_cycles=800,
    workloads=("gcc", "mcf"), seed=4, memhier_targets=True,
    detectors=("miss_spike", "stall_outlier", "spurious_memop"),
)
PINNED_TRIAL_DIGESTS = {
    "default": "95ee4748ece8c311ed89149fc70b2f43fb4b2359ac82873daed680e1cc681ff8",
    "memhier": "de62778546a4493316c0e12adfe100bab0f9714ff7ba890e0d76b18e93ec5454",
}


def _trial_digest(path) -> tuple[str, int]:
    digest = hashlib.sha256()
    count = 0
    with open(path, "rb") as handle:
        for raw in handle:
            if b'"kind": "trial"' in raw:
                digest.update(raw)
                count += 1
    return digest.hexdigest(), count


class TestPinnedJournals:
    @pytest.mark.parametrize("name, config", [
        ("default", DEFAULT_PIN_CONFIG),
        ("memhier", MEMHIER_PIN_CONFIG),
    ])
    def test_trial_lines_match_pinned_digest(self, tmp_path, name, config):
        path = tmp_path / f"{name}.jsonl"
        run_campaign("uarch", config, journal_path=str(path))
        digest, count = _trial_digest(path)
        assert count == config.trials_per_workload * len(config.workloads)
        assert digest == PINNED_TRIAL_DIGESTS[name]


# SHA-256 of gcc's registry snapshot at cycle 700 followed by 2,000
# pick_bit draws (name, class, bit) over four class filters. Journals only
# record a flip's structure and class; this pins the exact field order.
PINNED_PICK_DIGESTS = {
    False: "f74aa15a56b19213a762ff523a75bef4f8331910f3428035842c572f0281d140",
    True: "46fd4f88b82b082d94b8761eb463b5a61c6c1141917ae4c775549a548012d593",
}


@pytest.mark.parametrize("memhier_targets", [False, True])
def test_pick_sequence_matches_pinned_digest(bundles, memhier_targets):
    pipeline = load_pipeline(
        bundles["gcc"].program, memhier_targets=memhier_targets
    )
    pipeline.run(700)
    registry = pipeline.registry
    digest = hashlib.sha256(repr(registry.snapshot()).encode())
    rng = DeterministicRng(2005)
    last = ("mem",) if memhier_targets else ("data",)
    for classes in (None, LATCH_CLASSES, ("ram",), last):
        for _ in range(500):
            field, bit = registry.pick_bit(rng, classes=classes)
            digest.update(f"{field.name}:{field.state_class}:{bit};".encode())
    assert digest.hexdigest() == PINNED_PICK_DIGESTS[memhier_targets]


def _field_index(pipeline, name: str) -> int:
    return [field.name for field in pipeline.registry.fields].index(name)


def _latent_pipeline(bundles):
    """A pipeline mid-run with one live and one stale store-buffer slot."""
    pipeline = load_pipeline(bundles["gcc"].program)
    pipeline.run(600)
    storebuf = pipeline.storebuf
    storebuf.valid[:] = [0] * storebuf.size
    storebuf.valid[2] = 1
    return pipeline


def _unmapped_preg(pipeline) -> int:
    mapped = set(pipeline.arch_rat.map)
    return next(preg for preg in range(pipeline.prf.size) if preg not in mapped)


class TestLatentRelevance:
    """Which end-of-window residue can still reach architectural state."""

    @pytest.mark.parametrize("bank, slot, relevant", [
        ("arch_rat.map", 5, True),
        ("storebuf.valid", 2, True),
        ("storebuf.valid", 7, True),
        ("storebuf.addr", 2, True),
        ("storebuf.data", 2, True),
        ("storebuf.size", 2, True),
        ("storebuf.addr", 7, False),
        ("storebuf.data", 7, False),
        ("storebuf.size", 7, False),
        ("storebuf.head", 0, False),
        ("prf.value", "mapped", True),
        ("prf.value", "unmapped", False),
        ("prf.ready", "mapped", False),
        ("rob.pc", 3, False),
        ("spec_rat.map", 5, False),
    ])
    def test_single_residue(self, bundles, bank, slot, relevant):
        pipeline = _latent_pipeline(bundles)
        if slot == "mapped":
            slot = pipeline.arch_rat.map[4]
        elif slot == "unmapped":
            slot = _unmapped_preg(pipeline)
        index = _field_index(pipeline, f"{bank}[{slot}]")
        assert _latent_is_arch_relevant(pipeline, [index]) is relevant

    def test_any_relevant_residue_decides(self, bundles):
        pipeline = _latent_pipeline(bundles)
        stale = [
            _field_index(pipeline, name)
            for name in ("rob.pc[3]", "storebuf.addr[7]", "prf.ready[0]")
        ]
        assert not _latent_is_arch_relevant(pipeline, [])
        assert not _latent_is_arch_relevant(pipeline, stale)
        live = _field_index(pipeline, "storebuf.data[2]")
        assert _latent_is_arch_relevant(pipeline, stale + [live])


# Attributes that are not machine state: hooks (retire_stall is owned by the
# controller that installs them), observability sinks, and caches derived
# from described state.
NON_STATE = frozenset({
    "pre_cycle_hook", "symptom_handler", "storebuf_full_hook",
    "preg_free_hook", "on_retire", "branch_oracle", "retire_stall",
    "retired_log", "symptoms", "telemetry",
    "_decode_cache", "_fetch_cache", "_fetch_cache_version",
    "_issue_scratch", "_waiters",
})
STRUCTURE_MODULES = frozenset({
    "repro.uarch.structures", "repro.uarch.caches",
    "repro.uarch.branch_predictor", "repro.uarch.confidence",
    "repro.uarch.memdep",
})


def _owners(pipeline) -> dict:
    """The pipeline ("") and each structure object it owns, by attribute."""
    owners = {"": pipeline}
    for name, value in vars(pipeline).items():
        if type(value).__module__ in STRUCTURE_MODULES:
            owners[name] = value
    return owners


def _undescribed(pipeline, fresh) -> list[str]:
    """Attributes whose value moved away from a fresh build but that the
    registry describes neither as a bank nor as shadow state."""
    registry = pipeline.registry
    banks = {id(bank.storage) for bank in registry.banks}
    shadows = {
        (id(owner()), name) for owner, names in registry.shadows
        for name in names
    }
    owners = _owners(pipeline)
    fresh_owners = _owners(fresh)
    missing = []
    for path, owner in owners.items():
        for name, value in vars(owner).items():
            if name in NON_STATE:
                continue
            # The registry itself, the structures (walked on their own) and
            # the memory image (fork clones it).
            if owner is pipeline and (
                name in owners or name in ("registry", "memory")
            ):
                continue
            if value == getattr(fresh_owners[path], name):
                continue
            if id(value) in banks or (id(owner), name) in shadows:
                continue
            missing.append(f"{path}.{name}" if path else name)
    return missing


def _described_state(pipeline):
    registry = pipeline.registry
    shadow = [
        getattr(owner(), name)
        for owner, names in registry.shadows for name in names
    ]
    return registry.snapshot(), shadow


@pytest.mark.parametrize("memhier_targets", [False, True])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
class TestStateDescription:
    def test_every_moved_attribute_is_described(
        self, bundles, name, memhier_targets
    ):
        program = bundles[name].program
        pipeline = load_pipeline(program, memhier_targets=memhier_targets)
        pipeline.run(1_500)
        assert pipeline.running
        fresh = load_pipeline(program, memhier_targets=memhier_targets)
        assert _undescribed(pipeline, fresh) == []

    def test_fork_matches_parent_after_more_cycles(
        self, bundles, name, memhier_targets
    ):
        parent = load_pipeline(
            bundles[name].program, memhier_targets=memhier_targets
        )
        parent.run(1_200)
        fork = parent.fork()
        parent.run(800)
        fork.run(800)
        assert fork.cycle_count == parent.cycle_count == 2_000
        assert _described_state(fork) == _described_state(parent)
        assert fork.memory.equals(parent.memory)

    def test_restored_checkpoint_matches_after_more_cycles(
        self, bundles, name, memhier_targets
    ):
        original = load_pipeline(
            bundles[name].program, memhier_targets=memhier_targets
        )
        original.run(1_200)
        restored = Pipeline.restore(original.checkpoint())
        assert state_digest(restored.registry, restored.memory) == (
            state_digest(original.registry, original.memory)
        )
        original.run(800)
        restored.run(800)
        assert restored.cycle_count == original.cycle_count == 2_000
        assert _described_state(restored) == _described_state(original)
        assert restored.memory.equals(original.memory)
        assert state_digest(restored.registry, restored.memory) == (
            state_digest(original.registry, original.memory)
        )
