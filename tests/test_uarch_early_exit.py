"""Early exit on re-convergence: differential equality with the full
window, digest completeness and determinism, and pinned hit counts."""

import os
import subprocess
import sys
import warnings
from dataclasses import asdict, replace

import pytest

from repro.arch.memory import PAGE_SHIFT, PageProtection
from repro.cache import GoldenArtifactCache, store
from repro.campaign import run_campaign
from repro.faults import UarchCampaignConfig
from repro.faults import uarch_campaign
from repro.telemetry import RingBufferTraceSink, validate_event
from repro.uarch import load_pipeline
from repro.uarch.latches import state_digest
from repro.workloads import WORKLOAD_NAMES, build_workload

DETECTORS = ("miss_spike", "stall_outlier", "spurious_memop")
DEFAULT = dict(trials_per_workload=3, injection_points=3)
MEMHIER = dict(DEFAULT, memhier_targets=True, detectors=DETECTORS)


class _Differential:
    """Wraps ``_run_trial`` so every trial also runs as its own reference
    (the same code with golden's digest map emptied, which never stops
    early) and keeps both results."""

    def __init__(self, real):
        self.real = real
        self.pairs = []
        self.reconverged = 0

    def __call__(self, workload, prefix, golden, config, point, field_index,
                 bit, trace=None):
        trace = {} if trace is None else trace
        fast = self.real(workload, prefix, golden, config, point,
                         field_index, bit, trace)
        reference = self.real(workload, prefix, replace(golden, digests={}),
                              config, point, field_index, bit)
        self.pairs.append((asdict(fast), asdict(reference)))
        self.reconverged += "reconverged_cycle" in trace
        return fast


@pytest.fixture
def differential(monkeypatch):
    checker = _Differential(uarch_campaign._run_trial)
    monkeypatch.setattr(uarch_campaign, "_run_trial", checker)
    return checker


def _assert_identical(checker, trials):
    assert len(checker.pairs) == trials
    for fast, reference in checker.pairs:
        assert fast == reference


@pytest.mark.parametrize("seed", [6015, 31])
@pytest.mark.parametrize("options", [DEFAULT, MEMHIER],
                         ids=["default", "memhier"])
def test_early_exit_matches_full_window(differential, options, seed):
    config = UarchCampaignConfig(
        seed=seed, **dict(options, trials_per_workload=2, injection_points=2)
    )
    for workload in WORKLOAD_NAMES:
        outcome = uarch_campaign.run_workload_trials(config, workload)
        assert outcome.skip_reason is None
        assert all(o.status == "ok" for o in outcome.outcomes)
    _assert_identical(differential, len(WORKLOAD_NAMES) * 2)
    # The comparison is vacuous unless trials actually stopped early.
    assert differential.reconverged >= 3


def test_cache_hit_matches_miss(tmp_path, differential):
    config = UarchCampaignConfig(seed=77, workloads=("gcc", "mcf"), **MEMHIER)
    cache = GoldenArtifactCache(str(tmp_path))
    records = {}
    for name in ("miss", "hit"):
        records[name] = []
        for workload in config.workloads:
            outcome = uarch_campaign.run_workload_trials(
                config, workload, cache=cache
            )
            assert outcome.golden_cache == name
            records[name] += [o.to_entry() for o in outcome.outcomes]
    assert records["miss"] == records["hit"]
    _assert_identical(differential, 2 * 2 * 3)
    assert differential.reconverged > 0


def _assert_old_entry_is_a_clean_miss(tmp_path, monkeypatch, schema):
    config = UarchCampaignConfig(seed=77, workloads=("gcc",), **DEFAULT)
    bundle = build_workload("gcc", 1, config.seed)
    golden = uarch_campaign._run_golden(bundle, config)
    cache = GoldenArtifactCache(str(tmp_path))
    # An entry as an older tool wrote it: the schema is part of its name.
    monkeypatch.setattr(store, "SCHEMA_VERSION", schema)
    assert cache.store("uarch", bundle.program, config, golden)
    monkeypatch.undo()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cache.load("uarch", bundle.program, config) is None
        outcome = uarch_campaign.run_workload_trials(config, "gcc", cache=cache)
    assert outcome.golden_cache == "miss"
    assert cache.load("uarch", bundle.program, config).checkpoints


def test_v2_cache_entry_is_a_clean_miss(tmp_path, monkeypatch):
    _assert_old_entry_is_a_clean_miss(tmp_path, monkeypatch, 2)


def test_v3_cache_entry_is_a_clean_miss(tmp_path, monkeypatch):
    _assert_old_entry_is_a_clean_miss(tmp_path, monkeypatch, 3)


# ------------------------------------------------------------------ digest


def _perturbed(value):
    """A different value of the same kind."""
    if type(value) is bool:
        return not value
    if type(value) is int:
        return value + 1
    if value is None:
        return 1
    if type(value) is tuple:
        return value + (0,)
    if type(value) is list:
        if value and type(value[0]) is int:
            return [value[0] ^ 1] + value[1:]
        return value + [0]
    if type(value) is dict:
        return {**value, max(value, default=0) + 1: [("exec", 0, 0, 0)]}
    raise AssertionError(f"no perturbation for {type(value).__name__}")


def _digest(pipeline):
    return state_digest(pipeline.registry, pipeline.memory)


@pytest.mark.parametrize("memhier_targets", [False, True])
class TestDigest:
    @pytest.fixture
    def pipeline(self, gcc_bundle, memhier_targets):
        pipeline = load_pipeline(
            gcc_bundle.program, memhier_targets=memhier_targets
        )
        pipeline.run(900)
        assert pipeline.running
        return pipeline

    def test_every_bank_slot_is_covered(self, pipeline):
        before = _digest(pipeline)
        for bank in pipeline.registry.banks:
            if not bank.storage:
                continue
            bank.storage[0] ^= 1
            assert _digest(pipeline) != before, bank.name
            bank.storage[0] ^= 1
        assert _digest(pipeline) == before

    def test_every_shadow_attribute_is_covered(self, pipeline):
        before = _digest(pipeline)
        for owner, names in pipeline.registry.shadows:
            target = owner()
            for name in names:
                value = getattr(target, name)
                setattr(target, name, _perturbed(value))
                assert _digest(pipeline) != before, (type(target), name)
                setattr(target, name, value)
        assert _digest(pipeline) == before

    def test_memory_byte_and_protection_are_covered(self, pipeline):
        before = _digest(pipeline)
        memory = pipeline.memory
        page = next(
            page for page in memory.mapped_pages()
            if memory.protection_at(page << PAGE_SHIFT)
            is PageProtection.READ_WRITE
        )
        address = page << PAGE_SHIFT
        byte = memory.read(address, 1)
        memory.write(address, 1, byte ^ 0x10)
        assert _digest(pipeline) != before
        memory.write(address, 1, byte)
        assert _digest(pipeline) == before
        memory.map_region(address, 1, PageProtection.READ_ONLY)
        assert _digest(pipeline) != before
        memory.map_region(address, 1, PageProtection.READ_WRITE)
        assert _digest(pipeline) == before

    def test_fresh_fork_digests_equal(self, pipeline):
        assert _digest(pipeline.fork()) == _digest(pipeline)


_GOLDEN_DIGESTS = """
from repro.faults.uarch_campaign import UarchCampaignConfig, _run_golden
from repro.workloads import build_workload
config = UarchCampaignConfig(seed=5, workloads=("mcf",))
golden = _run_golden(build_workload("mcf", 1, 5), config)
for cycle, parts in sorted(golden.digests.items()):
    print(cycle, b"".join(parts).hex())
"""
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def test_golden_digests_agree_across_hash_seeds(capsys):
    exec(_GOLDEN_DIGESTS, {})
    outputs = {capsys.readouterr().out}
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (SRC, env.get("PYTHONPATH")))
        )
        result = subprocess.run(
            [sys.executable, "-c", _GOLDEN_DIGESTS], env=env,
            capture_output=True, text=True, check=True,
        )
        outputs.add(result.stdout)
    (output,) = outputs
    assert len(output.splitlines()) > 10


# ------------------------------------------------------------- hit counts

# A fixed small campaign: how many trials re-converged and how many cycles
# all trials simulated. A digest that silently never matches keeps every
# journal identical and only runs slower; these counts catch it. A
# deliberate change of CHECK_PERIOD or of the state description needs
# new counts.
PIN_CONFIG = UarchCampaignConfig(
    trials_per_workload=6, injection_points=6, workloads=("gcc", "mcf"),
    seed=6015,
)
PINNED_RECONVERGED = 9
PINNED_SIM_CYCLES = 5264


def test_reconvergence_counts_are_pinned():
    sink = RingBufferTraceSink()
    run_campaign("uarch", PIN_CONFIG, trace=sink)
    ends = sink.events("trial_end")
    assert len(ends) == 12
    for event in ends:
        validate_event(event)
    reconverged = [e for e in ends if "reconverged_cycle" in e]
    for event in reconverged:
        assert event["reconverged_cycle"] % uarch_campaign.CHECK_PERIOD == 0
        assert event["sim_cycles"] < PIN_CONFIG.window_cycles
    assert len(reconverged) == PINNED_RECONVERGED
    assert sum(e["sim_cycles"] for e in ends) == PINNED_SIM_CYCLES
