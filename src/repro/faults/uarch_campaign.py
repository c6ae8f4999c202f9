"""The microarchitectural fault-injection campaign (Figures 4-6, §5.1.2).

Methodology, following Section 4:

1. Run each workload's pipeline once fault-free (the golden pass),
   collecting the golden retired stream and symptoms, state digests at
   every check boundary, compressed state checkpoints and the final
   architectural state.
2. Select injection cycles ("the fault injections were performed on a
   set of about 250-300 points for each experiment") spread over that
   run. Short walks from golden's checkpoints reach the pipeline state at
   each injection point and take full-state snapshots at the trial-end
   cycles.
3. Each trial flips one uniformly-chosen state bit in a fork (caches and
   predictor tables excluded, as in the paper) and monitors the machine for
   a window of cycles (the paper used 10,000; default scaled down), with
   the retired stream compared against golden. A trial whose state digest
   equals golden's at a check boundary has re-converged: the rest of its
   window is golden's, so it stops there and takes golden's records for
   the remainder (see :func:`_run_trial`).
4. Outcomes (Table 2): watchdog saturation -> deadlock; a retired ISA
   exception absent from golden -> exception; retired-PC divergence -> cfv
   (with the JRS-gated detection latency recorded separately for Figure 5);
   retired value/store divergence or corrupt final state -> sdc; a flip
   still sitting in architecturally-relevant storage -> latent; residual
   differences in failure-unlikely state -> other; full convergence ->
   masked.

One campaign serves all three figures: Figure 4 classifies with perfect
control-flow-violation identification, Figure 5 requires JRS-flagged
detection, and Figure 6 reinterprets flips that landed on parity/ECC
protected state classes via a :class:`~repro.restore.hardened.ProtectionMap`
(ECC-corrected flips become harmless latents — the paper's bigger *other*
category — and parity-recovered flips are masked). The §5.1.2 latch-only
study filters the same trials by state class.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from collections.abc import Callable, Collection, Iterator
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import attrgetter, itemgetter

from repro.cache import GoldenArtifactCache, UarchGoldenArtifact
from repro.campaign.guard import TrialGuard
from repro.campaign.outcomes import (
    CampaignWorkloadWarning,
    TrialOutcome,
    WorkloadRunOutcome,
    validate_shard,
)
from repro.campaign.plan import (
    check_plan_config,
    expand,
    run_plan,
    uniform_allocation,
)
from repro.faults.classify import (
    UARCH_CATEGORIES,
    UarchTrialResult,
    classify_uarch_trial,
)
from repro.faults.models import StateBitFlip
from repro.restore.hardened import ProtectionMap
from repro.restore.symptoms import MEMHIER_DETECTOR_NAMES, build_memhier_detectors
from repro.uarch.latches import LATCH_CLASSES, digest_matches, state_digest
from repro.uarch.pipeline import Pipeline, load_pipeline
from repro.util.rng import DeterministicRng
from repro.util.stats import BinomialEstimate, CategoryCounter
from repro.util.tables import format_table
from repro.workloads import WORKLOAD_NAMES, build_workload

# Figures 4-6 x-axis: checkpoint intervals in instructions.
FIGURE46_INTERVALS: tuple[int, ...] = (25, 50, 100, 200, 500, 1000, 2000)

#: Cycles between re-convergence checks. Golden records a state digest at
#: every absolute multiple of this period, and a trial compares its own
#: digest there. Chosen by a measured sweep (DESIGN.md, "Early exit on
#: re-convergence").
CHECK_PERIOD = 50

#: Cycles between golden's compressed state checkpoints, a multiple of
#: CHECK_PERIOD. A trial prefix or trial end is reached by restoring the
#: latest checkpoint at or before it and walking at most this far. Chosen
#: by a measured sweep (DESIGN.md, "One golden pass").
CHECKPOINT_PERIOD = 250


@dataclass(frozen=True)
class UarchCampaignConfig:
    """Campaign knobs; scale trial counts up toward the paper's 12-13k."""

    trials_per_workload: int = 84
    injection_points: int = 28
    window_cycles: int = 2500  # paper: 10,000
    warmup_cycles: int = 250
    seed: int = 2005
    workload_scale: int = 1
    fault_model: StateBitFlip = field(default_factory=StateBitFlip)
    workloads: tuple[str, ...] = WORKLOAD_NAMES
    max_golden_cycles: int = 200_000
    record_cache_symptoms: bool = False
    # Memory-hierarchy ablation knobs. Both are journal-omitted at their
    # defaults (``omit_default``) so campaigns that never enable them keep
    # manifests, digests, and golden-cache keys byte-identical to journals
    # written before the fields existed.
    memhier_targets: bool = field(default=False, metadata={"omit_default": True})
    detectors: tuple[str, ...] = field(default=(), metadata={"omit_default": True})

    def __post_init__(self) -> None:
        if not isinstance(self.detectors, tuple):
            # Service specs arrive as JSON lists; normalise before the
            # config is hashed so serial and service digests agree.
            object.__setattr__(self, "detectors", tuple(self.detectors))
        check_plan_config(self)
        if self.window_cycles < 1:
            raise ValueError(
                f"window_cycles must be >= 1, got {self.window_cycles}"
            )
        if self.warmup_cycles < 0:
            raise ValueError(
                f"warmup_cycles must be >= 0, got {self.warmup_cycles}"
            )
        if self.max_golden_cycles < 1:
            raise ValueError(
                f"max_golden_cycles must be >= 1, got {self.max_golden_cycles}"
            )
        unknown_detectors = [
            name for name in self.detectors if name not in MEMHIER_DETECTOR_NAMES
        ]
        if unknown_detectors:
            raise ValueError(
                f"unknown detectors {unknown_detectors}; "
                f"know {MEMHIER_DETECTOR_NAMES}"
            )

    @property
    def record_memhier_symptoms(self) -> bool:
        """Whether pipelines must emit stall-streak/spurious-memop events.

        Miss-rate spikes ride on the ordinary cache/TLB-miss handler calls;
        the other two detectors need the opt-in event streams.
        """
        return bool({"stall_outlier", "spurious_memop"} & set(self.detectors))


@dataclass
class UarchCampaignResult:
    """All trials plus the classification views used by Figures 4-6."""

    config: UarchCampaignConfig
    trials: list[UarchTrialResult]
    total_bits: int = 0
    skipped_workloads: tuple[tuple[str, str], ...] = ()

    def counter(
        self,
        interval: int | None,
        workload: str | None = None,
        require_confident_cfv: bool = False,
        protection: ProtectionMap | None = None,
        classes: tuple[str, ...] | None = None,
    ) -> CategoryCounter:
        counter = CategoryCounter(UARCH_CATEGORIES)
        for trial in self._select(workload, classes):
            counter.add(
                self._classify(trial, interval, require_confident_cfv, protection)
            )
        return counter

    def _select(
        self, workload: str | None, classes: tuple[str, ...] | None
    ) -> list[UarchTrialResult]:
        selected = self.trials
        if workload is not None:
            selected = [t for t in selected if t.workload == workload]
        if classes is not None:
            allowed = set(classes)
            selected = [t for t in selected if t.state_class in allowed]
        return selected

    @staticmethod
    def _classify(
        trial: UarchTrialResult,
        interval: int | None,
        require_confident_cfv: bool,
        protection: ProtectionMap | None,
    ) -> str:
        if protection is not None:
            kind = protection.protection_of_parts(trial.target, trial.state_class)
            if kind == "ecc":
                # Corrected in place; the flip is a harmless latent
                # ("covered by ECC and will not cause data corruption").
                return "other" if trial.failing or trial.uarch_latent else "masked"
            if kind == "parity":
                # Detected on read and recovered by flush/refetch.
                return "masked"
        return classify_uarch_trial(trial, interval, require_confident_cfv)

    # ------------------------------------------------------------- headline

    def masked_estimate(
        self, protection: ProtectionMap | None = None
    ) -> BinomialEstimate:
        good = sum(
            1
            for trial in self.trials
            if self._classify(trial, None, False, protection) in ("masked", "other")
        )
        return BinomialEstimate(good, len(self.trials))

    def baseline_failure_estimate(self) -> BinomialEstimate:
        """Failures with no detection at all (the paper's ~7%)."""
        failing = sum(1 for trial in self.trials if trial.failing)
        return BinomialEstimate(failing, len(self.trials))

    def failure_estimate(
        self,
        interval: int | None,
        require_confident_cfv: bool = True,
        protection: ProtectionMap | None = None,
    ) -> BinomialEstimate:
        """Residual failures when covered symptoms are recovered: the
        trials classified sdc or latent at this interval."""
        residual = 0
        for trial in self.trials:
            category = self._classify(
                trial, interval, require_confident_cfv, protection
            )
            if category in ("sdc", "latent"):
                residual += 1
        return BinomialEstimate(residual, len(self.trials))

    def coverage_of_failures(
        self,
        interval: int | None,
        require_confident_cfv: bool = False,
        classes: tuple[str, ...] | None = None,
    ) -> BinomialEstimate:
        """Fraction of failing trials covered by deadlock/exception/cfv
        within the interval (the paper's "half of all failures" at 100)."""
        failing = [t for t in self._select(None, classes) if t.failing]
        covered = sum(
            1
            for trial in failing
            if classify_uarch_trial(trial, interval, require_confident_cfv)
            in ("deadlock", "exception", "cfv")
        )
        return BinomialEstimate(covered, max(1, len(failing)))

    def latch_only_view(self) -> "UarchCampaignResult":
        """The Section 5.1.2 study: trials whose flip hit pipeline latches."""
        trials = [t for t in self.trials if t.state_class in LATCH_CLASSES]
        return UarchCampaignResult(
            self.config, trials, self.total_bits, self.skipped_workloads
        )

    # --------------------------------------------------------------- tables

    def table(
        self,
        intervals: tuple[int, ...] = FIGURE46_INTERVALS,
        require_confident_cfv: bool = False,
        protection: ProtectionMap | None = None,
        title: str = "outcome shares vs checkpoint interval",
    ) -> str:
        rows = []
        for interval in intervals:
            counter = self.counter(
                interval,
                require_confident_cfv=require_confident_cfv,
                protection=protection,
            )
            rows.append(
                [str(interval)]
                + [f"{counter.proportion(name):.1%}" for name in UARCH_CATEGORIES]
            )
        text = format_table(["interval"] + list(UARCH_CATEGORIES), rows, title=title)
        for name, reason in self.skipped_workloads:
            text += f"\nnote: workload {name} skipped ({reason})"
        return text


def run_uarch_campaign(config: UarchCampaignConfig) -> UarchCampaignResult:
    """Run the campaign over every configured workload.

    A thin serial wrapper over :func:`repro.campaign.runner.run_campaign`;
    use that entry point directly for journaling, resume, containment
    budgets, and parallel execution.
    """
    from repro.campaign.runner import run_campaign

    return run_campaign("uarch", config).result


def run_workload_trials(
    config: UarchCampaignConfig,
    workload: str,
    prior: Collection[TrialOutcome] = (),
    guard: TrialGuard | None = None,
    on_outcome: Callable[[TrialOutcome], None] | None = None,
    shard: tuple[int, int] | None = None,
    cache: GoldenArtifactCache | None = None,
) -> WorkloadRunOutcome:
    """Execute one workload's trials under containment.

    The trials are the uniform trial plan of :mod:`repro.campaign.plan`,
    the plan the arch campaign runs in its uniform mode: per-trial
    randomness is derived from ``(seed, workload, point, index)`` so
    resumed, sharded, and single-shot runs all produce the same records;
    the trials in ``prior`` (this workload's journaled outcomes) are not
    run again; ``shard=(shard_index, shard_count)`` restricts execution
    to the stride slice ``index % shard_count == shard_index`` of the
    per-point trial index space (the union of all shards is exactly the
    serial campaign); a failing golden run degrades to a skipped workload
    with a structured warning.

    Golden runs once (:func:`_run_golden`); the injection points are then
    drawn from its length. Only the points with a pending trial are
    reached: their trial-end state is taken, and then their prefixes one
    at a time as the trials need them, each by a short walk from golden's
    checkpoints (:func:`_hop`). With a
    :class:`~repro.cache.GoldenArtifactCache`, a hit replaces the golden
    pass with one cache load and takes the same hop path, so cached and
    uncached runs are bit-identical. ``trace`` on the result carries the
    golden run's length, its checkpoint count and the cycles the hops
    simulated.
    """
    guard = guard or TrialGuard()
    validate_shard(shard)
    wrng = DeterministicRng(config.seed).child("uarch-campaign").child(workload)
    golden_cache: str | None = None
    try:
        bundle = build_workload(workload, config.workload_scale, config.seed)
        golden = (
            cache.load("uarch", bundle.program, config)
            if cache is not None
            else None
        )
        if golden is not None:
            golden_cache = "hit"
        else:
            golden = _run_golden(bundle, config)
            if cache is not None:
                cache.store("uarch", bundle.program, config, golden)
                golden_cache = "miss"
        # Injection cycles spread uniformly over golden's run.
        end_cycle = golden.end_cycle
        first = min(config.warmup_cycles, max(1, end_cycle // 10))
        last = max(first + 1, end_cycle - 100)
        point_count = min(config.injection_points, last - first)
        points = sorted(wrng.child("points").sample(range(first, last), point_count))
        plan = expand(
            uniform_allocation(points, config.trials_per_workload), wrng,
            shard, {o.order for o in prior},
        )
        golden_trace = {
            "golden_cycles": end_cycle,
            "checkpoints": len(golden.checkpoints),
            "hop_cycles": 0,
        }
        snapshots: dict[int, list[int]] = {}
        retired_at: dict[int, int] = {}
        ends = {point + config.window_cycles for point, _ in plan}
        for machine in _hop(golden, ends, golden_trace):
            snapshots[machine.cycle_count] = machine.registry.snapshot()
            retired_at[machine.cycle_count] = machine.retired_count
        golden = replace(golden, snapshots=snapshots, retired_at=retired_at)
        # Prefixes are reached one at a time, as the trials need them; the
        # first restore happens here, so a checkpoint that cannot load
        # skips the workload like a failing golden run. With no trial
        # pending, the cycle-0 checkpoint stands in for the first prefix.
        prefixes = _hop(golden, [point for point, _ in plan], golden_trace)
        first = (
            next(prefixes) if plan
            else Pipeline.restore(golden.checkpoints[0])
        )
        total_bits = first.registry.total_bits()
    except Exception as exc:
        reason = f"{type(exc).__name__}: {exc}"
        warnings.warn(
            f"skipping workload {workload}: {reason}",
            CampaignWorkloadWarning,
            stacklevel=2,
        )
        return WorkloadRunOutcome(workload, skip_reason=reason)

    prefixes = chain([first], prefixes)

    def at_point(point: int):
        prefix = next(prefixes, None)
        if prefix is None:  # golden halted before the point
            return None

        def trial(index: int, trial_rng: DeterministicRng, trace: dict):
            flip_field, bit = prefix.registry.pick_bit(
                trial_rng, classes=config.fault_model.target_classes
            )
            return (
                lambda: _run_trial(
                    workload, prefix, golden, config, point, flip_field.index,
                    bit, trace,
                ),
                {"field": flip_field.name, "bit": bit},
            )

        return trial

    outcomes = run_plan(
        plan, workload, "uarch", config.seed, guard, on_outcome, at_point
    )
    return WorkloadRunOutcome(
        workload, outcomes, total_bits=total_bits, golden_cache=golden_cache,
        trace=golden_trace,
    )


def _load(
    bundle, config: UarchCampaignConfig, collect_retired: bool = False
) -> Pipeline:
    return load_pipeline(
        bundle.program,
        collect_retired=collect_retired,
        record_cache_symptoms=config.record_cache_symptoms,
        memhier_targets=config.memhier_targets,
        record_memhier_symptoms=config.record_memhier_symptoms,
    )


def _next_check(cycle: int) -> int:
    """The first check boundary strictly after ``cycle``."""
    return (cycle // CHECK_PERIOD + 1) * CHECK_PERIOD


def _run_golden(bundle, config: UarchCampaignConfig) -> UarchGoldenArtifact:
    """Run the workload fault-free once, to halt.

    Injection points are drawn from the run's length, so this pass records
    everything that does not depend on them: the retired stream, symptoms
    and final state, a state digest at every check boundary, a compressed
    state checkpoint at cycle 0 and every ``CHECKPOINT_PERIOD`` cycles
    (from which :func:`_hop` reaches the trial prefixes and trial ends)
    and, when detectors are configured, every handler call they would see,
    recorded through a handler that returns False, which leaves the run
    unchanged.
    """
    pipeline = _load(bundle, config, collect_retired=True)
    digests: dict[int, tuple[bytes, ...]] = {}
    checkpoints: dict[int, bytes] = {}
    detector_events: list[tuple] = []
    if config.detectors:
        watched = {
            kind
            for detector in build_memhier_detectors(config.detectors)
            for kind in detector.kinds
        }

        def record(kind: str, payload) -> bool:
            if kind in watched:
                detector_events.append(
                    (pipeline.cycle_count, pipeline.retired_count, kind, payload)
                )
            return False

        pipeline.symptom_handler = record

    limit = config.max_golden_cycles
    for cycle in range(0, limit, CHECK_PERIOD):
        pipeline.run(cycle - pipeline.cycle_count)
        if not pipeline.running:
            break
        digests[cycle] = state_digest(pipeline.registry, pipeline.memory)
        if cycle % CHECKPOINT_PERIOD == 0:
            checkpoints[cycle] = pipeline.checkpoint()
    pipeline.run(limit - pipeline.cycle_count)
    if not pipeline.halted:
        raise RuntimeError(
            f"golden pipeline run of {bundle.name} did not halt "
            f"(exception={pipeline.exception_name()})"
        )
    return UarchGoldenArtifact(
        end_cycle=pipeline.cycle_count,
        retired=pipeline.retired_log,
        final_arch_regs=pipeline.arch_reg_values(),
        final_memory=pipeline.memory,
        digests=digests,
        symptoms=pipeline.symptoms,
        detector_events=detector_events,
        checkpoints=checkpoints,
    )


def _hop(
    golden: UarchGoldenArtifact, targets: Collection[int], trace: dict
) -> Iterator[Pipeline]:
    """Golden's machine at each target cycle before its halt, in order.

    A target is reached from golden's latest checkpoint at or before it:
    the pipeline restored from that checkpoint walks to the target, and on
    to the following targets until one of them has a later checkpoint, so
    no walk is longer than the checkpoint period. The pipeline is
    deterministic and its state is exactly the description, so each walk
    retraces golden's run. The yielded pipeline walks on afterwards: fork
    it to keep its state. The cycles walked are added to
    ``trace["hop_cycles"]``.
    """
    starts = sorted(golden.checkpoints)
    pipeline = None
    for target in sorted(targets):
        if target >= golden.end_cycle:  # golden has halted
            return
        start = starts[bisect_right(starts, target) - 1]
        if pipeline is None or pipeline.cycle_count < start:
            pipeline = Pipeline.restore(golden.checkpoints[start])
        trace["hop_cycles"] += target - pipeline.cycle_count
        pipeline.run(target - pipeline.cycle_count)
        yield pipeline


def _latent_is_arch_relevant(faulty: Pipeline, diff_indices: list[int]) -> bool:
    """Is any residual state difference architecturally relevant?

    Relevant: the retirement RAT, a physical register currently mapped by
    it, or a *live* store-buffer entry (including a flipped valid bit,
    which can conjure a phantom committed store). Residue in stale entries
    of any structure is dead state — the paper's failure-unlikely *other*.
    """
    mapped = set(faulty.arch_rat.map)
    storebuf = faulty.storebuf
    entries = (storebuf.addr, storebuf.data, storebuf.size_log2)
    for index in diff_indices:
        field = faulty.registry.field(index)
        storage, slot = field.bank.storage, field.slot
        if storage is faulty.arch_rat.map or storage is storebuf.valid:
            return True
        if any(storage is entry for entry in entries) and storebuf.valid[slot]:
            return True
        if storage is faulty.prf.values and slot in mapped:
            return True
    return False


def _simulate(faulty: Pipeline, digests: dict, end: int) -> int | None:
    """Run a trial to cycle ``end``, checking at each check boundary
    whether its state equals golden's there. Returns the boundary at which
    it did, leaving the pipeline at that cycle, or None after the full
    window. Golden records no digest past its own halt, and with an empty
    ``digests`` map this is one plain run of the window."""
    for cycle in range(_next_check(faulty.cycle_count), end, CHECK_PERIOD):
        expected = digests.get(cycle)
        if expected is None:
            break
        faulty.run(cycle - faulty.cycle_count)
        if not faulty.running:
            break
        if digest_matches(faulty.registry, faulty.memory, expected):
            return cycle
    faulty.run(end - faulty.cycle_count)
    return None


def _run_trial(
    workload: str,
    prefix: Pipeline,
    golden: UarchGoldenArtifact,
    config: UarchCampaignConfig,
    point: int,
    field_index: int,
    bit: int,
    trace: dict[str, int] | None = None,
) -> UarchTrialResult:
    """Flip one bit in a fork of ``prefix`` and classify the window.

    A deterministic machine whose complete state equals golden's at cycle
    ``c`` has golden's future, so a trial that re-converges at a check
    boundary stops there. Its observations for the rest of the window are
    golden's: the retired records and symptoms golden produced in
    ``(c, end]``, and the detector events golden recorded there, replayed
    into the trial's own detectors (whose state, such as ``miss_spike``'s
    moving average, is the trial's). The end-of-trial final-state and
    latent checks would compare golden with itself, so they are skipped.
    The result equals the full-window run's field for field. ``trace``,
    when given, receives the trial's trace-only figures.
    """
    faulty = prefix.fork()
    faulty.retired_log = []
    flip_field = faulty.registry.field(field_index)
    flip_field.flip(bit)

    base = faulty.retired_count
    end = point + config.window_cycles
    fired: dict[str, int] = {}
    detectors = build_memhier_detectors(config.detectors)

    def _observe(kind: str, payload, position: int) -> None:
        # Measure first-fire positions without ever rolling back: the
        # campaign wants detection latency, not recovery, so the trial
        # keeps running and the failure comparators stay untouched.
        for det in detectors:
            if det.observe(kind, payload) and det.name not in fired:
                fired[det.name] = position

    if detectors:
        def _handler(kind: str, payload) -> bool:
            _observe(kind, payload, faulty.retired_count)
            return False

        faulty.symptom_handler = _handler
    reconverged = _simulate(faulty, golden.digests, end)

    retired = faulty.retired_log
    symptoms = faulty.symptoms
    if reconverged is not None:
        retired = retired + golden.retired[
            faulty.retired_count:golden.retired_at.get(end, len(golden.retired))
        ]
        cycle_of = attrgetter("cycle")
        symptoms = symptoms + golden.symptoms[
            bisect_right(golden.symptoms, reconverged, key=cycle_of):
            bisect_right(golden.symptoms, end, key=cycle_of)
        ]
        events = golden.detector_events
        for _, position, kind, payload in events[
            bisect_right(events, reconverged, key=itemgetter(0)):
            bisect_right(events, end, key=itemgetter(0))
        ]:
            _observe(kind, payload, position)
    if trace is not None:
        trace["sim_cycles"] = faulty.cycle_count - point
        if reconverged is not None:
            trace["reconverged_cycle"] = reconverged

    golden_log = golden.retired
    deadlock_latency = None
    exception_latency = None
    cfv_latency = None
    arch_corrupt = False
    previous_pc_mismatch = False
    for offset, record in enumerate(retired):
        index = base + offset
        latency = offset + 1
        if record.exc:
            exception_latency = latency
            break
        if index >= len(golden_log):
            if cfv_latency is None:
                cfv_latency = latency
            break
        expected = golden_log[index]
        store_matches = record.store_addr == expected.store_addr and (
            record.store_addr < 0 or record.store_data == expected.store_data
        )
        value_matches = record.dest == expected.dest and (
            record.dest < 0 or record.value == expected.value
        )
        content_matches = store_matches and value_matches
        if record.pc != expected.pc:
            # A lone PC-label mismatch with identical architectural content
            # is a corrupted in-flight PC tag, not a wrong instruction; two
            # in a row (or wrong content) means execution really diverged.
            if not content_matches or previous_pc_mismatch:
                if cfv_latency is None:
                    cfv_latency = max(1, latency - 1 if previous_pc_mismatch else latency)
            previous_pc_mismatch = True
        else:
            previous_pc_mismatch = False
            # A diverging *store* is persistent memory corruption. A
            # diverging register value is not persistent by itself — if it
            # is never consumed and later overwritten the fault is masked
            # (the end-of-trial state comparison decides), exactly as the
            # paper's masked category allows corrupted-then-overwritten
            # architectural state.
            if not store_matches:
                arch_corrupt = True
    if faulty.deadlock:
        deadlock_latency = len(retired) + 1

    cfv_detected_latency = None
    for event in symptoms:
        if event.kind == "hc_mispredict":
            cfv_detected_latency = max(1, event.retired - base + 1)
            break

    uarch_latent = False
    latent_arch_relevant = False
    clean_stream = (
        deadlock_latency is None
        and exception_latency is None
        and cfv_latency is None
        and not arch_corrupt
    )
    if clean_stream and reconverged is None:
        if faulty.halted:
            # The program finished: compare final architectural state.
            if len(retired) + base != len(golden_log):
                cfv_latency = len(retired) + 1
            elif not faulty.memory.equals(golden.final_memory):
                arch_corrupt = True
            elif faulty.arch_reg_values() != golden.final_arch_regs:
                arch_corrupt = True
        else:
            snapshot = golden.snapshots.get(end)
            if (
                snapshot is not None
                and faulty.cycle_count == end
                and faulty.retired_count == golden.retired_at.get(end)
            ):
                diff = faulty.registry.diff_indices(
                    snapshot, faulty.registry.snapshot()
                )
                if diff:
                    uarch_latent = True
                    latent_arch_relevant = _latent_is_arch_relevant(faulty, diff)
            # Matching stream with timing skew only: architecturally benign.

    def _detector_latency(name: str) -> int | None:
        if name not in fired:
            return None
        return max(1, fired[name] - base + 1)

    return UarchTrialResult(
        workload=workload,
        inject_cycle=point,
        target=flip_field.structure,
        state_class=flip_field.state_class,
        bit=bit,
        inject_retired=base,
        deadlock_latency=deadlock_latency,
        exception_latency=exception_latency,
        cfv_latency=cfv_latency,
        cfv_detected_latency=cfv_detected_latency,
        arch_corrupt=arch_corrupt,
        uarch_latent=uarch_latent,
        latent_arch_relevant=latent_arch_relevant,
        miss_spike_latency=_detector_latency("miss_spike"),
        stall_outlier_latency=_detector_latency("stall_outlier"),
        spurious_memop_latency=_detector_latency("spurious_memop"),
    )
