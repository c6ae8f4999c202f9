"""Outside-in span tracing for the campaign benchmark.

Nothing in ``src/`` is edited or imported for tracing. At run time
:class:`SpanRecorder` replaces public functions and methods of the
``repro`` layers (module attributes, every module that imported them by
name, and class methods) with timing wrappers, and restores them on
:meth:`SpanRecorder.uninstall`. Each span records its name, start, end,
parent span, workload and trial key; spans stay in memory and are
written out when the benchmark ends.

Self time is a span's duration minus the durations of its direct child
spans, computed as spans close. :func:`layer_metrics` turns the totals
into the per-layer metrics named in ``BENCHMARK.json``.

On the service workload the parent wraps its own layers (scheduler,
store, planner replay, journal, telemetry merge). Trials run in worker
processes, which :func:`trace_worker` traces with the wrappers of a
direct campaign; each worker writes its totals when it exits and the parent
merges them (:meth:`SpanRecorder.merge`), so worker-side times are sums
over workers that ran in parallel. Each unit's lease-to-complete
interval is recorded as a ``service.unit`` span that does not count as a
child for self time, because units overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

#: Spans other spans are classified by: ``Pipeline.run`` inside a trial
#: span is trial simulation, and the runner's self time is the remainder.
TRIAL_SPAN = "faults.trial"
LOCKSTEP_SPAN = "faults.lockstep"
RUNNER_SPAN = "campaign.runner"
ROOT_SPAN = "campaign"
WORKER_UNIT_SPAN = "service.worker_unit"

#: Counts that must repeat exactly for one seed (checked across reps).
EXACT_COUNTS = (
    "uarch.golden.passes",
    "uarch.trial_sim.cycles",
    "faults.lockstep.solo_runs",
    "campaign.journal.lines",
    "planner.rounds",
    "planner.prescreened_trials",
    "service.units",
)

#: Every per-layer metric a traced run reports, with its unit. The
#: ``trace.*`` entries describe the tracing itself; ``run.py`` adds
#: ``trace.overhead_s`` (traced minus untraced campaign_s) and
#: ``trace.campaign_s`` (the traced campaigns). :func:`layer_metrics`
#: also returns figures that only go into the run record: the trial
#: tail's percentile and sample count, reissued service units, the
#: span count and the time outside every named span.
PER_LAYER_UNITS = {
    "uarch.golden.self_s": "s",
    "uarch.golden.passes": "count",
    "uarch.prefix.self_s": "s",
    "uarch.fork.self_s": "s",
    "uarch.fork.p50_ms": "ms",
    "uarch.trial_sim.self_s": "s",
    "uarch.trial_sim.cycles": "count",
    "uarch.cycles_per_s": "1/s",
    "uarch.build_s": "s",
    "uarch.registry.snapshot_s": "s",
    "uarch.registry.diff_s": "s",
    "faults.trial.p50_ms": "ms",
    "faults.trial.tail_ms": "ms",
    "faults.classify.self_s": "s",
    "faults.lockstep.self_s": "s",
    "faults.lockstep.solo_runs": "count",
    "arch.run.self_s": "s",
    "arch.steps_per_s": "1/s",
    "arch.golden.self_s": "s",
    "campaign.journal.write_s": "s",
    "campaign.journal.lines": "count",
    "campaign.runner.self_s": "s",
    "telemetry.aggregate_s": "s",
    "workloads.build_s": "s",
    "planner.rounds": "count",
    "planner.prescreened_trials": "count",
    "planner.plan_s": "s",
    "service.lease_s": "s",
    "service.complete_s": "s",
    "service.store.add_trials_s": "s",
    "service.store.trial_entries_s": "s",
    "service.units": "count",
    "service.unit_wait_p50_ms": "ms",
    "service.unit_run_p50_ms": "ms",
    "trace.overhead_s": "s",
    "trace.campaign_s": "s",
}


class SpanRecorder:
    """In-memory span recorder with online self-time accounting."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.work: Counter = Counter()  # simulated cycles / steps per span name
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.extra: Counter = Counter()  # event counts recorded by hooks
        self.unit_created: dict[tuple, float] = {}
        self.unit_leased: dict[tuple, float] = {}
        self.unit_wait: list[float] = []
        self.unit_run: list[float] = []
        self._stack: list[list] = []
        self._active: Counter = Counter()
        self._workload: str | None = None
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def enter(self, name: str, key: str | None = None, aggregate: bool = False):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        if key is None and parent is not None:
            key = parent[4]
        frame = [name, time.perf_counter(), 0.0, span_id, key, aggregate]
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def exit(self, frame: list, work: int = 0) -> None:
        end = time.perf_counter()
        name, start, child, span_id, key, aggregate = frame
        self._stack.pop()
        self._active[name] -= 1
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.self_s[name] += duration - child
        # A nested span of the same name (complete_chunk -> complete) is
        # already inside its outer span's inclusive time.
        if not self._active[name]:
            self.incl_s[name] += duration
        self.work[name] += work
        if not aggregate:
            self.durations[name].append(duration)
            self.spans.append((
                name, start, end, span_id,
                parent[3] if parent is not None else None,
                self._workload, key,
            ))

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def interval(self, name: str, start: float, end: float, key: str) -> None:
        """Record a span that is not a call (and not a self-time child)."""
        root = self._stack[0][3] if self._stack else None
        self.spans.append(
            (name, start, end, self._next_id, root, self._workload, key)
        )
        self._next_id += 1

    # ---------------------------------------------------------- wrapping

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_function(self, module_name: str, attr: str, wrapper_factory) -> None:
        """Replace ``module.attr`` and every ``repro`` module's name-bound
        import of it with ``wrapper_factory(original)``."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapper = wrapper_factory(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not name.startswith("repro"):
                continue
            if loaded.__dict__.get(attr) is original:
                self._patch(loaded, attr, wrapper)

    def wrap_method(self, module_name: str, class_name: str, attr: str,
                    wrapper_factory) -> None:
        owner = getattr(importlib.import_module(module_name), class_name)
        self._patch(owner, attr, wrapper_factory(owner.__dict__[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span(self, name: str, *, key_arg: int | None = None,
             aggregate: bool = False, work=None, name_of=None, after=None):
        """A wrapper factory timing every call as one span.

        ``key_arg`` names the positional argument holding the trial or
        unit key; ``work(args)`` reads a progress counter (cycles, steps)
        before and after the call; ``name_of(args)`` picks the span name
        per call; ``after(args, kwargs, result)`` runs when it returns.
        """
        recorder = self

        def factory(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                label = name_of(args) if name_of is not None else name
                key = args[key_arg] if key_arg is not None else None
                before = work(args) if work is not None else 0
                frame = recorder.enter(label, key, aggregate)
                done = 0
                try:
                    result = original(*args, **kwargs)
                    done = work(args) - before if work is not None else 0
                finally:
                    recorder.exit(frame, done)
                if after is not None:
                    after(args, kwargs, result)
                return result

            return wrapper

        return factory

    def workload_context(self, original):
        """Tag spans under ``run_workload_trials`` with the workload name
        without opening a span: its own bookkeeping stays in the
        runner's remainder."""
        recorder = self

        @functools.wraps(original)
        def wrapper(config, workload, *args, **kwargs):
            saved = recorder._workload
            recorder._workload = workload
            try:
                return original(config, workload, *args, **kwargs)
            finally:
                recorder._workload = saved

        return wrapper

    def lockstep_stats(self, span_factory):
        """Hand ``run_lockstep_trials`` a ``LockstepStats`` of our own
        (its callers pass none) and count the trials it materialized:
        those that diverged and finished on a solo simulator."""
        from repro.faults.lockstep import LockstepStats

        recorder = self

        def factory(original):
            timed = span_factory(original)

            @functools.wraps(original)
            def wrapper(*args, stats=None, **kwargs):
                if stats is None:
                    stats = LockstepStats()
                try:
                    return timed(*args, stats=stats, **kwargs)
                finally:
                    recorder.extra["faults.lockstep.solo_runs"] += (
                        stats.materialized
                    )

            return wrapper

        return factory

    # ------------------------------------------------------ installation

    def install_direct(self) -> None:
        """Wrap every layer a serial ``run_campaign`` passes through."""
        def pipeline_run_name(args) -> str:
            if self.active(TRIAL_SPAN):
                return "uarch.trial_sim"
            # Golden pipelines are the ones built with collect_retired=True
            # (trial forks also log retirements, but run inside a trial).
            if args[0].retired_log is not None:
                return "uarch.golden"
            return "uarch.prefix"

        def count_golden(args, kwargs, result) -> None:
            if kwargs.get("collect_retired"):
                self.extra["uarch.golden.passes"] += 1

        self.wrap_function("repro.campaign.runner", "run_campaign",
                           self.span(RUNNER_SPAN))
        # This imports both campaign modules, so their name-bound imports
        # of the functions wrapped below exist and get patched too.
        for module in ("repro.faults.arch_campaign", "repro.faults.uarch_campaign"):
            self.wrap_function(module, "run_workload_trials",
                               self.workload_context)
        self.wrap_function("repro.workloads.registry", "build_workload",
                           self.span("workloads.build"))
        self.wrap_function("repro.uarch.pipeline", "load_pipeline",
                           self.span("uarch.build", after=count_golden))
        self.wrap_method("repro.uarch.pipeline", "Pipeline", "run", self.span(
            "uarch.run", name_of=pipeline_run_name,
            work=lambda args: args[0].cycle_count))
        self.wrap_method("repro.uarch.pipeline", "Pipeline", "fork",
                         self.span("uarch.fork"))
        self.wrap_method("repro.uarch.latches", "StateRegistry", "snapshot",
                         self.span("uarch.registry.snapshot"))
        self.wrap_method("repro.uarch.latches", "StateRegistry", "diff_indices",
                         self.span("uarch.registry.diff"))
        self.wrap_method("repro.campaign.guard", "TrialGuard", "run",
                         self.span(TRIAL_SPAN, key_arg=1))
        self.wrap_function("repro.faults.lockstep", "run_lockstep_trials",
                           self.lockstep_stats(self.span(LOCKSTEP_SPAN)))
        self.wrap_method("repro.arch.simulator", "ArchSimulator", "run",
                         self.span("arch.run",
                                   work=lambda args: args[0].retired))
        self.wrap_method("repro.arch.simulator", "ArchSimulator",
                         "run_with_trace", self.span(
                             "arch.golden", work=lambda args: args[0].retired))
        self._install_shared()

    def install_service(self) -> None:
        """Wrap the parent-side service layers only."""
        def units_added(args, kwargs, result) -> None:
            now = time.perf_counter()
            for unit in args[1]:
                self.unit_created[(unit.job_id, unit.unit_id)] = now
            self.extra["service.units"] += len(args[1])

        def units_leased(args, kwargs, result) -> None:
            now = time.perf_counter()
            for unit in result:
                ident = (unit["job_id"], unit["unit_id"])
                if ident in self.unit_leased:
                    self.extra["service.reissued_units"] += 1
                self.unit_leased[ident] = now
                created = self.unit_created.get(ident)
                if created is not None:
                    self.unit_wait.append(now - created)

        def unit_completed(args, kwargs, result) -> None:
            ident = (args[1], args[2])
            leased = self.unit_leased.get(ident)
            if leased is not None and result:
                now = time.perf_counter()
                self.unit_run.append(now - leased)
                self.interval("service.unit", leased, now, args[2])

        scheduler = "repro.service.scheduler"
        store = "repro.service.store"
        self.wrap_method(scheduler, "CampaignScheduler", "submit",
                         self.span("service.submit"))
        self.wrap_method(scheduler, "CampaignScheduler", "lease_batch",
                         self.span("service.lease"))
        self.wrap_method(scheduler, "CampaignScheduler", "complete",
                         self.span("service.complete", key_arg=2,
                                   after=unit_completed))
        self.wrap_method(scheduler, "CampaignScheduler", "complete_chunk",
                         self.span("service.complete", key_arg=2))
        self.wrap_method(store, "ResultStore", "add_units",
                         self.span("service.store.add_units", after=units_added))
        self.wrap_method(store, "ResultStore", "lease_batch",
                         self.span("service.store.lease", after=units_leased))
        self.wrap_method(store, "ResultStore", "add_trials",
                         self.span("service.store.add_trials"))
        self.wrap_method(store, "ResultStore", "trial_entries",
                         self.span("service.store.trial_entries"))
        self.wrap_method("repro.planner.core", "CampaignPlanner", "plan_round",
                         self.span("planner.plan"))
        self.wrap_method("repro.planner.core", "CampaignPlanner", "summary",
                         self.span("planner.plan"))
        # observe() runs once per replayed trial on every completion, so it
        # is timed without keeping one span record per call.
        self.wrap_method("repro.planner.core", "CampaignPlanner", "observe",
                         self.span("planner.plan", aggregate=True))
        self.wrap_function("repro.telemetry.metrics", "merge_campaign_metrics",
                           self.span("telemetry.aggregate"))
        self._install_shared()

    def _install_shared(self) -> None:
        self.wrap_method("repro.util.journal", "JournalWriter", "write",
                         self.span("campaign.journal.write"))
        self.wrap_function("repro.telemetry.metrics", "aggregate_campaign",
                           self.span("telemetry.aggregate"))

    # ------------------------------------------------------------ output

    def totals(self) -> dict:
        """Per-name totals, which :meth:`merge` adds into another
        recorder."""
        return {
            "self_s": self.self_s, "incl_s": self.incl_s,
            "work": self.work, "durations": self.durations,
            "extra": self.extra,
        }

    def merge(self, totals: dict) -> None:
        for name, value in totals["self_s"].items():
            self.self_s[name] += value
        for name, value in totals["incl_s"].items():
            self.incl_s[name] += value
        self.work.update(totals["work"])
        self.extra.update(totals["extra"])
        for name, values in totals["durations"].items():
            self.durations[name].extend(values)

    def span_dicts(self) -> list[dict]:
        return [
            {"id": span_id, "name": name, "start": start, "end": end,
             "parent": parent, "workload": workload, "key": key}
            for name, start, end, span_id, parent, workload, key in self.spans
        ]


def trace_worker(out_dir: str) -> None:
    """``ProcessPoolExecutor`` initializer of a traced service campaign.

    Wraps the worker's layers as for a direct campaign, with each
    ``execute_unit`` call as the root span, and writes the recorder's
    totals to ``out_dir`` when the worker process exits.
    """
    from multiprocessing.util import Finalize

    recorder = SpanRecorder()
    recorder.install_direct()
    recorder.wrap_function("repro.service.worker", "execute_unit",
                           recorder.span(WORKER_UNIT_SPAN))

    def write_totals() -> None:
        path = os.path.join(out_dir, f"worker-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(recorder.totals(), handle)

    Finalize(None, write_totals, exitpriority=0)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * pct / 100))
    return ordered[rank - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it
    (50 when there are too few samples for any tail)."""
    if n < 20:
        return 50
    return max(50, int(100 * (1 - 10 / n)))


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000 if values else 0.0


def layer_metrics(recorder: SpanRecorder, journal_counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced campaign (times in s unless the
    name says ms; counts exact). ``journal_counts`` carries counts read
    from the finalized journal (lines, planner rounds, prescreens)."""
    self_s, incl, work = recorder.self_s, recorder.incl_s, recorder.work
    sim_names = ("uarch.golden", "uarch.prefix", "uarch.trial_sim")
    sim_time = sum(self_s[name] for name in sim_names)
    trial = recorder.durations[TRIAL_SPAN]
    tail = tail_percentile(len(trial))
    metrics = {
        "uarch.golden.self_s": self_s["uarch.golden"],
        "uarch.golden.passes": recorder.extra["uarch.golden.passes"],
        "uarch.prefix.self_s": self_s["uarch.prefix"],
        "uarch.fork.self_s": self_s["uarch.fork"],
        "uarch.fork.p50_ms": _median_ms(recorder.durations["uarch.fork"]),
        "uarch.trial_sim.self_s": self_s["uarch.trial_sim"],
        "uarch.trial_sim.cycles": work["uarch.trial_sim"],
        "uarch.cycles_per_s": (
            sum(work[name] for name in sim_names) / sim_time if sim_time else 0.0
        ),
        "uarch.build_s": incl["uarch.build"],
        "uarch.registry.snapshot_s": self_s["uarch.registry.snapshot"],
        "uarch.registry.diff_s": self_s["uarch.registry.diff"],
        "faults.trial.p50_ms": _median_ms(trial),
        "faults.trial.tail_ms": percentile(trial, tail) * 1000,
        "faults.trial.tail_pct": tail,
        "faults.trial.n": len(trial),
        "faults.classify.self_s": self_s[TRIAL_SPAN],
        "faults.lockstep.self_s": self_s[LOCKSTEP_SPAN],
        "faults.lockstep.solo_runs": recorder.extra["faults.lockstep.solo_runs"],
        "arch.run.self_s": self_s["arch.run"],
        "arch.steps_per_s": (
            work["arch.run"] / self_s["arch.run"] if self_s["arch.run"] else 0.0
        ),
        "arch.golden.self_s": self_s["arch.golden"],
        "campaign.journal.write_s": incl["campaign.journal.write"],
        "campaign.journal.lines": journal_counts["lines"],
        "campaign.runner.self_s": self_s[RUNNER_SPAN],
        "telemetry.aggregate_s": incl["telemetry.aggregate"],
        "workloads.build_s": incl["workloads.build"],
        "planner.rounds": journal_counts["planner_rounds"],
        "planner.prescreened_trials": journal_counts["prescreened_trials"],
        "planner.plan_s": self_s["planner.plan"],
        "service.lease_s": incl["service.lease"],
        "service.complete_s": incl["service.complete"],
        "service.store.add_trials_s": incl["service.store.add_trials"],
        "service.store.trial_entries_s": incl["service.store.trial_entries"],
        "service.units": recorder.extra["service.units"],
        "service.reissued_units": recorder.extra["service.reissued_units"],
        "service.unit_wait_p50_ms": _median_ms(recorder.unit_wait),
        "service.unit_run_p50_ms": _median_ms(recorder.unit_run),
        "trace.unaccounted_s": self_s[ROOT_SPAN] + self_s[RUNNER_SPAN],
        "trace.spans": len(recorder.spans),
    }
    return metrics
