"""One repetition of a benchmark workload, in a fresh process.

``run.py`` starts this script once per repetition so that every
repetition pays the set-up a user pays (interpreter start, imports,
config, and for the service the store, scheduler and worker pool), starts
with empty modelled and Python-level caches, and has its own peak RSS.
Its ``--seed`` is the config seed of one question. It prints one JSON
object on its last stdout line:

- ``setup_s``: process start (``--spawned-at``, a ``time.monotonic()``
  stamp taken by the parent just before the spawn) to the campaign call;
- ``campaign_s``: the campaign call (or ``submit``) to the finalized
  journal;
- ``journal``: what the output check needs from the finalized journal;
- ``peak_rss_mb``: peak RSS of this process and, for the service, of its
  worker processes;
- ``layers``: per-layer metrics, with ``--trace``.

Modes: ``--setup-only`` stops at the campaign call; ``--serial`` runs
the workload's question through a serial ``run_campaign`` (the service's
byte-identity reference) and reports only the journal summary.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import importlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Service worker processes: one per core, at most this many.
MAX_SERVICE_WORKERS = 4
#: A repetition that has not finished by then is abandoned.
CAMPAIGN_TIMEOUT_S = 170.0


def service_workers() -> int:
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    return max(1, min(cores, MAX_SERVICE_WORKERS))


def summarize_journal(path: str, workload, config) -> dict:
    """Digest and counts of a finalized journal.

    The digest covers the trial lines only, byte for byte and in journal
    order; the manifest carries the package version and the telemetry
    entry is derived from the trials.
    """
    digest = hashlib.sha256()
    trials = not_ok = lines = 0
    skipped: list[str] = []
    sentinels: dict[str, dict] = {}
    outcomes: dict[str, dict] = {}
    planner_totals = None
    with open(path, "rb") as handle:
        for raw in handle:
            lines += 1
            entry = json.loads(raw)
            kind = entry.get("kind")
            if kind == "trial":
                digest.update(raw)
                trials += 1
                if entry["status"] != "ok":
                    not_ok += 1
                record = entry.get("record") or {}
                outcomes.setdefault(entry["workload"], {})[
                    (entry["point"], entry["index"])
                ] = (entry["status"] == "ok", bool(record.get("failing")))
            elif kind == "workload":
                sentinels[entry["workload"]] = entry
                if entry["status"] != "done":
                    skipped.append(entry["workload"])
            elif kind == "telemetry":
                planner_totals = entry.get("planner")
    rounds = 0
    planner = workload.planner()
    if planner is not None:
        from repro.planner import replay_summary, resolve_budget

        for name, sentinel in sentinels.items():
            if "planner_points" in sentinel:
                rounds += replay_summary(
                    planner, sentinel["planner_points"],
                    sentinel.get("prescreened_points", ()),
                    budget=resolve_budget(planner, config),
                    outcomes=outcomes.get(name, {}),
                )["rounds"]
    planned = workload.planned_trials(config)
    if planned is None and planner_totals is not None:
        planned = planner_totals["executed"] + planner_totals["prescreen_trials"]
    return {
        "digest": digest.hexdigest(),
        "trials": trials,
        "planned": planned,
        "not_ok": not_ok,
        "skipped": skipped,
        "skipped_trials": len(skipped) * config.trials_per_workload,
        "lines": lines,
        "planner_rounds": rounds,
        "prescreened_trials": (planner_totals or {}).get("prescreen_trials", 0),
    }


def peak_rss_mb(with_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def run_direct(args, workload, config, spawned_at: float) -> dict:
    # Called through the module so the tracing wrapper is the one used.
    from repro.campaign import runner

    from tracing import ROOT_SPAN, SpanRecorder

    # run_campaign imports its level's module lazily; importing it here
    # keeps every import in setup_s, traced or not.
    importlib.import_module(f"repro.faults.{workload.level}_campaign")

    planner = workload.planner()
    setup_s = time.monotonic() - spawned_at
    if args.setup_only:
        return {"setup_s": setup_s}
    journal = os.path.join(args.work_dir, "journal.jsonl")
    if args.serial:
        runner.run_campaign(workload.level, config, journal_path=journal,
                            jobs=1, planner=planner)
        return {"journal": summarize_journal(journal, workload, config)}
    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        recorder.install_direct()
        root = recorder.enter(ROOT_SPAN)
    start = time.perf_counter()
    try:
        runner.run_campaign(workload.level, config, journal_path=journal,
                            jobs=1, planner=planner)
        campaign_s = time.perf_counter() - start
    finally:
        if recorder is not None:
            recorder.exit(root)
            recorder.uninstall()
    return finish(args, workload, config, recorder, setup_s, campaign_s,
                  journal, peak_rss_mb(with_children=False))


async def run_service(args, workload, config, spawned_at: float) -> dict:
    from concurrent.futures import ProcessPoolExecutor

    from repro.service import (
        CampaignScheduler,
        JobSpec,
        LocalWorkerPool,
        ResultStore,
    )

    from tracing import ROOT_SPAN, SpanRecorder, trace_worker

    workers = service_workers()
    spec = JobSpec(level=workload.level, config=config,
                   shards_per_workload=workers, planner=workload.planner())
    store = ResultStore(":memory:")
    scheduler = CampaignScheduler(store, args.work_dir)
    # The executor LocalWorkerPool would build for `repro serve`, owned
    # here so its processes are joined (their peak RSS then shows in
    # RUSAGE_CHILDREN). The first submit starts every worker, so they are
    # forked before any tracing wrapper exists in this process; a traced
    # campaign's workers trace themselves.
    worker_totals = os.path.join(args.work_dir, "worker-totals")
    if args.trace:
        os.makedirs(worker_totals)
        executor = ProcessPoolExecutor(
            max_workers=workers, initializer=trace_worker,
            initargs=(worker_totals,),
        )
    else:
        executor = ProcessPoolExecutor(max_workers=workers)
    pool = LocalWorkerPool(scheduler, workers=workers, executor=executor)
    recorder = None
    try:
        executor.submit(os.getpid).result()
        pool.start()
        setup_s = time.monotonic() - spawned_at
        if args.setup_only:
            return {"setup_s": setup_s}
        finished = asyncio.Event()

        def on_event(event: dict) -> None:
            if event["event"] == "done":
                finished.set()

        if args.trace:
            recorder = SpanRecorder()
            recorder.install_service()
            root = recorder.enter(ROOT_SPAN)
        start = time.perf_counter()
        try:
            job_id = scheduler.submit(spec)["job_id"]
            scheduler.add_listener(job_id, on_event)
            await asyncio.wait_for(finished.wait(), CAMPAIGN_TIMEOUT_S)
            campaign_s = time.perf_counter() - start
        finally:
            if recorder is not None:
                recorder.exit(root)
                recorder.uninstall()
        view = scheduler.job_view(job_id)
    finally:
        await pool.stop()
        executor.shutdown(wait=True)
        store.close()
    if view["state"] != "done" or not view["journal_path"]:
        raise RuntimeError(f"service job ended {view['state']!r}: {view['error']}")
    if recorder is not None:
        names = os.listdir(worker_totals)
        if len(names) != workers:
            raise RuntimeError(f"{len(names)} of {workers} workers wrote "
                               f"their trace totals")
        for name in names:
            with open(os.path.join(worker_totals, name)) as handle:
                recorder.merge(json.load(handle))
    return finish(args, workload, config, recorder, setup_s, campaign_s,
                  view["journal_path"], peak_rss_mb(with_children=True))


def finish(args, workload, config, recorder, setup_s, campaign_s, journal,
           rss_mb) -> dict:
    from tracing import layer_metrics

    summary = summarize_journal(journal, workload, config)
    result = {
        "setup_s": setup_s,
        "campaign_s": campaign_s,
        "peak_rss_mb": rss_mb,
        "journal": summary,
    }
    if recorder is not None:
        result["layers"] = layer_metrics(recorder, summary)
        if args.spans_out:
            with open(args.spans_out, "w") as handle:
                for span in recorder.span_dicts():
                    handle.write(json.dumps(span) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--serial", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    config = workload.config(args.seed)
    if workload.service and not args.serial:
        result = asyncio.run(run_service(args, workload, config, args.spawned_at))
    else:
        result = run_direct(args, workload, config, args.spawned_at)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
