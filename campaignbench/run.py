"""Campaign benchmark: time a fault-injection campaign end to end.

Usage (from the repository root)::

    python3 campaignbench/run.py --workload uarch-fig4 --seed 2005 \
        --seconds 45 --trace 0

One run measures one workload at one seed. A seed stands for a family
of questions (config seeds, see ``workloads.question_seeds``). The run
first sets the workload up several times in fresh processes, then runs
whole campaigns, each in a fresh process (see ``rep.py``), in rounds of
one campaign per question, for about ``--seconds`` seconds and at least
one round. Every metric is a median over the run's campaigns (for
``setup_s``, over the set-ups). With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
campaigns of the first question, at least twice each, and reports the
per-layer metrics of the traced ones plus the tracing overhead. Every
campaign's journal passes the output check or the run reports
``correct: false``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it is the run
record: host, per-metric samples and the check verdict. Both, and the
spans of a traced run, are also written under ``campaignbench/results/``.
See ``campaignbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from tracing import EXACT_COUNTS, PER_LAYER_UNITS
from workloads import DEFAULT_SEED, WORKLOADS, question_seeds

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REP = os.path.join(BENCH_DIR, "rep.py")
PINS = os.path.join(BENCH_DIR, "pins.json")

#: Fresh-process set-ups per run; ``setup_s`` is the median over these
#: and the campaign repetitions' own set-ups.
SETUP_PROBES = 5
#: Traced rounds (an untraced and a traced campaign) a traced run makes
#: at least, so exact counts are compared between traced campaigns.
MIN_TRACED_ROUNDS = 2
#: Everything must finish within the benchmark's 180 s limit.
DEADLINE_S = 165.0

END_TO_END = {
    "campaign_s": "s",
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class RepFailed(Exception):
    """A repetition crashed, timed out or printed no result."""


def run_rep(workload: str, seed: int, work_dir: str, deadline: float,
            *flags: str) -> dict:
    """Run ``rep.py`` in a fresh process group and return its result.

    On timeout the whole group is killed, so service worker processes
    cannot outlive the run.
    """
    os.makedirs(work_dir, exist_ok=True)
    spawned = time.monotonic()
    command = [
        sys.executable, REP, "--workload", workload, "--seed", str(seed),
        "--work-dir", work_dir, "--spawned-at", repr(spawned), *flags,
    ]
    # Temporary files (Python's and SQLite's) stay inside the checkout.
    env = {**os.environ, "TMPDIR": work_dir, "SQLITE_TMPDIR": work_dir}
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True, env=env,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"repetition timed out: {' '.join(flags) or 'campaign'}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(
            f"repetition exited {proc.returncode}: {err.strip()[-1500:]}"
        )
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def host_record() -> dict:
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {
        "nproc": cores,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.processor() or platform.machine(),
        "commit": commit(),
    }


def check_rep(journal: dict, pin: dict | None) -> list[str]:
    """Output check of one campaign's finalized journal."""
    problems = []
    if journal["not_ok"]:
        problems.append(f"{journal['not_ok']} trials not ok")
    if journal["skipped"]:
        problems.append(f"skipped workloads {journal['skipped']}")
    if journal["trials"] != journal["planned"]:
        problems.append(
            f"{journal['trials']} trials journaled, {journal['planned']} planned"
        )
    if pin is not None and journal["digest"] != pin["digest"]:
        problems.append(
            f"trial digest {journal['digest'][:16]} != pinned {pin['digest'][:16]}"
        )
    return problems


class Measurement:
    """What one run measured: repetitions, set-ups and check failures."""

    def __init__(self) -> None:
        self.reps: list[dict] = []
        self.setups: list[float] = []
        self.problems: list[str] = []
        self.digest_check = ""
        self.attempted = 0
        self.failed = 0

    def add(self, rep: dict, pin: dict | None) -> None:
        """Record one campaign and check its journal."""
        self.reps.append(rep)
        journal = rep["journal"]
        self.attempted += journal["trials"] + journal["skipped_trials"]
        self.failed += journal["not_ok"] + journal["skipped_trials"]
        bad = check_rep(journal, pin)
        if bad:
            # Every trial of a campaign whose output is wrong has failed.
            self.problems.extend(bad)
            self.failed += journal["trials"] - journal["not_ok"]


def measure(workload, seed: int, seconds: float, traced: bool,
            pins: dict, spans_out: str, work: str,
            deadline: float) -> Measurement:
    """Set-up probes, then rounds of campaigns for about ``seconds``.

    An untraced round makes one campaign of each question of ``seed``;
    a traced round makes an untraced and a traced campaign of the first
    question, so tracing overhead and exact counts compare like with
    like. ``pins`` maps config seeds to pinned digests.
    """
    run = Measurement()
    questions = question_seeds(seed)
    if traced:
        rounds = [(questions[0], False), (questions[0], True)]
    else:
        rounds = [(question, False) for question in questions]
    least = MIN_TRACED_ROUNDS * len(rounds) if traced else len(rounds)
    try:
        for index in range(SETUP_PROBES):
            run.setups.append(run_rep(
                workload.name, questions[0], os.path.join(work, f"probe{index}"),
                deadline, "--setup-only",
            )["setup_s"])
        measure_start = time.monotonic()
        while True:
            done = len(run.reps)
            if done >= least and done % len(rounds) == 0:
                # Start another round only if it fits in ``seconds``.
                elapsed = time.monotonic() - measure_start
                if elapsed + elapsed / done * len(rounds) > seconds:
                    break
            question, trace_this = rounds[done % len(rounds)]
            flags = ["--trace", "--spans-out", spans_out] if trace_this else []
            rep = run_rep(workload.name, question,
                          os.path.join(work, f"rep{done}"), deadline, *flags)
            rep["question"] = question
            rep["traced"] = trace_this
            run.add(rep, pins.get(str(question)))
        asked = list(dict.fromkeys(question for question, _ in rounds))
        run.digest_check = check_unpinned(run, workload, asked, pins,
                                          work, deadline)
    except RepFailed as exc:
        # A repetition that crashed or timed out is one failed attempt.
        run.problems.append(str(exc))
        run.attempted += 1
        run.failed += 1
    return run


def check_unpinned(run: Measurement, workload, questions: list[int],
                   pins: dict, work: str, deadline: float) -> str:
    """Check the digests of questions without a pin; return the verdict.

    Campaigns of one question must agree. The first unpinned question is
    also run through a serial ``run_campaign`` outside the timed region:
    for the service that is its byte-identity reference, and for a
    direct workload a second run of the question.
    """
    unpinned = [question for question in questions if str(question) not in pins]
    if not unpinned:
        return f"digests pinned for seeds {questions}"
    digests: dict[int, set] = {}
    for rep in run.reps:
        digests.setdefault(rep["question"], set()).add(rep["journal"]["digest"])
    first = unpinned[0]
    digests.setdefault(first, set()).add(run_rep(
        workload.name, first, os.path.join(work, "serial"), deadline,
        "--serial",
    )["journal"]["digest"])
    for question in unpinned:
        if len(digests.get(question, ())) > 1:
            run.problems.append(
                f"trial digests of seed {question} disagree: "
                f"{sorted(digests[question])}"
            )
    unchecked = [question for question in unpinned
                 if question != first and
                 sum(rep["question"] == question for rep in run.reps) < 2]
    verdict = (f"seeds {unpinned} unpinned: seed {first} matches a serial "
               f"run_campaign")
    if unchecked:
        verdict += f"; digests of seeds {unchecked} unchecked"
    return verdict


def layer_samples(run: Measurement, untraced_campaign: list[float]) -> dict:
    """Per-layer samples of the traced campaigns, plus tracing overhead.

    Adds a problem when an exact count differs between campaigns.
    """
    layers: dict[str, list] = {}
    for rep in run.reps:
        for name, value in rep.get("layers", {}).items():
            layers.setdefault(name, []).append(value)
    for name in EXACT_COUNTS:
        if len(set(layers.get(name, ()))) > 1:
            run.problems.append(
                f"count {name} differs between runs: {layers[name]}"
            )
    traced_campaign = [rep["campaign_s"] for rep in run.reps if rep["traced"]]
    if traced_campaign and untraced_campaign:
        layers["trace.overhead_s"] = [
            statistics.median(traced_campaign)
            - statistics.median(untraced_campaign)
        ]
        layers["trace.campaign_s"] = traced_campaign
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro package under {ROOT}/src; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; know "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:
        print(f"error: seed must be non-negative, got {seed}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)

    started = time.monotonic()
    # The build: byte-compile the package once, so no repetition pays it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src")],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    with open(PINS) as handle:
        pins = json.load(handle).get(workload.name, {})
    results_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{workload.name}-seed{seed}-trace{args.trace}")
    work_root = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(dir=work_root)
    try:
        run = measure(workload, seed, args.seconds, traced, pins,
                      stem + ".spans.jsonl", work, started + DEADLINE_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [rep for rep in run.reps if not rep["traced"]]
    samples = {
        "campaign_s": [rep["campaign_s"] for rep in untraced],
        "trials_per_s": [rep["journal"]["trials"] / rep["campaign_s"]
                         for rep in untraced],
        "setup_s": run.setups + [rep["setup_s"] for rep in run.reps],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in untraced],
    }
    layers = layer_samples(run, samples["campaign_s"])
    reported, units = (layers, PER_LAYER_UNITS) if traced else (samples, END_TO_END)
    metrics = {
        name: {"value": statistics.median(reported[name]), "unit": unit}
        for name, unit in units.items() if reported.get(name)
    }

    correct = not run.problems and bool(run.reps)
    failed_share = run.failed / max(run.attempted, 1)
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "questions": sorted({rep["question"] for rep in run.reps}),
        "host": host_record(),
        "repetitions": len(run.reps),
        "setup_probes": len(run.setups),
        "wall_s": time.monotonic() - started,
        "failed_share": failed_share,
        "check": f"ok ({run.digest_check})" if correct else run.problems,
        "samples": {name: quartiles(values) for name, values in
                    {**samples, **layers}.items() if values},
    }
    if traced:
        record["note"] = (
            "service workload: trials run in worker processes, whose "
            "layer times are summed over the workers that ran in "
            "parallel; the spans file holds the parent's spans only"
            if workload.service else
            "per-layer self times from the traced campaigns; "
            "trace.overhead_s = traced - untraced campaign_s"
        )

    print(f"workload {workload.name}  seed {seed} (questions "
          f"{record['questions']})  trace {args.trace}  repetitions "
          f"{len(run.reps)}  setup probes {len(run.setups)}")
    shown = {**metrics, "failed_share": {"value": failed_share, "unit": "share"}}
    for name, metric in shown.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    if correct:
        verdict = f"ok ({run.digest_check})"
    else:
        verdict = "FAILED: " + "; ".join(run.problems)
    print(f"output check: {verdict}")
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }
    with open(stem + ".json", "w") as handle:
        json.dump({"record": record, "result": result}, handle, indent=2)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
