"""Pin the trial-record digests the benchmark's output check compares to.

Usage (from the repository root)::

    python3 campaignbench/pin.py            # default, held-out and 0-10
    python3 campaignbench/pin.py --seeds 2005,0-20

For every workload and every question of each seed (the config seeds
``workloads.question_seeds`` gives) this runs the question through a
serial ``run_campaign`` (``rep.py --serial``) and stores the digest of
the journal's trial lines and their count, by config seed, in
``campaignbench/pins.json``, which it replaces once every pin is taken.
For ``service-arch-adaptive`` the pin is therefore the serial journal,
which the service's finalized journal must equal byte for byte.

Pins describe the journals of the commit they were taken on. Run this
only where journals are trusted; a change that alters journals on
purpose re-pins and says so.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

from run import BENCH_DIR, PINS, check_rep, run_rep
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, question_seeds

#: Per-campaign limit for a pinning run.
PIN_TIMEOUT_S = 600.0


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=f"{DEFAULT_SEED},{HELD_OUT_SEED},0-10",
                        help="comma-separated seeds or ranges, e.g. 2005,0-20")
    args = parser.parse_args(argv)

    pins: dict[str, dict] = {}
    work_root = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(dir=work_root)
    try:
        for name in WORKLOADS:
            for seed in (question for bench_seed in parse_seeds(args.seeds)
                         for question in question_seeds(bench_seed)):
                journal = run_rep(
                    name, seed, os.path.join(work, "pin"),
                    time.monotonic() + PIN_TIMEOUT_S, "--serial",
                )["journal"]
                problems = check_rep(journal, None)
                if problems:
                    print(f"{name} seed {seed}: not pinned: {problems}",
                          file=sys.stderr)
                    return 1
                pins.setdefault(name, {})[str(seed)] = {
                    "digest": journal["digest"], "trials": journal["trials"],
                }
                print(f"{name} seed {seed}: {journal['digest'][:16]} "
                      f"({journal['trials']} trials)", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(PINS, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
