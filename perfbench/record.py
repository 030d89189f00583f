#!/usr/bin/env python3
"""Record the reference digests that ``run.py`` checks every op against.

    python3 perfbench/record.py [--workload NAME ...]

Writes ``perfbench/refs/<workload>.json``: the digests of the warm-up ops and
of the first N timed ops of seeds 0 and 1.  Seed 0 is ``run.py``'s default;
seed 1 is held out, for confirming a claim on a seed not used while the
change was written.  N is three times the ops a run of ``run_seconds`` makes
at the workload's nominal rate, so faster code is still checked over a whole
run.  Re-record only at a commit whose results are known good: the
references pin exact values bit for bit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from worker import WARMUP_OPS  # noqa: E402

RECORDED_SEEDS = (0, 1)


def digests(name: str, stream: str, seed: int, count: int) -> list[str]:
    make_input, run_op, _ = workloads.WORKLOADS[name]
    out = []
    for i in range(count):
        op_seed = workloads.op_seed(name, stream, seed, i)
        problems, payload = run_op(make_input(op_seed), op_seed)
        if problems:
            raise SystemExit(f"{name} {stream} seed {seed} op {i} fails its invariants: {problems}")
        out.append(workloads.digest(payload))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    os.makedirs(os.path.join(HERE, "refs"), exist_ok=True)
    for name in args.workload or list(workloads.WORKLOADS):
        count = math.ceil(3 * run_seconds * workloads.WORKLOADS[name][2])
        doc = {
            "ops_per_seed": count,
            "warmup": digests(name, "warmup", 0, WARMUP_OPS),
            "timed": {str(seed): digests(name, "timed", seed, count) for seed in RECORDED_SEEDS},
        }
        with open(os.path.join(HERE, "refs", f"{name}.json"), "w") as fh:
            json.dump(doc, fh, indent=0)
            fh.write("\n")
        print(f"{name}: {count} ops x seeds {list(RECORDED_SEEDS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
