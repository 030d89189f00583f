"""One benchmark process for one workload.

Set-up generates and serializes the warm-up input and the first timed
input and runs the warm-up ops, then prints a ``READY`` line and waits on
stdin.  ``exit`` ends the process there (a set-up sample); ``go`` runs timed
ops one after another until the loop's wall time reaches ``--seconds`` (with
``--fixed``: a count of ops equal to ``--seconds`` times the workload's
nominal rate) and prints a ``RESULT`` line.  The loop's wall time leaves out
generating the later inputs and checking each op's output: its invariants
and, where a reference was recorded, its digest.

``run.py`` drives this file; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFS = os.path.join(HERE, "refs")
WARMUP_OPS = 1
MAX_REPORTED_PROBLEMS = 5


def load_refs(workload: str, seed: int) -> tuple[list, list]:
    """Recorded digests: (warm-up ops, timed ops of this seed); empty when
    no reference exists for the seed."""
    path = os.path.join(REFS, f"{workload}.json")
    if not os.path.exists(path):
        return [], []
    with open(path) as fh:
        doc = json.load(fh)
    return doc["warmup"], doc["timed"].get(str(seed), [])


class Checker:
    """Counts the ops whose outcome breaks an invariant, raised, or differs
    from its recorded digest, and reports the first few on stderr."""

    def __init__(self, digest, expected: list, label: str):
        self.digest = digest
        self.expected = expected
        self.label = label
        self.checked = 0
        self.failed = 0

    def check(self, index: int, outcome) -> None:
        if outcome is None:
            problems = ["raised"]
        else:
            problems, payload = outcome
            if index < len(self.expected):
                self.checked += 1
                got = self.digest(payload)
                if got != self.expected[index]:
                    problems = problems + [f"digest {got} != reference {self.expected[index]}"]
        if problems:
            self.failed += 1
            if self.failed <= MAX_REPORTED_PROBLEMS:
                print(f"{self.label} op {index} failed: {'; '.join(problems)}", file=sys.stderr)


def run_one(run_op, seed, text):
    """Run one op; an exception is the op's failure, not the process's."""
    start = perf_counter()
    try:
        outcome = run_op(text, seed)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        outcome = None
    return perf_counter() - start, outcome


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--fixed", action="store_true", help="run a fixed op count: seconds x nominal rate")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import featmatch

    if not os.path.realpath(featmatch.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"featmatch imported from {featmatch.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import numpy
    import scipy
    import workloads

    make_input, run_op, nominal_rate = workloads.WORKLOADS[args.workload]
    warm_refs, timed_refs = load_refs(args.workload, args.seed)

    def make(stream, seed, index):
        op_seed = workloads.op_seed(args.workload, stream, seed, index)
        return op_seed, make_input(op_seed)

    fixed_ops = max(1, round(args.seconds * nominal_rate)) if args.fixed else None
    warm = [make("warmup", 0, i) for i in range(WARMUP_OPS)]
    first = make("timed", args.seed, 0)
    warm_checker = Checker(workloads.digest, warm_refs, "warm-up")
    for i, (op_seed, text) in enumerate(warm):
        warm_checker.check(i, run_one(run_op, op_seed, text)[1])
    setup_trace = tracer.snapshot() if tracer else None
    if tracer:
        tracer.reset()

    ready = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "FEATMATCH_BACKEND": os.environ.get("FEATMATCH_BACKEND"),
    }
    print("READY " + json.dumps(ready), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    checker = Checker(workloads.digest, timed_refs, "timed")
    latencies = []
    left_out = 0.0  # time spent generating inputs and checking outputs
    i = 0
    start = perf_counter()
    while (perf_counter() - start - left_out < args.seconds) if fixed_ops is None else (i < fixed_ops):
        mark = perf_counter()
        op_seed, text = first if i == 0 else make("timed", args.seed, i)
        left_out += perf_counter() - mark
        elapsed, outcome = run_one(run_op, op_seed, text)
        latencies.append(elapsed)
        mark = perf_counter()
        checker.check(i, outcome)
        left_out += perf_counter() - mark
        i += 1
    wall = perf_counter() - start - left_out

    result = {
        "latencies": latencies,
        "failed": checker.failed,
        "warmup_failed": warm_checker.failed,
        "digest_checked": checker.checked + warm_checker.checked,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_trace": setup_trace,
        "trace": tracer.snapshot() if tracer else None,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
