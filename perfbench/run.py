#!/usr/bin/env python3
"""Benchmark for featmatch: four seeded workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ratio-n5 --seed 0 --seconds 25 --trace 0

Every op starts from serialized instance JSON and goes through featmatch's
public API.  Each worker is a fresh interpreter with the source tree's
``src`` on its path, so ``prob``'s caches start cold as they do for a CLI
user, and BLAS is capped at one thread so the load is one process.

``--trace 0`` measures with tracing off.  Set-up (interpreter start,
``import featmatch``, generating and serializing the inputs, warm-up) is
timed in five fresh workers and reported as their median; set-up generates
only the warm-up input and the first timed input.  The last worker then runs
ops back to back, one client in a closed loop, for ``--seconds`` of wall
time; generating the later inputs and checking outputs is left out of that
time.  Reported: ops_per_s (correct ops over that wall time), op_p50_ms,
op_tail_ms, setup_s and peak_rss_mb.

``--trace 1`` runs a fixed number of ops twice, in two fresh workers: once
untraced and once with timing wrappers around each layer's functions
(``tracer.py``).  It reports every per-layer metric in ``layers.json`` plus
the tracing overhead and the share of traced op time spent in the layers
predicted to dominate the workload.

Every op's invariants are checked, and its digest is compared with the
reference in ``refs/`` when one was recorded for the seed (``record.py``).
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it describe the run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0
TAIL_BEYOND = 10  # op_tail_ms is the highest percentile with this many ops beyond it


class BenchError(RuntimeError):
    pass


class Worker:
    """A worker process; killed and waited for on exit from the block."""

    def __init__(self, args: argparse.Namespace, deadline: float, extra: list[str]):
        env = dict(os.environ)
        env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
        argv = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv + extra, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
        )
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.proc.kill)
        self.timer.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def expect(self, tag: str) -> dict:
        for line in self.proc.stdout:
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1 :])
        raise BenchError(f"worker ended without a {tag} line (exit code {self.proc.wait()})")

    def ready(self) -> tuple[dict, float]:
        """Wait for set-up to end; return the worker's description and the
        set-up time, from just before the process was started."""
        ready = self.expect("READY")
        return ready, time.perf_counter() - self.start

    def send(self, word: str) -> None:
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()

    def finish(self) -> None:
        self.proc.stdin.close()
        code = self.proc.wait()
        if code != 0:
            raise BenchError(f"worker exited with code {code}")


def setup_sample(args, deadline) -> float:
    with Worker(args, deadline, ["--seconds", str(args.seconds)]) as worker:
        _, setup = worker.ready()
        worker.send("exit")
        worker.finish()
    return setup


def measured_run(args, deadline, extra) -> tuple[float, dict, dict]:
    with Worker(args, deadline, extra) as worker:
        ready, setup = worker.ready()
        worker.send("go")
        result = worker.expect("RESULT")
        worker.finish()
    return setup, ready, result


def git_state() -> dict:
    def git(*cmd):
        try:
            out = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {"git_sha": sha.strip() if sha else None, "git_dirty": bool(status.strip()) if status is not None else None}


def header(args, ready: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **git_state(),
        **ready,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def end_to_end(args, deadline) -> dict:
    setups = [setup_sample(args, deadline) for _ in range(SETUP_SAMPLES - 1)]
    setup, ready, result = measured_run(args, deadline, ["--seconds", str(args.seconds)])
    setups.append(setup)
    print(json.dumps({"header": header(args, ready)}))

    latencies = sorted(result["latencies"])
    n = len(latencies)
    failed = result["failed"]
    if n > TAIL_BEYOND:
        tail = latencies[n - TAIL_BEYOND - 1]
        tail_note = f"p{100 * (n - TAIL_BEYOND) / n:.1f} ({TAIL_BEYOND} of {n} ops beyond it)"
    else:
        tail = latencies[-1]
        tail_note = f"the maximum (only {n} ops, fewer than {TAIL_BEYOND + 1})"
    print(
        json.dumps(
            {
                "ops": n,
                "failed_frac": failed / n,
                "warmup_failed": result["warmup_failed"],
                "digest_checked": result["digest_checked"],
                "op_tail_ms": tail_note,
                "setup_samples_s": setups,
            }
        )
    )
    return {
        "correct": failed == 0 and result["warmup_failed"] == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {
            "ops_per_s": {"value": (n - failed) / result["wall_s"], "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1000, "unit": "ms"},
            "op_tail_ms": {"value": tail * 1000, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        },
    }


SPAN_FIELDS = {"calls": (0, "count"), "s": (1, "s"), "self_s": (2, "s")}


def per_layer(args, deadline) -> dict:
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)
    fixed = ["--seconds", str(args.seconds / 2), "--fixed"]
    _, ready, plain = measured_run(args, deadline, fixed)
    _, _, traced = measured_run(args, deadline, fixed + ["--trace", "1"])
    print(json.dumps({"header": header(args, ready)}))

    spans = traced["trace"]["spans"]
    counts = traced["trace"]["counts"]
    setup_spans = traced["setup_trace"]["spans"]
    wall = traced["wall_s"]
    metrics = {}
    unmeasured = []
    for row in layers["layers"]:
        layer = row["layer"]
        if layer == "trace":
            continue
        span = (setup_spans if layer == "instances.gen_random" else spans).get(layer)
        work = span[0] if span is not None else counts.get(f"{layer}.{row['metrics'][0]}")
        measured = work is not None and (work > 0 or args.workload not in row["called_on"])
        if not measured:
            unmeasured.append(layer)
        for metric in row["metrics"]:
            if metric in SPAN_FIELDS:
                index, unit = SPAN_FIELDS[metric]
                value = span[index] if span is not None else None
            else:
                value, unit = counts.get(f"{layer}.{metric}"), "count"
            metrics[f"{layer}.{metric}"] = {"value": value if measured else None, "unit": unit}

    overhead = wall / plain["wall_s"] - 1
    predicted = layers["dominant"][args.workload]
    found = [name for name in predicted if name in spans]
    share = sum(spans[name][1] for name in found) / sum(traced["latencies"]) if found else None
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    metrics["trace.dominant_share"] = {"value": share, "unit": "frac"}
    if share is None:
        verdict = "unmeasured"
    else:
        verdict = "confirmed" if share > 0.5 else "not confirmed"
    print(
        json.dumps(
            {
                "ops": len(traced["latencies"]),
                "untraced_wall_s": plain["wall_s"],
                "traced_wall_s": wall,
                "digest_checked": plain["digest_checked"] + traced["digest_checked"],
                "unmeasured_layers": unmeasured,
                "unwrapped_functions": traced["trace"]["missing"],
                "dominant": {"predicted": predicted, "share_of_op_time": share, "verdict": verdict},
                "self_s_by_layer": {name: span[2] for name, span in spans.items()},
            }
        )
    )
    failed = plain["failed"] + traced["failed"]
    return {
        "correct": failed == 0 and plain["warmup_failed"] == 0 and traced["warmup_failed"] == 0,
        "attempted": len(plain["latencies"]) + len(traced["latencies"]),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S
    try:
        result = per_layer(args, deadline) if args.trace else end_to_end(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
