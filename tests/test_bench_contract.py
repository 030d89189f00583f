"""The benchmark's traced run still measures every layer it promises.

``perfbench/run.py --trace 1`` reports a layer as null when a workload that
``layers.json`` lists under the layer's ``called_on`` records no work in it,
or when the layer's function is gone.  A refactor that re-routes a call
around a traced function breaks that run without breaking any answer, so
each workload's worker is run here for a few traced ops.  A subprocess is
used because the tracer rebinds featmatch's module globals for good.
"""

import json
import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

with open(os.path.join(PERFBENCH, "layers.json")) as fh:
    LAYERS = json.load(fh)["layers"]

WORKLOADS = ["ratio-n5", "audit-n4", "grid-200", "estimate-3f"]


def traced_result(workload: str) -> dict:
    # one BLAS thread, as run.py gives its workers; no bytecode cache is written under perfbench/
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, os.path.join(PERFBENCH, "worker.py"), "--workload", workload, "--seed", "0",
            "--seconds", "0.1", "--fixed", "--trace", "1"]
    done = subprocess.run(argv, input="go\n", capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stdout.splitlines() if line.startswith("RESULT ")]
    assert len(lines) == 1, done.stdout + done.stderr
    return json.loads(lines[0][len("RESULT "):])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_worker_measures_every_promised_layer(workload):
    result = traced_result(workload)
    assert result["trace"]["missing"] == []
    assert result["failed"] == 0 and result["warmup_failed"] == 0  # digests match refs/
    spans, counts = result["trace"]["spans"], result["trace"]["counts"]
    setup_spans = result["setup_trace"]["spans"]
    for row in LAYERS:
        layer = row["layer"]
        if workload not in row["called_on"]:
            continue
        if layer == "instances.gen_random":  # inputs are generated during set-up
            work = setup_spans[layer][0]
        elif layer in spans:
            work = spans[layer][0]
        else:
            work = counts[f"{layer}.{row['metrics'][0]}"]
        assert work > 0, layer
