"""The four benchmark workloads.

Each workload turns an op seed into serialized instance JSON (``make_input``)
and runs one op on that text (``run_op``).  An op returns its outcome:
a list of invariant violations (empty when every check holds) and a digest
payload of every matching, every exact Fraction (as its string) and every
estimate (as ``float.hex``), which ``digest`` reduces to 16 hex digits.

Only names exported from ``featmatch`` and ``featmatch.oracle.improvement_scan``
are used, and they are looked up on the module at call time, so the
benchmark's timing wrappers, installed after import, see every call.
"""

from __future__ import annotations

import functools
import hashlib
import json
from fractions import Fraction

import featmatch as fm
import featmatch.oracle

GRID_POINTS = 200
ESTIMATE_GDA_SAMPLES = 20_000
ESTIMATE_PROS_SAMPLES = 200_000


def op_seed(workload: str, stream: str, seed: int, index: int) -> int:
    """Seed of op ``index`` in a stream.  Timed ops use stream "timed" keyed
    on the run seed; warm-up ops use stream "warmup" with seed 0, so the two
    never share an instance and warm-up work does not vary with the run seed."""
    text = f"{workload}:{stream}:{seed}:{index}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 2


def digest(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _assignment(matching) -> list:
    return list(matching.assignment)


def _exact(value) -> str:
    if not isinstance(value, Fraction):
        raise TypeError(f"expected an exact Fraction, got {value!r}")
    return str(value)


# -- ratio-n5: the paper's experiment trial ---------------------------------


def ratio_input(seed: int) -> str:
    inst = fm.gen_random(5, 5, capacities="ones", num_features=2, seed=seed)
    return fm.serialize_instance(inst, indent=None)


def ratio_op(text: str, seed: int):
    inst = fm.parse_instance(text)
    opt = fm.optimal_pros(inst)
    best = opt.best_pros.value
    herf_floor = Fraction(1, inst.n**inst.n)
    problems = []
    payload = [_assignment(opt.best_matching), _exact(best), opt.matchings_examined]
    for rule in fm.Strategy:
        matching, _ = fm.run_gda(inst, rule)
        value = fm.pros_exact(inst, matching).value
        ratio = Fraction(1) if best == 0 else value / best
        if ratio > 1:
            problems.append(f"{rule.value} ratio {ratio} > 1")
        if rule is fm.Strategy.HERF and ratio < herf_floor:
            problems.append(f"herf ratio {ratio} < (1/n)^n")
        payload.append([rule.value, _assignment(matching), _exact(value)])
    return problems, payload


# -- audit-n4: criterion 10's incentive scan ---------------------------------


def audit_input(seed: int) -> str:
    inst = fm.gen_random(4, 4, capacities="ones", num_features=2, seed=seed)
    return fm.serialize_instance(inst, indent=None)


def audit_op(text: str, seed: int):
    inst = fm.parse_instance(text)
    half = Fraction(1, 2)
    problems = []
    payload = []
    for rule in fm.Strategy:
        tried, improvements = featmatch.oracle.improvement_scan(inst, rule)
        for s, label, prob in improvements:
            if prob == 1:
                problems.append(f"{rule.value}: student {s} gains surely by {label}")
            if rule in (fm.Strategy.LOICV, fm.Strategy.HEUF) and prob > half:
                problems.append(f"{rule.value}: student {s} gains w.p. {prob} > 1/2 by {label}")
        payload.append([rule.value, tried, [[s, label, _exact(p)] for s, label, p in improvements]])
    return problems, payload


# -- grid-200: exact evaluators on criterion 8's midpoint grid ---------------


@functools.cache
def _grid():
    """Criterion 8's equiprobable midpoint grid on the first feature's weight."""
    points = GRID_POINTS
    return fm.DiscreteWeights(
        tuple(
            ((Fraction(2 * i + 1, 2 * points), 1 - Fraction(2 * i + 1, 2 * points)), Fraction(1, points))
            for i in range(points)
        )
    )


def grid_input(seed: int) -> str:
    base = fm.gen_random(4, 4, capacities="ones", num_features=2, seed=seed)
    inst = fm.Instance(
        students=base.students,
        colleges=base.colleges,
        capacities=base.capacities,
        college_prefs=base.college_prefs,
        features=base.features,
        utilities=base.utilities,
        weight_dists=tuple(_grid() for _ in range(base.n)),
    )
    return fm.serialize_instance(inst, indent=None)


def grid_op(text: str, seed: int):
    inst = fm.parse_instance(text)
    problems = []
    payload = []
    for rule in fm.Strategy:
        matching, _ = fm.run_gda(inst, rule)
        discrete = fm.pros_exact_discrete(inst, matching).value
        interval = fm.pros_exact_2f(inst, matching).value
        if discrete != interval:
            problems.append(f"{rule.value}: pros_exact_discrete {discrete} != pros_exact_2f {interval}")
        payload.append([rule.value, _assignment(matching), _exact(discrete), _exact(interval)])
    return problems, payload


# -- estimate-3f: the seeded Monte Carlo path --------------------------------


def estimate_input(seed: int) -> str:
    inst = fm.gen_random(4, 4, capacities="ones", num_features=3, seed=seed)
    return fm.serialize_instance(inst, indent=None)


def estimate_op(text: str, seed: int):
    inst = fm.parse_instance(text)
    problems = []
    payload = []
    for rule in fm.Strategy:
        matching, _ = fm.run_gda(inst, rule, samples=ESTIMATE_GDA_SAMPLES, seed=seed)
        payload.append([rule.value, _assignment(matching)])
    # the last rule's (HERF's) matching
    est = fm.pros_monte_carlo(inst, matching, samples=ESTIMATE_PROS_SAMPLES, seed=seed)
    if not 0.0 <= est.value <= 1.0:
        problems.append(f"estimate {est.value} outside [0, 1]")
    if not est.stderr >= 0.0:
        problems.append(f"stderr {est.stderr} < 0")
    payload.append([float(est.value).hex(), float(est.stderr).hex()])
    return problems, payload


# name -> (make_input, run_op, nominal ops per second).  The nominal rate is
# roughly what a 2-core x86 box does at the commit that added the benchmark;
# it sizes the traced run's op count and the recorded references, and must
# stay fixed so that traced counts stay comparable.
WORKLOADS = {
    "ratio-n5": (ratio_input, ratio_op, 3.0),
    "audit-n4": (audit_input, audit_op, 2.7),
    "grid-200": (grid_input, grid_op, 2.2),
    "estimate-3f": (estimate_input, estimate_op, 4.5),
}
