"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with its measured evidence.  Tolerances are pinned here and
nowhere else; exact criteria use rational equality."""

import time
from fractions import Fraction as F

import numpy as np

from featmatch.gda import Strategy, run_gda
from featmatch.instances import gen_random, herf_tight, non_transitive, vanishing_ratio, worked_example
from featmatch.model import DiscreteWeights, Instance
from featmatch.oracle import approx_ratio, check_transitivity, improvement_scan, optimal_pros
from featmatch.prob import (
    pr_prefers,
    pr_top,
    pros_exact_2f,
    pros_exact_discrete,
    pros_monte_carlo,
)
from featmatch.instances import reduce_to_uniform

from helpers import (
    induced_strict_prefs,
    point_mass_instance,
    reference_da,
    triangle_quadrature_strict,
)


def _report(num: int, detail: str):
    print(f"criterion {num}: PASS - {detail}")


class Stopwatch:
    def __init__(self, budget_s: float):
        self.budget = budget_s
        self.t0 = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.budget, f"budget {self.budget}s exceeded: {elapsed:.1f}s"
        return elapsed


def test_criterion_1_example1_instance1():
    watch = Stopwatch(1.0)
    inst = worked_example(1)
    locv, _ = run_gda(inst, Strategy.LOCV)
    assert locv.to_ids(inst) == {"s1": "c3", "s2": "c1", "s3": "c2"}
    assert pros_exact_2f(inst, locv).value == F(2, 11)
    for strategy in (Strategy.LOICV, Strategy.HEUF, Strategy.HERF):
        m, _ = run_gda(inst, strategy)
        assert m.to_ids(inst) == {"s1": "c1", "s2": "c3", "s3": "c2"}
        assert pros_exact_2f(inst, m).value == F(1)
    elapsed = watch.check()
    _report(1, f"locv 2/11, others 1, {elapsed:.3f}s")


def test_criterion_2_example1_instance2():
    watch = Stopwatch(1.0)
    inst = worked_example(2)
    locv, _ = run_gda(inst, Strategy.LOCV)
    assert pros_exact_2f(inst, locv).value == F(1)
    for strategy in (Strategy.LOICV, Strategy.HEUF, Strategy.HERF):
        m, _ = run_gda(inst, strategy)
        assert m.to_ids(inst) == {"s1": "c2", "s2": "c1", "s3": "c3"}
        assert pros_exact_2f(inst, m).value == F(3, 4)
    elapsed = watch.check()
    _report(2, f"locv 1, others 3/4, {elapsed:.3f}s")


def test_criterion_3_example1_instance3():
    watch = Stopwatch(1.0)
    inst = worked_example(3)
    assert pr_prefers(inst, 2, 2, 0, strict=False) == F(7, 12)
    assert pr_prefers(inst, 2, 2, 1, strict=False) == F(3, 5)
    assert pr_top(inst, 2, 2, range(3)) == F(11, 60)
    values = {}
    for strategy in Strategy:
        m, _ = run_gda(inst, strategy)
        values[strategy] = pros_exact_2f(inst, m).value
    assert values[Strategy.LOCV] == values[Strategy.HERF] == F(8, 17)
    assert values[Strategy.LOICV] == values[Strategy.HEUF] == F(9, 17)
    elapsed = watch.check()
    _report(3, f"pairwise 7/12 & 3/5, top 11/60, pros 8/17 & 9/17, {elapsed:.3f}s")


def test_criterion_4_vanishing_ratio_family():
    watch = Stopwatch(5.0)
    d = F(1, 10)
    e = F(1, 1000)
    inst = vanishing_ratio(d, e)
    want_alg = e * (d + 2 * e) / ((d + e) * (d + 3 * e))
    want_opt = (d + 2 * e) / (2 * d + 6 * e)
    for strategy in (Strategy.HEUF, Strategy.LOCV, Strategy.LOICV):
        m, _ = run_gda(inst, strategy)
        assert pros_exact_2f(inst, m).value == want_alg
    opt = optimal_pros(inst)
    assert opt.best_pros.value == want_opt
    assert approx_ratio(inst, Strategy.LOCV) == 2 * e / (d + e)
    ratios = []
    for eps in (F(1, 10**3), F(1, 10**4), F(1, 10**5)):
        ratios.append(approx_ratio(vanishing_ratio(d, eps), Strategy.LOCV))
        assert ratios[-1] == 2 * eps / (d + eps)
    assert ratios[0] > ratios[1] > ratios[2]
    elapsed = watch.check()
    _report(4, f"ratio 2/101 exactly, sweep {[str(r) for r in ratios]}, {elapsed:.3f}s")


def test_criterion_5_herf_tightness_family():
    watch = Stopwatch(5.0)
    d, e = F(1, 10), F(1, 10**6)
    inst = herf_tight(3, d, e)
    m, _ = run_gda(inst, Strategy.HERF)
    assert all(m.college_of(s) == s for s in range(3))
    want = (F(1, 3) + 2 * e / (3 * d)) ** 3
    assert pros_exact_2f(inst, m).value == want
    opt = optimal_pros(inst)
    assert opt.best_pros.value == F(1)
    ratio = approx_ratio(inst, Strategy.HERF)
    assert ratio == want
    assert abs(float(ratio) - (1 / 3) ** 3) < 1e-4
    elapsed = watch.check()
    _report(5, f"herf pros {want} vs optimal 1, {elapsed:.3f}s")


def test_criterion_6_herf_ratio_bound():
    watch = Stopwatch(300.0)
    violations = 0
    count = 0
    for i in range(250):
        for n in (3, 4):
            inst = gen_random(n, n, seed=10_000 + i)
            count += 1
            if approx_ratio(inst, Strategy.HERF) < F(1, n) ** n:
                violations += 1
    assert count >= 500
    assert violations == 0
    elapsed = watch.check()
    _report(6, f"{count} instances, 0 ratio-bound violations, {elapsed:.1f}s")


def test_criterion_7_monte_carlo_consistency():
    watch = Stopwatch(120.0)
    misses = 0
    for i in range(50):
        n = 3 + (i % 2)
        inst = gen_random(n, n, seed=20_000 + i)
        strategy = list(Strategy)[i % 4]
        matching, _ = run_gda(inst, strategy)
        exact = float(pros_exact_2f(inst, matching).value)
        est = pros_monte_carlo(inst, matching, samples=100_000, seed=777 + i)
        if abs(float(est.value) - exact) > max(3 * est.stderr, 0.01):
            misses += 1
    assert misses <= 1
    elapsed = watch.check()
    _report(7, f"50 instances, {misses} outside max(3*stderr, 0.01), {elapsed:.1f}s")


def _grid_weights(points: int) -> DiscreteWeights:
    """A midpoint grid of `points` equiprobable atoms on the first feature's weight."""
    return DiscreteWeights(
        tuple(
            ((F(2 * i + 1, 2 * points), 1 - F(2 * i + 1, 2 * points)), F(1, points))
            for i in range(points)
        )
    )


def _with_grid_weights(inst: Instance, grid: DiscreteWeights) -> Instance:
    """Replace every flat two-feature weight distribution with the grid."""
    return Instance(
        students=inst.students,
        colleges=inst.colleges,
        capacities=inst.capacities,
        college_prefs=inst.college_prefs,
        features=inst.features,
        utilities=inst.utilities,
        weight_dists=tuple(grid for _ in range(inst.n)),
    )


def test_criterion_8_oracle_equivalence():
    watch = Stopwatch(120.0)
    grid = _grid_weights(10_000)
    worst = 0.0
    for i in range(100):
        n = 3 + (i % 2)
        inst = gen_random(n, n, seed=30_000 + i)
        matching, _ = run_gda(inst, list(Strategy)[i % 4])
        exact = pros_exact_2f(inst, matching).value
        gridded = pros_exact_discrete(_with_grid_weights(inst, grid), matching).value
        worst = max(worst, abs(float(exact - gridded)))
    assert worst <= 2e-4

    mismatches = 0
    for i in range(100):
        n = 3 + (i % 2)
        inst = gen_random(n, n, dist_kind="discrete", seed=40_000 + i)
        matching, _ = run_gda(inst, list(Strategy)[i % 4])
        if pros_exact_2f(inst, matching).value != pros_exact_discrete(inst, matching).value:
            mismatches += 1
    assert mismatches == 0
    elapsed = watch.check()
    _report(8, f"grid worst error {worst:.2e} <= 2e-4; discrete exact on 100/100, {elapsed:.1f}s")


def test_criterion_9_transitivity():
    watch = Stopwatch(120.0)
    rng = np.random.default_rng(5)
    violating = 0
    for i in range(1000):
        n, m = int(rng.integers(2, 5)), int(rng.integers(3, 5))
        inst = gen_random(n, m, seed=50_000 + i)
        for s in range(inst.n):
            if check_transitivity(inst, s) is not None:
                violating += 1
    assert violating == 0

    nt = non_transitive()
    triple = check_transitivity(nt, 0, samples=100_000, seed=42)
    assert triple == (0, 1, 2)
    p12 = pr_prefers(nt, 0, 0, 1, strict=True, samples=100_000, seed=42)
    p23 = pr_prefers(nt, 0, 1, 2, strict=True, samples=100_000, seed=42)
    p13 = pr_prefers(nt, 0, 0, 2, strict=True, samples=100_000, seed=42)
    assert p12 > 0.5 and p23 > 0.5 and p13 < 0.5
    q12 = triangle_quadrature_strict(nt, 0, 0, 1)
    q23 = triangle_quadrature_strict(nt, 0, 1, 2)
    q13 = triangle_quadrature_strict(nt, 0, 0, 2)
    assert q12 > 0.5 and q23 > 0.5 and q13 < 0.5
    assert abs(q12 - p12) < 0.01 and abs(q23 - p23) < 0.01 and abs(q13 - p13) < 0.01
    elapsed = watch.check()
    _report(
        9,
        f"1000 two-feature instances clean; witness {p12:.3f}/{p23:.3f}/{p13:.3f} "
        f"vs quadrature {q12:.3f}/{q23:.3f}/{q13:.3f}, {elapsed:.1f}s",
    )


def test_criterion_10_incentive_audits():
    watch = Stopwatch(600.0)
    rng = np.random.default_rng(11)
    half = F(1, 2)
    icc_violations = icr_violations = 0
    for i in range(1000):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        inst = gen_random(n, m, seed=70_000 + i)
        for strategy in Strategy:
            _, improvements = improvement_scan(inst, strategy)
            if any(p == 1 for _, _, p in improvements):
                icc_violations += 1
            if strategy in (Strategy.LOICV, Strategy.HEUF) and any(
                p > half for _, _, p in improvements
            ):
                icr_violations += 1
    assert icc_violations == 0
    assert icr_violations == 0

    # mean != median: a skewed two-feature beta family admits an ic-r breach
    found = None
    for seed in range(50):
        inst = gen_random(3, 3, dist_kind=("beta2", 2.0, 5.0), seed=seed)
        _, improvements = improvement_scan(inst, Strategy.HEUF)
        hits = [(s, label, p) for s, label, p in improvements if p > half]
        if hits:
            found = (seed, hits[0])
            break
    assert found is not None
    elapsed = watch.check()
    _report(
        10,
        f"1000 instances: 0 ic-c (all strategies), 0 ic-r (loicv, heuf-uniform); "
        f"beta(2,5) heuf violation at seed {found[0]} with prob {float(found[1][2]):.3f}, {elapsed:.1f}s",
    )


def test_criterion_11_uniform_equivalence_transform():
    watch = Stopwatch(60.0)
    rng = np.random.default_rng(21)
    alphas = [0.5, 1.0, 1.5, 2.0, 3.0, 5.0]
    for i in range(100):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a = float(alphas[int(rng.integers(0, len(alphas)))])
        base = gen_random(n, m, dist_kind=("beta2", a, a), seed=80_000 + i)
        cur = base
        for s in range(n):
            res = reduce_to_uniform(cur, s)
            assert res.a == F(1, 2)
            cur = res.instance
        for s in range(n):
            assert base.utilities[s] == cur.utilities[s]  # difference signs intact
            for c in range(m):
                from featmatch.prob import expected_utility

                assert abs(float(expected_utility(base, s, c)) - float(expected_utility(cur, s, c))) <= 1e-9
            for ci in range(m):
                for cj in range(m):
                    if ci == cj:
                        continue
                    before = float(pr_prefers(base, s, ci, cj, strict=False))
                    after = pr_prefers(cur, s, ci, cj, strict=False)
                    assert (before >= 0.5) == (after >= half_fraction())
        for strategy in (Strategy.HEUF, Strategy.LOICV):
            mb, _ = run_gda(base, strategy)
            ma, _ = run_gda(cur, strategy)
            assert mb.assignment == ma.assignment
    elapsed = watch.check()
    _report(11, f"100 symmetric-beta instances preserved under the rescaling, {elapsed:.1f}s")


def half_fraction():
    return F(1, 2)


def test_criterion_12_point_mass_degeneration():
    watch = Stopwatch(60.0)
    rng = np.random.default_rng(9)
    for i in range(1000):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        base = gen_random(n, m, capacities="spread" if i % 3 else "ones", seed=60_000 + i)
        inst = point_mass_instance(base, rng)
        want = reference_da(
            induced_strict_prefs(inst), [list(p) for p in inst.college_prefs], list(inst.capacities)
        )
        strategy = list(Strategy)[i % 4]
        got, _ = run_gda(inst, strategy)
        assert got.assignment == want
    elapsed = watch.check()
    _report(12, f"1000 point-mass instances match the textbook reference, {elapsed:.1f}s")
