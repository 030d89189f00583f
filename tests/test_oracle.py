import itertools
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featmatch import gda, oracle
from featmatch.gda import Strategy, run_gda
from featmatch.instances import (
    gen_random,
    golden_ratio,
    herf_tight,
    icr_conflict,
    non_transitive,
    vanishing_ratio,
    worked_example,
)
from featmatch.model import BetaWeights, Instance, Matching, UniformSimplex, ValidationError
from featmatch.oracle import (
    BudgetExceededError,
    audit_ic,
    approx_ratio,
    check_transitivity,
    count_matchings,
    enumerate_matchings,
    improvement_scan,
    optimal_pros,
)
from featmatch.prob import DEFAULT_SAMPLES, pros_exact_2f

from helpers import flat_optimum, full_rerun_scan, matchings_count_closed_form, order_misreports


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_matchings(gen_random(2, 2, seed=1))) == 7
    assert sum(1 for _ in enumerate_matchings(gen_random(1, 1, seed=1))) == 2
    assert sum(1 for _ in enumerate_matchings(gen_random(3, 3, seed=1))) == 34


@settings(max_examples=25)
@given(n=st.integers(1, 4), m=st.integers(1, 3))
def test_enumeration_matches_closed_form_and_is_duplicate_free(n, m):
    inst = gen_random(n, m, seed=n * 10 + m)
    seen = set()
    for matching in enumerate_matchings(inst):
        assert matching.assignment not in seen
        seen.add(matching.assignment)
        for c in range(m):
            assert len(matching.students_of(c)) <= inst.capacities[c]
    assert len(seen) == matchings_count_closed_form(n, m)


DIST_KINDS = ["uniform_simplex", "discrete", ("beta2", 2.0, 5.0)]


def _check_optimum(inst):
    """Branch and bound equals the flat search: same first best matching,
    same ProsResult, and every matching evaluated or pruned."""
    opt = optimal_pros(inst)
    best, best_result = flat_optimum(inst)
    assert opt.best_matching == best
    assert opt.best_pros == best_result
    assert type(opt.best_pros.value) is type(best_result.value)
    assert opt.matchings_examined == sum(1 for _ in enumerate_matchings(inst))
    assert opt.matchings_evaluated + opt.pruned == opt.matchings_examined
    return opt


@pytest.mark.parametrize("kind", DIST_KINDS)
def test_optimal_pros_matches_cold_brute_force(kind):
    # (5, 3) spreads capacities (2, 2, 1), so colleges hold several enrollees;
    # discrete weights also run with three features, on the atom-mask factor
    shapes = [(4, 4, "ones"), (5, 3, "spread")]
    for features in (2, 3) if kind == "discrete" else (2,):
        for (n, m, capacities), seed in itertools.product(shapes, (77, 78)):
            inst = gen_random(n, m, capacities=capacities, num_features=features, dist_kind=kind, seed=seed)
            opt = _check_optimum(inst)
            if capacities == "ones":
                assert opt.matchings_examined == matchings_count_closed_form(n, m)


@pytest.mark.parametrize("features", [2, 3])
def test_optimal_pros_with_tied_colleges(features):
    # every student values colleges 1 and 2 alike, so at every atom neither
    # strictly beats the other: a tie must not count as a block
    for seed in range(4):
        base = gen_random(4, 3, capacities="spread", num_features=features, dist_kind="discrete", seed=50 + seed)
        tied = tuple(tuple(row[:2] + row[1:2] for row in rows) for rows in base.utilities)
        _check_optimum(replace(base, utilities=tied))


def test_optimal_pros_mixed_exact_and_closed_form_students():
    # beta students among flat ones: leaf values are floats or, when every
    # beta student is unmatched with no blocker, exact; the bound covers both
    for seed in range(6):
        base = gen_random(4, 3, capacities="spread", seed=90 + seed)
        dists = list(base.weight_dists)
        dists[seed % 4] = BetaWeights(2.0, 5.0)
        dists[(seed + 1) % 4] = BetaWeights(0.5, 0.5)
        _check_optimum(replace(base, weight_dists=tuple(dists)))


@settings(max_examples=60)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 5),
    m=st.integers(1, 4),
    capacities=st.sampled_from(["ones", "spread"]),
    dist=st.sampled_from([(2, kind) for kind in DIST_KINDS] + [(2, ("beta2", 0.5, 0.5)), (3, "discrete")]),
)
def test_branch_and_bound_equals_flat_search(seed, n, m, capacities, dist):
    features, kind = dist
    _check_optimum(gen_random(n, m, capacities=capacities, num_features=features, dist_kind=kind, seed=seed))


@pytest.mark.parametrize("capacities", ["ones", "spread", (2, 1, 3)])
def test_matching_count_equals_enumeration(capacities):
    for n in range(1, 7):
        inst = gen_random(n, 3, capacities=capacities, seed=n)
        assert count_matchings(inst) == sum(1 for _ in enumerate_matchings(inst))


def test_branch_and_bound_prunes():
    # a silent fall-back to scoring every matching would evaluate all 1,546
    opt = optimal_pros(gen_random(5, 5, seed=2024))
    assert opt.matchings_examined == matchings_count_closed_form(5, 5) == 1546
    assert opt.matchings_evaluated + opt.pruned == opt.matchings_examined
    assert 0 < opt.matchings_evaluated < opt.matchings_examined // 4


def test_optimal_pros_rejects_instances_without_exact_evaluator():
    with pytest.raises(ValidationError, match="no exact stability evaluator"):
        optimal_pros(gen_random(3, 3, num_features=3, seed=5))
    with pytest.raises(BudgetExceededError, match="exceeds budget 10$"):  # the budget is checked first
        optimal_pros(gen_random(3, 3, num_features=3, seed=5), budget=10)


def test_enumeration_budget():
    inst = gen_random(5, 5, seed=2)
    with pytest.raises(BudgetExceededError):
        list(enumerate_matchings(inst, budget=100))


def test_optimal_goldens():
    ex1 = worked_example(1)
    opt = optimal_pros(ex1)
    assert opt.best_pros.value == 1
    assert opt.matchings_examined == 34
    assert opt.best_matching.to_ids(ex1) == {"s1": "c1", "s2": "c3", "s3": "c2"}

    d, e = F(1, 10), F(1, 1000)
    vr = vanishing_ratio(d, e)
    opt = optimal_pros(vr)
    assert opt.best_matching.to_ids(vr) == {"s1": "c3", "s2": "c1", "s3": "c2"}
    assert opt.best_pros.value == (d + 2 * e) / (2 * d + 6 * e)

    single = gen_random(1, 1, seed=3)
    opt = optimal_pros(single)
    assert opt.best_matching.assignment == (0,) and opt.best_pros.value == 1


def test_optimal_dominates_every_strategy():
    for seed in range(15):
        inst = gen_random(3, 3, seed=400 + seed)
        opt = optimal_pros(inst).best_pros.value
        for strategy in Strategy:
            m, _ = run_gda(inst, strategy)
            assert opt >= pros_exact_2f(inst, m).value


def test_approx_ratio_goldens():
    d, e = F(1, 10), F(1, 1000)
    assert approx_ratio(vanishing_ratio(d, e), Strategy.HEUF) == 2 * e / (d + e)
    assert approx_ratio(vanishing_ratio(d, e), Strategy.HEUF) == F(2, 101)

    ht = herf_tight(3, F(1, 10), F(1, 10**6))
    got = approx_ratio(ht, Strategy.HERF)
    assert got == (F(1, 3) + 2 * F(1, 10**6) / (3 * F(1, 10))) ** 3

    ex3 = worked_example(3)
    opt = optimal_pros(ex3).best_pros.value
    assert approx_ratio(ex3, Strategy.LOICV) == F(9, 17) / opt


def test_herf_ratio_lower_bound_spot():
    for seed in range(30):
        inst = gen_random(3, 3, seed=600 + seed)
        assert approx_ratio(inst, Strategy.HERF) >= F(1, 27)


def test_misreport_space_shape():
    inst = worked_example(1)
    space = list(order_misreports(inst))
    assert len(space) == 6
    labels = {label for label, _ in space}
    assert "c1>c2>c3" in labels and "c3>c2>c1" in labels
    for _, rows in space:
        assert rows[0] == rows[1]  # identical columns across features
        assert sorted(rows[0]) == [F(1, 3), F(2, 3), F(1)]


def test_audit_examples_clean():
    for which in (1, 2, 3):
        inst = worked_example(which)
        for strategy in Strategy:
            report = audit_ic(inst, strategy, level="ic-c")
            assert report.ok, (which, strategy, report.violations)
            # 3 students x (3! orders + own truthful report)
            assert report.misreports_tried == 3 * 7


def test_audit_icr_conflict_family():
    inst = icr_conflict()
    report = audit_ic(inst, Strategy.LOICV, level="ic-r")
    assert report.ok
    assert "evidence" in report.note


def test_truthful_replication_never_improves():
    # the truthful anchor is counted among the reports tried, and its outcome
    # is the truthful one, so it is never listed as an improvement
    inst = worked_example(1)
    for strategy in Strategy:
        tried, improvements = improvement_scan(inst, strategy)
        assert tried == inst.n * 7
        assert all(label != "truthful" for _, label, _ in improvements)


def test_menu_chain_can_return_to_the_probed_college():
    # Without i, x holds A and y holds B, and A ranks i above x: i clears
    # A's cutoff in the outcome without her.  Yet i proposing to A sends x
    # to B, which displaces y, and y returns to A and displaces i.  So A is
    # not in i's menu, and neither is B, which ranks y above i.
    half = F(1, 2)
    inst = Instance(
        students=("i", "x", "y"),
        colleges=("A", "B"),
        capacities=(1, 1),
        college_prefs=((2, 0, 1), (1, 2, 0)),  # A: y > i > x; B: x > y > i
        features=("f1", "f2"),
        utilities=(((F(1), half),) * 2, ((F(1), half),) * 2, ((half, F(1)),) * 2),
        weight_dists=(UniformSimplex(2),) * 3,
    )
    for rule in Strategy:
        assert oracle._menu(inst, rule, 0, DEFAULT_SAMPLES, None) == set()
        assert improvement_scan(inst, rule) == full_rerun_scan(inst, rule, {})


def test_unmatched_students_have_empty_menus():
    # a student ends unmatched only after every college has rejected her, and
    # her truthful outcome is the first college of her order in her menu, so
    # her menu is empty and the scan lists no gain for her
    families = [
        (2, "uniform_simplex", {}),
        (2, "discrete", {}),
        (2, ("beta2", 2.0, 5.0), {}),
        (3, "uniform_simplex", {"samples": 500, "seed": 11}),
    ]
    unmatched = 0
    for (k, dist, setting), m, extra in itertools.product(families, (2, 3, 4), (1, 2)):
        n = m + extra  # more students than seats
        inst = gen_random(n, m, num_features=k, dist_kind=dist, seed=10 * m + extra)
        samples, seed = setting.get("samples", DEFAULT_SAMPLES), setting.get("seed")
        for rule in Strategy:
            truthful, _ = run_gda(inst, rule, **setting)
            _, improvements = improvement_scan(inst, rule, **setting)
            for s in range(n):
                if truthful.college_of(s) is None:
                    unmatched += 1
                    assert oracle._menu(inst, rule, s, samples, seed) == set(), (k, dist, n, m, rule, s)
                    assert all(t != s for t, _, _ in improvements), (k, dist, n, m, rule, s)
    assert unmatched == 4 * 4 * sum(extra for _, extra in itertools.product((2, 3, 4), (1, 2)))


def test_improvement_scan_walks_once_per_student_and_college(monkeypatch):
    # the truthful run, one run without each student from the empty state,
    # and per student one resumed walk per college whose first round is hers
    # alone; only the truthful run records its rounds
    walks, rounds = Counter(), []
    walk, gda_round = gda._walk, gda.GdaRound

    def counted_walk(inst, strategy, orders, held, proposed, proposers, *args, **kwargs):
        walks[tuple(proposers), not any(held)] += 1
        return walk(inst, strategy, orders, held, proposed, proposers, *args, **kwargs)

    def counted_round(*args, **kwargs):
        rounds.append(1)
        return gda_round(*args, **kwargs)

    for seed, (n, m) in enumerate([(4, 4), (3, 4), (5, 3)]):
        inst = gen_random(n, m, capacities="spread" if seed % 2 else "ones", seed=seed)
        expected = Counter({(tuple(range(n)), True): 1})
        for s in range(n):
            expected[tuple(t for t in range(n) if t != s), True] += 1
            expected[(s,), False] += m
        for rule in Strategy:
            truthful_rounds = len(run_gda(replace(inst), rule)[1].rounds)
            with monkeypatch.context() as patch:
                patch.setattr(gda, "_walk", counted_walk)
                patch.setattr(oracle, "_walk", counted_walk)
                patch.setattr(gda, "GdaRound", counted_round)
                walks.clear()
                rounds.clear()
                improvement_scan(replace(inst), rule)
            assert walks == expected
            assert len(rounds) == truthful_rounds


def test_audit_budget():
    inst = gen_random(3, 3, seed=5)
    with pytest.raises(BudgetExceededError, match="misreport space too large"):
        audit_ic(inst, Strategy.HEUF, budget=2)


def test_audit_budget_is_checked_before_the_space_is_built():
    # 2 students x (9! + 1) reports: refused before any order is built or run
    inst = gen_random(2, 9, seed=1)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="misreport space too large"):
        audit_ic(inst, Strategy.HEUF)
    assert time.perf_counter() - start < 1.0


def test_audit_finds_beta_skew_heuf_violation():
    inst = gen_random(3, 3, dist_kind=("beta2", 2.0, 5.0), seed=0)
    report = audit_ic(inst, Strategy.HEUF, level="ic-r")
    assert not report.ok
    assert all(v.improvement_prob > F(1, 2) for v in report.violations)


def test_transitivity_checks():
    for which in (1, 2, 3):
        inst = worked_example(which)
        for s in range(inst.n):
            assert check_transitivity(inst, s) is None
    assert check_transitivity(non_transitive(), 0, samples=100_000, seed=42) == (0, 1, 2)
    two = gen_random(3, 2, seed=8)
    assert check_transitivity(two, 0) is None  # no triples with m = 2


def test_three_feature_cycle_breaks_icr():
    # with two features the iterated-comparison rule resists even-chance
    # manipulation, but the three-feature cycling student can steer the
    # mechanism toward the cycle predecessor of her truthful assignment
    inst = non_transitive()
    truthful, _ = run_gda(inst, Strategy.LOICV, samples=100_000, seed=13)
    assert truthful.to_ids(inst) == {"s1": "c3"}
    report = audit_ic(inst, Strategy.LOICV, level="ic-r", samples=100_000, seed=13)
    assert not report.ok
    best = max(report.violations, key=lambda v: v.improvement_prob)
    assert best.misreport.startswith("c2")
    assert abs(float(best.improvement_prob) - 19 / 35) < 0.01


def test_golden_ratio_block_values():
    gr = golden_ratio(1, F(3, 10), F(2, 5))
    values = sorted(
        pros_exact_2f(gr, m).value for m in enumerate_matchings(gr) if pros_exact_2f(gr, m).value > 0
    )
    assert values == [F(3, 10), F(2, 5), F(21, 50)]  # y, z, (1-z)(1-y)


def test_golden_ratio_two_blocks_multiply():
    gr = golden_ratio(2, F(3, 10), F(2, 5))
    identity = Matching(tuple(range(6)))
    assert pros_exact_2f(gr, identity).value == F(2, 5) ** 2
