import itertools
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featmatch.gda import Strategy, _extend, comparison_vector, next_college, run_gda
from featmatch.instances import gen_random, worked_example
from featmatch.model import DiscreteWeights, Instance, Matching, UniformSimplex, ValidationError
from featmatch.oracle import _menu, approx_ratio, improvement_scan, optimal_pros
from featmatch.prob import _facts, _factor, potential_blockers, pr_top, pros_exact, pros_exact_2f

from helpers import (
    expected_rank_orders,
    full_rerun_scan,
    induced_strict_prefs,
    order_misreports,
    point_mass_instance,
    reference_da,
    reference_rounds,
    unrejected_at_last_proposal,
    with_report,
)

EXPECTED_MATCHINGS = {
    (1, Strategy.LOCV): {"s1": "c3", "s2": "c1", "s3": "c2"},
    (1, Strategy.LOICV): {"s1": "c1", "s2": "c3", "s3": "c2"},
    (1, Strategy.HEUF): {"s1": "c1", "s2": "c3", "s3": "c2"},
    (1, Strategy.HERF): {"s1": "c1", "s2": "c3", "s3": "c2"},
    (2, Strategy.LOCV): {"s1": "c1", "s2": "c2", "s3": "c3"},
    (2, Strategy.LOICV): {"s1": "c2", "s2": "c1", "s3": "c3"},
    (2, Strategy.HEUF): {"s1": "c2", "s2": "c1", "s3": "c3"},
    (2, Strategy.HERF): {"s1": "c2", "s2": "c1", "s3": "c3"},
    (3, Strategy.LOCV): {"s1": "c3", "s2": "c2", "s3": "c1"},
    (3, Strategy.LOICV): {"s1": "c3", "s2": "c1", "s3": "c2"},
    (3, Strategy.HEUF): {"s1": "c3", "s2": "c1", "s3": "c2"},
    (3, Strategy.HERF): {"s1": "c3", "s2": "c2", "s3": "c1"},
}

EXPECTED_PROS = {
    (1, Strategy.LOCV): F(2, 11),
    (1, Strategy.LOICV): F(1),
    (1, Strategy.HEUF): F(1),
    (1, Strategy.HERF): F(1),
    (2, Strategy.LOCV): F(1),
    (2, Strategy.LOICV): F(3, 4),
    (2, Strategy.HEUF): F(3, 4),
    (2, Strategy.HERF): F(3, 4),
    (3, Strategy.LOCV): F(8, 17),
    (3, Strategy.LOICV): F(9, 17),
    (3, Strategy.HEUF): F(9, 17),
    (3, Strategy.HERF): F(8, 17),
}


@pytest.mark.parametrize("which", [1, 2, 3])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_worked_example_matchings(which, strategy):
    inst = worked_example(which)
    matching, _ = run_gda(inst, strategy)
    assert matching.to_ids(inst) == EXPECTED_MATCHINGS[(which, strategy)]
    assert pros_exact_2f(inst, matching).value == EXPECTED_PROS[(which, strategy)]


def test_comparison_vector_goldens():
    inst = worked_example(1)
    assert comparison_vector(inst, 2, 1, range(3)) == (F(1, 7), F(2, 5))
    assert comparison_vector(inst, 2, 0, range(3)) == (F(6, 7), F(1))
    assert comparison_vector(inst, 2, 2, range(3)) == (F(0), F(3, 5))
    # iterated vector after c1 rejected s3
    assert comparison_vector(inst, 2, 2, [1, 2]) == (F(3, 5),)
    assert comparison_vector(inst, 2, 1, [1]) == ()
    with pytest.raises(ValidationError):
        comparison_vector(inst, 2, 0, [1, 2])


def test_next_college_goldens():
    inst = worked_example(1)
    assert next_college(inst, Strategy.LOCV, 2, set()) == 0
    assert next_college(inst, Strategy.LOICV, 2, {0}) == 2
    ex3 = worked_example(3)
    assert next_college(ex3, Strategy.HERF, 2, set()) == 0
    assert next_college(ex3, Strategy.LOICV, 2, {2}) == 1
    with pytest.raises(ValidationError):
        next_college(inst, Strategy.HEUF, 0, {0, 1, 2})


def test_single_student_single_college():
    inst = gen_random(1, 1, seed=4)
    for strategy in Strategy:
        matching, trace = run_gda(inst, strategy)
        assert matching.assignment == (0,)
        assert len(trace.rounds) == 1


def _replay_held(inst, trace):
    """Rebuild every college's held set after each round from the trace."""
    held = [set() for _ in range(inst.m)]
    history = []
    for rnd in trace.rounds:
        rejected = set(rnd.rejections)
        for s, c in rnd.proposals:
            held[c].add(s)
        for c, s in rejected:
            held[c].discard(s)
        history.append([frozenset(h) for h in held])
    return history


@settings(max_examples=50)
@given(seed=st.integers(0, 10**6), strategy=st.sampled_from(list(Strategy)))
def test_da_invariants(seed, strategy):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    caps = "spread" if seed % 2 else "ones"
    inst = gen_random(n, m, capacities=caps, seed=seed)
    matching, trace = run_gda(inst, strategy)

    # nobody proposes twice to the same college; rejections are final
    seen = [set() for _ in range(n)]
    rejected = [set() for _ in range(n)]
    for rnd in trace.rounds:
        for s, c in rnd.proposals:
            assert c not in seen[s], "student re-proposed"
            assert c not in rejected[s], "proposed to a college that rejected her"
            seen[s].add(c)
        for c, s in rnd.rejections:
            rejected[s].add(c)

    # held sets weakly improve by college preference round over round
    history = _replay_held(inst, trace)
    for c in range(inst.m):
        prev = None
        for snapshot in history:
            ranks = sorted(inst.college_rank[c][s] for s in snapshot[c])
            if prev is not None:
                assert len(ranks) >= len(prev)
                assert all(r_new <= r_old for r_new, r_old in zip(ranks, prev))
            prev = ranks

    # final matching consistent with the last snapshot and capacities
    if history:
        assert all(
            matching.students_of(c) == history[-1][c] for c in range(inst.m)
        )
    for c in range(inst.m):
        assert len(matching.students_of(c)) <= inst.capacities[c]


def test_locv_order_is_fixed_across_rounds():
    inst = worked_example(1)
    _, trace = run_gda(inst, Strategy.LOCV)
    order = {s: [] for s in range(inst.n)}
    for rnd in trace.rounds:
        for s, c in rnd.proposals:
            order[s].append(c)
    # every proposal sequence must be a prefix of the student's full static order
    for s, seq in order.items():
        full = []
        rejected = set()
        for _ in range(inst.m):
            c = next_college(inst, Strategy.LOCV, s, rejected)
            full.append(c)
            rejected.add(c)
        assert seq == full[: len(seq)]


@settings(max_examples=50)
@given(seed=st.integers(0, 10**6), strategy=st.sampled_from(list(Strategy)))
def test_point_mass_degenerates_to_textbook_da(seed, strategy):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    base = gen_random(n, m, capacities="spread" if seed % 3 else "ones", seed=seed)
    inst = point_mass_instance(base, rng)
    want = reference_da(induced_strict_prefs(inst), [list(p) for p in inst.college_prefs], list(inst.capacities))
    got, _ = run_gda(inst, strategy)
    assert got.assignment == want


# Each student's proposal order lives in her table under (rule, samples,
# seed).  The checks below compare runs on a warm instance, whose tables
# already hold orders for other rules and seeds and have been through an
# improvement scan under every rule, against runs on a freshly
# built one, against the step-by-step Next() chain, and, through the menu
# scan, against an improvement scan that builds a fresh instance for every
# misreport (helpers.full_rerun_scan).

MEMO_FAMILIES = [
    (2, "uniform_simplex"),
    (2, "discrete"),
    (2, ("beta2", 2.0, 5.0)),
    (3, "uniform_simplex"),
]
MEMO_SETTINGS = [dict(samples=2_000, seed=5), dict(samples=2_000, seed=9)]


def _memo_instances(k, dist):
    return [
        gen_random(n, m, capacities="spread" if seed % 2 else "ones", num_features=k, dist_kind=dist, seed=seed)
        for seed, (n, m) in enumerate([(3, 3), (4, 4), (4, 3), (3, 4), (4, 4), (5, 4)])
    ]


def _outcome(inst, rule, setting):
    matching, trace = run_gda(inst, rule, **setting)
    return matching.assignment, trace.rounds


@pytest.mark.parametrize("k,dist", MEMO_FAMILIES)
def test_memoized_orders_match_fresh_instances(k, dist):
    for base in _memo_instances(k, dist):
        for rule in Strategy:
            for setting in MEMO_SETTINGS:
                warm = replace(base)
                for other_rule in Strategy:
                    for other in MEMO_SETTINGS:
                        if (other_rule, other) != (rule, setting):
                            run_gda(warm, other_rule, **other)
                        improvement_scan(warm, other_rule, **other)  # its probes must leave no order in a table
                assert _outcome(warm, rule, setting) == _outcome(replace(base), rule, setting)


@pytest.mark.parametrize("k,dist", MEMO_FAMILIES)
def test_proposals_follow_the_next_college_chain(k, dist):
    for inst in _memo_instances(k, dist):
        for rule in Strategy:
            for setting in MEMO_SETTINGS:
                _, trace = run_gda(inst, rule, **setting)
                fresh = replace(inst)
                made = [[] for _ in range(inst.n)]
                for rnd in trace.rounds:
                    for s, c in rnd.proposals:
                        assert c == next_college(fresh, rule, s, set(made[s]), **setting)
                        made[s].append(c)


def _rounds(trace):
    return [(rnd.proposals, rnd.rejections) for rnd in trace.rounds]


def test_rounds_match_synchronous_reference():
    # the walk takes a round's proposals one at a time; the reference weighs
    # them together, and both must give the same matching and rounds
    for seed in range(200):
        n, m = 1 + seed % 5, 1 + seed % 4
        rng = np.random.default_rng(seed)
        base = gen_random(n, m, capacities="spread" if seed % 3 else "ones", seed=seed)
        inst = point_mass_instance(base, rng)
        matching, rounds = reference_rounds(induced_strict_prefs(inst), inst.college_prefs, inst.capacities)
        for rule in Strategy:
            got, trace = run_gda(inst, rule)
            assert (got.assignment, _rounds(trace)) == (matching, rounds)
    for dist in ["uniform_simplex", "discrete", ("beta2", 2.0, 5.0)]:
        for seed, (n, m) in enumerate([(3, 3), (4, 4), (5, 4), (4, 3), (5, 5), (6, 4)] * 2):
            inst = gen_random(n, m, capacities="spread", dist_kind=dist, seed=seed)
            for rule, setting in itertools.product(Strategy, MEMO_SETTINGS):
                got, trace = run_gda(inst, rule, **setting)
                orders = [_facts(inst, s).orders[(rule, setting["samples"], setting["seed"])] for s in range(n)]
                for s, order in enumerate(orders):
                    while len(order) < m:
                        _extend(inst, rule, s, order, setting["samples"], setting["seed"])
                matching, rounds = reference_rounds(orders, inst.college_prefs, inst.capacities)
                assert (got.assignment, _rounds(trace)) == (matching, rounds)


@pytest.mark.parametrize("k,dist", MEMO_FAMILIES)
def test_improvement_scan_matches_cold_scan(k, dist):
    # the menu scan and the full-rerun oracle on fresh instances agree
    for inst in _memo_instances(k, dist):
        for setting in MEMO_SETTINGS:
            for rule in Strategy:
                assert improvement_scan(inst, rule, **setting) == full_rerun_scan(inst, rule, setting)


@pytest.mark.parametrize("k,dist", MEMO_FAMILIES)
def test_deterministic_report_orders_are_their_permutations(k, dist):
    # the menu scan's premise: a strict-order report has 0/1 pairwise
    # probabilities, so every rule proposes down exactly that order
    for inst in _memo_instances(k, dist)[:2]:  # 3 and 4 colleges
        perms = itertools.permutations(range(inst.m))
        for perm, (_, rows) in zip(perms, order_misreports(inst)):
            s = perm[0] % inst.n
            for rule in Strategy:
                for setting in MEMO_SETTINGS:
                    altered = with_report(inst, s, rows)
                    run_gda(altered, rule, **setting)
                    order = _facts(altered, s).orders[(rule, setting["samples"], setting["seed"])]
                    assert order == list(perm[: len(order)])
                    while len(order) < inst.m:
                        _extend(altered, rule, s, order, setting["samples"], setting["seed"])
                    assert order == list(perm)


@settings(max_examples=15)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 4),
    m=st.integers(2, 4),
    rule=st.sampled_from(list(Strategy)),
    dist=st.sampled_from(["uniform_simplex", "discrete", ("beta2", 2.0, 5.0)]),
)
def test_menu_scan_property(seed, n, m, rule, dist):
    caps = "spread" if seed % 2 else "ones"
    inst = gen_random(n, m, capacities=caps, dist_kind=dist, seed=seed)
    setting = MEMO_SETTINGS[0]
    assert improvement_scan(inst, rule, **setting) == full_rerun_scan(inst, rule, setting)


def test_utility_reports_reach_their_first_menu_college():
    # the menu scan covers every utility-table report, ties included: the
    # report fixes one full proposal order, and the student's outcome is the
    # first college of that order in her menu
    rng = np.random.default_rng(2024)
    quarters = [F(i, 4) for i in range(5)]
    for k, dist in MEMO_FAMILIES:
        for inst in _memo_instances(k, dist)[:2]:  # 3 and 4 colleges
            for rule, setting in itertools.product(Strategy, MEMO_SETTINGS):
                for s in range(inst.n):
                    menu = _menu(inst, rule, s, **setting)
                    for _ in range(2):
                        rows = [[quarters[i] for i in rng.integers(0, 5, inst.m)] for _ in range(k)]
                        altered = with_report(inst, s, rows)
                        outcome = run_gda(altered, rule, **setting)[0].college_of(s)
                        order = _facts(altered, s).orders[(rule, setting["samples"], setting["seed"])]
                        while len(order) < inst.m:
                            _extend(altered, rule, s, order, setting["samples"], setting["seed"])
                        assert outcome == next((c for c in order if c in menu), None)


HERF_FAMILIES = ["uniform_simplex", "discrete", ("beta2", 2.0, 5.0)]


def test_herf_runs_certify_the_product_bound():
    # each step of HERF's argument (gda.Strategy) holds on each run: with R_s
    # the colleges that had not rejected s at her last proposal, her blockers
    # lie in R_s minus her college c_s, Pr[c_s weakly tops R_s] >= 1/|R_s|,
    # her factor is at least that, and ProS >= prod_s 1/|R_s|
    for dist, size, caps, seed in itertools.product(HERF_FAMILIES, (3, 4, 5), ("ones", "spread"), range(20)):
        inst = gen_random(size, size, capacities=caps, dist_kind=dist, seed=20_000 + seed)
        matching, trace = run_gda(inst, Strategy.HERF)
        bound = F(1)
        for s in range(inst.n):
            c, blockers = matching.college_of(s), potential_blockers(inst, matching, s)
            if c is None:
                assert blockers == []
                continue
            left = unrejected_at_last_proposal(inst, trace, s)
            assert set(blockers) <= left - {c}
            top = pr_top(inst, s, c, left)
            assert top >= F(1, len(left))
            assert _factor(inst, s, c, tuple(blockers)) >= top
            bound *= F(1, len(left))
        assert pros_exact(inst, matching).value >= bound


def _expected_rank_witness() -> Instance:
    """3x3, unit capacities, every college ranking s1 > s2 > s3, utilities
    (f1, f2) per college A, B, C.  s1 is uniform with A = (1, 0),
    B = (101/200, 101/200) and C = (0, 1); s2 and s3 put all weight on f1,
    with A = 1, B = 0, C = 1/2 and A = 1/2, B = 0, C = 1.  Under the
    expected-rank reading s1 proposes to B, which tops her order with
    probability 1/100."""
    half, b = F(1, 2), F(101, 200)
    on_f1 = DiscreteWeights((((F(1), F(0)), F(1)),))
    return Instance(
        students=("s1", "s2", "s3"),
        colleges=("A", "B", "C"),
        capacities=(1, 1, 1),
        college_prefs=((0, 1, 2),) * 3,
        features=("f1", "f2"),
        utilities=(
            ((F(1), b, F(0)), (F(0), b, F(1))),
            ((F(1), F(0), half), (F(1), F(0), half)),
            ((half, F(0), F(1)), (half, F(0), F(1))),
        ),
        weight_dists=(UniformSimplex(2), on_f1, on_f1),
    )


def test_expected_rank_reading_breaks_the_bound():
    # ranking by expected rank position instead of the top-rank probability
    # gives a ratio of 2/99 < (1/3)^3 on a 3x3 witness; HERF is optimal there
    inst = _expected_rank_witness()
    optimum = optimal_pros(inst).best_pros.value
    assert optimum == F(99, 200)
    assert approx_ratio(inst, Strategy.HERF) == 1
    orders = expected_rank_orders(inst)
    assert orders[0][0] == 1  # s1 proposes to B first
    matching = Matching(reference_da(orders, inst.college_prefs, inst.capacities))
    assert pros_exact(inst, matching).value / optimum == F(2, 99) < F(1, 27)
