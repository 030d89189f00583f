import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featmatch import prob
from featmatch.model import BetaWeights, DiscreteWeights, Instance, Matching, ValidationError, integer_matrix
from featmatch.prob import (
    ALWAYS,
    NEVER,
    THRESHOLD_ABOVE,
    THRESHOLD_BELOW,
    expected_utility,
    pairwise_case_2f,
    potential_blockers,
    pr_prefers,
    pr_top,
    pros_exact,
    pros_exact_2f,
    pros_exact_discrete,
    pros_monte_carlo,
    stability_interval,
)
from featmatch.gda import Strategy, run_gda
from featmatch.instances import gen_random, non_transitive, reduce_to_uniform, worked_example
from featmatch.oracle import enumerate_matchings

from helpers import (
    atom_prefers,
    atom_pros,
    atom_top,
    fraction_case,
    grid_pros,
    kernel_pros,
    one_shot_mc,
    one_shot_weights,
    pairwise_strict,
    textbook_blockers,
    triangle_quadrature_strict,
    with_report,
)


def with_dist(inst: Instance, s: int, dist) -> Instance:
    dists = list(inst.weight_dists)
    dists[s] = dist
    return Instance(
        students=inst.students,
        colleges=inst.colleges,
        capacities=inst.capacities,
        college_prefs=inst.college_prefs,
        features=inst.features,
        utilities=inst.utilities,
        weight_dists=tuple(dists),
    )


# ---------------------------------------------------------------------------
# pairwise case split
# ---------------------------------------------------------------------------


def test_case_split_golden():
    ex1 = worked_example(1)
    # s3 compares c2 against c1: loses the first feature, wins the second
    case = pairwise_case_2f(ex1, 2, 1, 0)
    assert case.tag == THRESHOLD_BELOW and case.eta == F(1, 7)
    ex3 = worked_example(3)
    case = pairwise_case_2f(ex3, 2, 2, 1)
    assert case.tag == THRESHOLD_BELOW and case.eta == F(3, 5)
    case = pairwise_case_2f(ex3, 2, 2, 0)
    assert case.tag == THRESHOLD_ABOVE and case.eta == F(5, 12)


def test_case_split_dominance_and_errors():
    ex1 = worked_example(1)
    assert pairwise_case_2f(ex1, 0, 0, 1).tag == ALWAYS  # s1: c1 dominates c2
    assert pairwise_case_2f(ex1, 0, 1, 0).tag == NEVER
    with pytest.raises(ValidationError):
        pairwise_case_2f(non_transitive(), 0, 0, 1)


def test_eta_zero_when_second_feature_ties():
    inst = worked_example(1)
    utilities = list(list(list(r) for r in per) for per in inst.utilities)
    utilities[0][1][0] = utilities[0][1][1]  # same second-feature utility for c1, c2
    inst2 = Instance(
        students=inst.students, colleges=inst.colleges, capacities=inst.capacities,
        college_prefs=inst.college_prefs, features=inst.features,
        utilities=tuple(tuple(tuple(r) for r in per) for per in utilities),
        weight_dists=inst.weight_dists,
    )
    case = pairwise_case_2f(inst2, 0, 0, 1)
    assert case.tag == THRESHOLD_ABOVE and case.eta == 0


def _tied_instances(kind):
    """Seeded 3x4 two-feature instances whose utilities are quarters, so
    entries repeat and differences vanish on one feature or both, and one
    whose utilities are 0, 1 or have denominators near 2^40, so the integer
    utility rows overflow int64 and are Python ints."""
    out = []
    for seed in range(5):
        inst = gen_random(3, 4, dist_kind=kind, seed=40 + seed)
        rng = np.random.default_rng(seed)

        def value(c):
            if seed < 4:
                return F(int(rng.integers(0, 5)), 4)
            return [F(0), F(1), F(int(rng.integers(0, 2**40)), 2**40 + c)][rng.integers(0, 3)]

        rows = tuple(tuple(tuple(value(c) for c in range(inst.m)) for _ in range(2)) for _ in range(inst.n))
        out.append(replace(inst, utilities=rows))
    return out


def _fraction_window(inst, s, match, blockers):
    """The no-block window of s at her match in Fractions, from
    helpers.fraction_case: None when a blocker always beats the match.
    Blockers of strict probability 0 change no measure and are skipped: by
    the atom oracle for discrete weights, else by the measure beyond eta (a
    beta measure can round to 0.0)."""
    u, dist = inst.utilities[s], inst.weight_dists[s]
    lo, hi = F(0), F(1)
    for d in blockers:
        tag, eta = fraction_case(u[0][d], u[1][d], u[0][match], u[1][match])
        if isinstance(dist, DiscreteWeights):
            strict = atom_prefers(inst, s, d, match)
        elif tag in (ALWAYS, NEVER):
            strict = int(tag == ALWAYS)
        else:
            strict = dist.w1_measure(eta, 1) if tag == THRESHOLD_ABOVE else dist.w1_measure(0, eta)
        if strict == 0:
            continue
        if tag == ALWAYS:
            return None
        if tag == THRESHOLD_ABOVE:
            hi = min(hi, eta)
        else:
            lo = max(lo, eta)
    return lo, hi


@pytest.mark.parametrize("kind", ["uniform_simplex", "discrete", ("beta2", 2.0, 5.0)])
def test_integer_case_split_matches_fraction_reference(kind):
    # the case split runs on integer utility rows; the Fraction formula is the
    # reference for every ordered college pair, every reported window and
    # every cold stability factor
    instances = _tied_instances(kind)
    assert any(integer_matrix(inst.utilities[0])[0].dtype == object for inst in instances)
    for inst in instances:
        for s in range(inst.n):
            u = inst.utilities[s]
            for ci, cj in itertools.product(range(inst.m), repeat=2):
                tag, eta = fraction_case(u[0][ci], u[1][ci], u[0][cj], u[1][cj])
                case = pairwise_case_2f(inst, s, ci, cj)
                assert (case.tag, case.eta) == (tag, eta)
                if eta is not None:
                    assert type(case.eta) is F and 0 <= case.eta <= 1
        for matching in enumerate_matchings(inst):
            for s, match in enumerate(matching.assignment):
                if match is None:
                    continue
                blockers = textbook_blockers(inst, matching, s)
                window = _fraction_window(inst, s, match, blockers)
                got = stability_interval(inst, matching, s)
                if window is None:
                    assert got is None
                    expected = F(0)
                elif window[0] > window[1]:
                    assert (got.lower, got.upper) == (1, 0) and got.empty
                    expected = F(0)
                else:
                    assert (got.lower, got.upper) == window
                    assert type(got.lower) is F and type(got.upper) is F
                    expected = inst.weight_dists[s].w1_measure(*window)
                cold = prob._factor(replace(inst), s, match, tuple(blockers))
                assert cold == expected and type(cold) is type(expected)


# ---------------------------------------------------------------------------
# pairwise probabilities
# ---------------------------------------------------------------------------


def test_pr_prefers_goldens():
    ex3 = worked_example(3)
    assert pr_prefers(ex3, 2, 2, 0, strict=False) == F(7, 12)
    assert pr_prefers(ex3, 2, 2, 1, strict=False) == F(3, 5)


def test_identical_columns_tie():
    inst = gen_random(1, 2, seed=3)
    utilities = ((inst.utilities[0][0], inst.utilities[0][0]),)
    # make c2's utilities equal to c1's on both features
    rows = tuple(
        tuple((row[0], row[0]) for row in (per,))[0] for per in inst.utilities[0]
    )
    inst2 = Instance(
        students=inst.students, colleges=inst.colleges, capacities=inst.capacities,
        college_prefs=inst.college_prefs, features=inst.features,
        utilities=(rows,), weight_dists=inst.weight_dists,
    )
    assert pr_prefers(inst2, 0, 0, 1, strict=False) == 1
    assert pr_prefers(inst2, 0, 0, 1, strict=True) == 0


def test_pr_prefers_requires_distinct_colleges():
    with pytest.raises(ValidationError):
        pr_prefers(worked_example(1), 0, 1, 1)


@settings(max_examples=60)
@given(seed=st.integers(0, 10**6), kind=st.sampled_from(["uniform_simplex", "discrete"]))
def test_strict_plus_swapped_weak_is_one(seed, kind):
    inst = gen_random(3, 3, dist_kind=kind, seed=seed)
    for s in range(3):
        for ci, cj in itertools.permutations(range(3), 2):
            assert pr_prefers(inst, s, ci, cj, True) + pr_prefers(inst, s, cj, ci, False) == 1


@settings(max_examples=30)
@given(seed=st.integers(0, 10**6), features=st.sampled_from([2, 3]))
def test_discrete_pairwise_and_top_match_atom_oracle(seed, features):
    base = gen_random(3, 4, num_features=features, dist_kind="discrete", seed=seed)
    rng = np.random.default_rng(seed)
    # utilities on a quarter grid tie often at the atoms, so strict and weak differ
    coarse = tuple(
        tuple(tuple(F(int(x), 4) for x in rng.integers(0, 5, base.m)) for _ in range(features))
        for _ in range(base.n)
    )
    inst = replace(base, utilities=coarse)
    for s in range(inst.n):
        for ci, cj in itertools.permutations(range(inst.m), 2):
            for strict in (True, False):
                assert pr_prefers(inst, s, ci, cj, strict) == atom_prefers(inst, s, ci, cj, strict)
        for size in range(1, inst.m + 1):
            for pool in itertools.combinations(range(inst.m), size):
                for c in pool:
                    assert pr_top(inst, s, c, pool) == atom_top(inst, s, c, pool)


@settings(max_examples=30)
@given(seed=st.integers(0, 10**6))
def test_continuous_strict_equals_weak(seed):
    inst = gen_random(2, 3, seed=seed)
    for s in range(2):
        for ci, cj in itertools.permutations(range(3), 2):
            assert pr_prefers(inst, s, ci, cj, True) == pr_prefers(inst, s, ci, cj, False)


def test_discrete_atoms_make_strictness_observable():
    ex1 = worked_example(1)
    # atom exactly at the eta = 1/7 threshold of s3's (c2, c1) comparison
    dist = DiscreteWeights((((F(1, 7), F(6, 7)), F(1, 2)), ((F(1), F(0)), F(1, 2))))
    inst = with_dist(ex1, 2, dist)
    assert pr_prefers(inst, 2, 1, 0, strict=True) == 0  # tie at the atom, no strict win
    assert pr_prefers(inst, 2, 1, 0, strict=False) == F(1, 2)


def test_beta_pairwise_matches_uniform_side():
    ex3 = worked_example(3)
    inst = with_dist(ex3, 2, BetaWeights(2.0, 2.0))
    # eta(c3 vs c1) = 5/12 < 1/2, so a symmetric distribution still favors c3
    p = pr_prefers(inst, 2, 2, 0, strict=False)
    assert isinstance(p, float) and p > 0.5
    # regularized incomplete beta at eta: I_{5/12}(2,2) complement
    x = 5 / 12
    want = 1 - (3 * x**2 - 2 * x**3)
    assert p == pytest.approx(want, abs=1e-12)


def test_mc_pairwise_requires_seed():
    nt = non_transitive()
    with pytest.raises(ValidationError, match="seed"):
        pr_prefers(nt, 0, 0, 1)


def test_mc_pairwise_swap_identity_exact():
    # the estimated path draws the unordered pair's stream, so the
    # strict/weak complement identity holds to the last bit
    nt = non_transitive()
    s = pr_prefers(nt, 0, 0, 1, strict=True, samples=30_000, seed=3)
    w = pr_prefers(nt, 0, 1, 0, strict=False, samples=30_000, seed=3)
    assert s + w == 1.0


@pytest.mark.parametrize("samples", [0, -5])
def test_estimators_reject_bad_sample_counts(samples):
    nt = non_transitive()
    with pytest.raises(ValidationError, match="sample count"):
        pr_prefers(nt, 0, 0, 1, samples=samples, seed=3)
    with pytest.raises(ValidationError, match="sample count"):
        pr_top(nt, 0, 0, range(3), samples=samples, seed=3)
    with pytest.raises(ValidationError, match="sample count"):
        pros_monte_carlo(nt, Matching((0,)), samples=samples, seed=3)


def test_three_feature_estimates_match_quadrature():
    nt = non_transitive()
    pairs = [(0, 1, F(31, 56)), (1, 2, F(19, 35)), (0, 2, F(9, 20))]
    for ci, cj, exact in pairs:
        est = pr_prefers(nt, 0, ci, cj, strict=True, samples=200_000, seed=11)
        quad = triangle_quadrature_strict(nt, 0, ci, cj)
        assert est == pytest.approx(float(exact), abs=0.005)
        assert quad == pytest.approx(float(exact), abs=0.002)


# ---------------------------------------------------------------------------
# top-rank probabilities
# ---------------------------------------------------------------------------


def test_pr_top_goldens():
    ex3 = worked_example(3)
    assert pr_top(ex3, 2, 2, range(3)) == F(11, 60)
    assert pr_top(ex3, 2, 0, range(3)) == F(5, 12)
    assert pr_top(ex3, 2, 1, range(3)) == F(2, 5)
    ex1 = worked_example(1)
    assert pr_top(ex1, 2, 0, range(3)) == F(6, 7)


def test_pr_top_single_pool_and_errors():
    ex1 = worked_example(1)
    assert pr_top(ex1, 0, 1, [1]) == 1
    with pytest.raises(ValidationError):
        pr_top(ex1, 0, 1, [0, 2])


def test_pr_top_grid_oracle():
    # compare against counting over the 1001-point weight grid
    ex1 = worked_example(1)
    got = pr_top(ex1, 2, 0, range(3))
    grid = [F(i, 1000) for i in range(1001)]
    hits = 0
    for w in grid:
        scores = [w * ex1.utilities[2][0][c] + (1 - w) * ex1.utilities[2][1][c] for c in range(3)]
        if all(scores[0] >= scores[c] for c in range(3)):
            hits += 1
    assert abs(float(got) - hits / 1001) < 1e-3


@settings(max_examples=40)
@given(seed=st.integers(0, 10**6))
def test_pr_top_sums_to_one_continuous(seed):
    inst = gen_random(2, 4, seed=seed)
    for s in range(2):
        total = sum(pr_top(inst, s, c, range(4)) for c in range(4))
        assert total == 1


@settings(max_examples=40)
@given(seed=st.integers(0, 10**6))
def test_pr_top_sums_to_at_least_one_discrete(seed):
    inst = gen_random(2, 3, dist_kind="discrete", seed=seed)
    for s in range(2):
        total = sum(pr_top(inst, s, c, range(3)) for c in range(3))
        assert total >= 1


@pytest.mark.parametrize(
    "features,kind", [(2, "uniform_simplex"), (2, "discrete"), (3, "discrete"), (2, ("beta2", 2.0, 5.0))]
)
def test_pr_top_is_the_stability_factor(features, kind):
    # "c weakly beats every rival" is "no rival strictly beats c": on the exact
    # path pr_top is c's stability factor against the rivals, memoized alike
    zeros = []
    for seed in range(4):
        inst = gen_random(3, 4, num_features=features, dist_kind=kind, seed=70 + seed)
        for s in range(inst.n):
            for size in range(2, inst.m + 1):
                for pool in itertools.combinations(range(inst.m), size):
                    for c in pool:
                        rivals = tuple(d for d in pool if d != c)
                        got = pr_top(inst, s, c, pool)
                        cold = prob._factor(replace(inst), s, c, rivals)
                        assert got == cold and type(got) is type(cold)
                        assert prob._facts(inst, s).factors[(c, rivals)] is got
                        if got == 0:
                            zeros.append(got)
    if kind != "uniform_simplex":
        assert zeros
    assert all(type(z) is F for z in zeros)  # a beta student's empty window too


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------


def test_expected_utility_goldens():
    ex1 = worked_example(1)
    assert [expected_utility(ex1, 2, c) for c in range(3)] == [F(11, 20), F(3, 10), F(7, 20)]


def test_expected_utility_is_the_mean_weight_dotted_with_the_utilities():
    # references: E[w . u] written out per distribution class
    kinds = [(2, "uniform_simplex"), (3, "uniform_simplex"), (2, "discrete"), (3, "discrete"),
             (2, ("beta2", 2.0, 5.0)), (2, ("beta2", 0.5, 3.0))]
    for (k, dist), seed in itertools.product(kinds, range(3)):
        inst = gen_random(3, 4, num_features=k, dist_kind=dist, seed=seed)
        for s, d in enumerate(inst.weight_dists):
            for c in range(inst.m):
                col = [row[c] for row in inst.utilities[s]]
                got = expected_utility(inst, s, c)
                if isinstance(d, BetaWeights):
                    m1 = d.alpha / (d.alpha + d.beta)
                    m2 = 1.0 - m1
                    assert got.hex() == (m1 * float(col[0]) + m2 * float(col[1])).hex()
                    continue
                if isinstance(d, DiscreteWeights):
                    mean = [sum(p * w[f] for w, p in d.atoms) for f in range(k)]
                    want = sum(mf * u for mf, u in zip(mean, col))
                else:
                    want = sum(col) / F(d.dim)
                assert isinstance(got, F) and got == want


def test_expected_utility_degenerate_cases():
    inst = gen_random(1, 2, seed=5)
    # identical utilities across features: expectation equals the common value
    rows = (inst.utilities[0][0], inst.utilities[0][0])
    flat = Instance(
        students=inst.students, colleges=inst.colleges, capacities=inst.capacities,
        college_prefs=inst.college_prefs, features=inst.features,
        utilities=(rows,), weight_dists=inst.weight_dists,
    )
    assert expected_utility(flat, 0, 0) == rows[0][0]
    beta = with_dist(flat, 0, BetaWeights(2.0, 5.0))
    assert expected_utility(beta, 0, 0) == pytest.approx(float(rows[0][0]), abs=1e-12)
    # point mass at w = (1, 0)
    pm = with_dist(inst, 0, DiscreteWeights((((F(1), F(0)), F(1)),)))
    assert expected_utility(pm, 0, 0) == inst.utilities[0][0][0]


def test_mean_weight():
    # the mean weight and the first feature's two tails against its mean,
    # which reduce_to_uniform reads to check that the mean is the median
    def tails(dist):
        return dist.w1_measure(0, dist.mean[0]), dist.w1_measure(dist.mean[0], 1)

    ex1 = worked_example(1)
    flat = ex1.weight_dists[0]
    assert flat.mean == (F(1, 2), F(1, 2)) and tails(flat) == (F(1, 2), F(1, 2))
    sym = BetaWeights(2.0, 2.0)
    below, above = tails(sym)
    assert sym.mean[0] == pytest.approx(0.5) and below == pytest.approx(above)
    skew = BetaWeights(2.0, 5.0)
    below, above = tails(skew)
    assert skew.mean[0] == pytest.approx(2 / 7)
    assert below != pytest.approx(above, abs=1e-3)
    # quadrature oracle for Pr[w <= 2/7] under Beta(2, 5)
    xs = (np.arange(1_000_000) + 0.5) / 1_000_000
    dens = xs * (1 - xs) ** 4
    want = dens[xs <= 2 / 7].sum() / dens.sum()
    assert below == pytest.approx(want, abs=1e-5)
    with pytest.raises(ValidationError, match="mean must equal the median"):
        reduce_to_uniform(with_dist(ex1, 0, skew), 0)
    nt = non_transitive()
    assert nt.weight_dists[0].mean == (F(1, 3), F(1, 3), F(1, 3))
    with pytest.raises(ValidationError, match="exactly 2 features"):
        reduce_to_uniform(nt, 0)


# ---------------------------------------------------------------------------
# stability probability, exact paths
# ---------------------------------------------------------------------------


def test_pros_goldens():
    ex1 = worked_example(1)
    locv = Matching.from_ids(ex1, {"s1": "c3", "s2": "c1", "s3": "c2"})
    assert pros_exact_2f(ex1, locv).value == F(2, 11)
    best = Matching.from_ids(ex1, {"s1": "c1", "s2": "c3", "s3": "c2"})
    assert pros_exact_2f(ex1, best).value == F(1)
    ex2 = worked_example(2)
    m = Matching.from_ids(ex2, {"s1": "c2", "s2": "c1", "s3": "c3"})
    assert pros_exact_2f(ex2, m).value == F(3, 4)


def test_pros_rejects_infeasible_and_wrong_dimension():
    ex1 = worked_example(1)
    with pytest.raises(ValidationError, match="infeasible"):
        pros_exact_2f(ex1, Matching((0, 0, None)))
    with pytest.raises(ValidationError):
        pros_exact_2f(non_transitive(), Matching((0,)))
    with pytest.raises(ValidationError, match="no exact stability evaluator"):
        pros_exact(non_transitive(), Matching((0,)))


def test_pros_unmatched_student_rules():
    ex1 = worked_example(1)
    nobody = Matching((None, None, None))
    assert pros_exact_2f(ex1, nobody).value == 0  # free seats everywhere
    # single student, single college: matched has ProS 1, unmatched 0
    inst = gen_random(1, 1, seed=9)
    assert pros_exact_2f(inst, Matching((0,))).value == 1
    assert pros_exact_2f(inst, Matching((None,))).value == 0
    # unmatched students cannot block when the sole college is full with
    # a student it prefers to each of them
    crowd = gen_random(3, 1, seed=2)
    favorite = crowd.college_prefs[0][0]
    m = Matching(tuple(0 if s == favorite else None for s in range(3)))
    assert pros_exact_2f(crowd, m).value == 1


def test_stability_interval_goldens():
    ex1 = worked_example(1)
    locv = Matching.from_ids(ex1, {"s1": "c3", "s2": "c1", "s3": "c2"})
    w0 = stability_interval(ex1, locv, 0)
    assert (w0.lower, w0.upper) == (F(4, 11), F(1)) and not w0.empty
    w1 = stability_interval(ex1, locv, 1)
    assert (w1.lower, w1.upper) == (F(0), F(5, 7))
    w2 = stability_interval(ex1, locv, 2)
    assert (w2.lower, w2.upper) == (F(0), F(2, 5))
    # dominated assignment has no window at all
    dom = Matching.from_ids(ex1, {"s1": "c2", "s2": "c1", "s3": None})
    assert stability_interval(ex1, dom, 0) is None
    assert stability_interval(ex1, dom, 2) is None  # unmatched


def test_pros_dominating_blocker_zeroes():
    ex1 = worked_example(1)
    # s1 matched to her dominated college c2 while c3 (dominant) holds a free seat
    m = Matching.from_ids(ex1, {"s1": "c2", "s2": "c1", "s3": None})
    assert pros_exact_2f(ex1, m).value == 0


def test_pros_interval_vs_discrete_enumeration_exact():
    for seed in range(25):
        inst = gen_random(3, 3, dist_kind="discrete", seed=900 + seed)
        m, _ = run_gda(inst, Strategy.LOCV)
        assert pros_exact_2f(inst, m).value == pros_exact_discrete(inst, m).value


def _discrete_table_instances():
    """Seeded discrete instances on three colleges: two and three features,
    unit capacities (3 students) and spread ones (4 students, capacities
    2, 1, 1), and a two-feature one whose support and probabilities have
    denominators near 2^40, so its kernel and atom scores are Python ints."""
    out = [
        gen_random(n, 3, capacities=caps, num_features=k, dist_kind="discrete", seed=60 + seed)
        for k in (2, 3)
        for n, caps in ((3, "ones"), (4, "spread"))
        for seed in range(2)
    ]
    d1, d2 = 2**40 + 1, 2**40 + 3
    w1 = (F(3 * 2**38, d1), F(2**39, d2), F(5, d1))
    p = (F(1, d1), F(1, d2), 1 - F(1, d1) - F(1, d2))
    huge = DiscreteWeights(tuple(((x, 1 - x), q) for x, q in zip(w1, p)))
    out.append(replace(gen_random(3, 3, dist_kind="discrete", seed=70), weight_dists=(huge,) * 3))
    return out


def test_strict_table_equals_one_atom_mask_per_pair():
    instances = _discrete_table_instances()
    assert instances[-1].weight_dists[0].kernel[2].dtype == object
    for inst in instances:
        for s in range(inst.n):
            strict = prob._facts(inst, s).strict
            assert strict == pairwise_strict(inst, s)
            assert all(type(x) is F for row in strict for x in row)


def test_integer_utilities_equal_a_fresh_integer_matrix():
    instances = _discrete_table_instances() + _tied_instances("discrete")
    assert any(inst.utilities_int[0][0].dtype == object for inst in instances)
    for inst in instances:
        for s in range(inst.n):
            (got, d), (expected, e) = inst.utilities_int[s], integer_matrix(inst.utilities[s])
            assert got.dtype == expected.dtype and d == e and np.array_equal(got, expected)


def test_pros_exact_discrete_equals_the_kernel_formula():
    # the tied instances' atoms score some blocker level with the match
    for inst in _discrete_table_instances() + _tied_instances("discrete"):
        for matching in enumerate_matchings(inst):
            got = pros_exact_discrete(inst, matching)
            assert got.kind == "exact" and got.value == kernel_pros(inst, matching)


def test_pros_2f_matches_grid_oracle():
    for seed in range(10):
        inst = gen_random(3, 3, seed=1700 + seed)
        m, _ = run_gda(inst, Strategy.HEUF)
        exact = float(pros_exact_2f(inst, m).value)
        assert abs(exact - grid_pros(inst, m, points=20_000)) < 1e-4


@pytest.mark.parametrize("n, m", [(3, 3), (4, 4), (5, 3)])
def test_potential_blockers_match_textbook_oracle(n, m):
    # (5, 3) spreads capacities (2, 2, 1), so colleges hold several enrollees
    for seed in range(4):
        inst = gen_random(n, m, capacities="spread", seed=300 + seed)
        for matching in enumerate_matchings(inst):
            for s in range(n):
                assert potential_blockers(inst, matching, s) == textbook_blockers(inst, matching, s)


def _interval_pros(inst, matching):
    """(value, kind) of the per-student interval product with no memo and no
    early stop: exact only when every factor is a Fraction."""
    factors = []
    for s in range(inst.n):
        if matching.college_of(s) is None:
            factors.append(F(0) if textbook_blockers(inst, matching, s) else F(1))
            continue
        window = stability_interval(inst, matching, s)
        empty = window is None or window.empty
        factors.append(F(0) if empty else inst.weight_dists[s].w1_measure(window.lower, window.upper))
    if all(isinstance(f, F) for f in factors):
        return math.prod(factors, start=F(1)), "exact"
    return math.prod(map(float, factors)), "closed_form"


@pytest.mark.parametrize("kind", ["uniform_simplex", "discrete", ("beta2", 2.0, 5.0), "mixed"])
def test_memoized_pros_2f_equals_cold_evaluation(kind):
    if kind == "mixed":  # a beta student among flat ones: a zero factor must not end an inexact product
        inst = with_dist(gen_random(4, 4, seed=31), 1, BetaWeights(2.0, 5.0))
    else:
        inst = gen_random(4, 4, dist_kind=kind, seed=31)
    matchings = list(enumerate_matchings(inst))

    def check(warm, matching):
        got = pros_exact_2f(warm, matching)
        cold = pros_exact_2f(replace(warm), matching)  # a freshly built Instance has empty tables
        assert (got.value, got.kind) == (cold.value, cold.kind)
        assert type(got.value) is type(cold.value)
        assert (got.value, got.kind) == _interval_pros(warm, matching)

    for order in (matchings, matchings[::-1]):
        warm = replace(inst)
        for matching in order:
            check(warm, matching)
    assert all(facts.factors for facts in warm.pair_facts)
    for s in range(inst.n):
        altered = with_report(warm, s, inst.utilities[(s + 1) % inst.n])
        for matching in matchings:
            check(altered, matching)


def test_pros_beta_closed_form_kind():
    ex1 = worked_example(1)
    inst = with_dist(ex1, 2, BetaWeights(2.0, 2.0))
    m = Matching.from_ids(inst, {"s1": "c3", "s2": "c1", "s3": "c2"})
    res = pros_exact_2f(inst, m)
    assert res.kind == "closed_form"
    assert res.value == pytest.approx(_density_grid_pros(inst, m), abs=1e-4)


def _density_grid_pros(inst, matching, points=200_000):
    """No-block product over a grid of first-feature weights, each student's
    grid cells weighted by her own density."""
    w1 = (2 * np.arange(points) + 1) / (2 * points)
    w = np.column_stack([w1, 1.0 - w1])
    total = 1.0
    for s in range(inst.n):
        dist = inst.weight_dists[s]
        if isinstance(dist, BetaWeights):
            dens = w1 ** (dist.alpha - 1) * (1 - w1) ** (dist.beta - 1)
        else:
            dens = np.ones_like(w1)
        dens = dens / dens.sum()
        match = matching.college_of(s)
        cand = textbook_blockers(inst, matching, s)
        if match is None:
            total *= 0.0 if cand else 1.0
            continue
        if not cand:
            continue
        scores = w @ inst.utilities_f64[s]
        blocked = (scores[:, cand] > scores[:, [match]]).any(axis=1)
        total *= 1.0 - float(dens[blocked].sum())
    return total


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------


def test_pros_mixed_distribution_instance():
    # one flat, one discrete, one beta student in a single instance
    base = gen_random(3, 3, seed=404)
    inst = with_dist(base, 1, DiscreteWeights((((F(1, 5), F(4, 5)), F(1, 2)), ((F(7, 10), F(3, 10)), F(1, 2)))))
    inst = with_dist(inst, 2, BetaWeights(2.0, 2.0))
    m, _ = run_gda(inst, Strategy.HEUF)
    res = pros_exact_2f(inst, m)
    assert res.kind == "closed_form"
    est = pros_monte_carlo(inst, m, samples=200_000, seed=55)
    assert abs(float(res.value) - float(est.value)) <= max(3 * est.stderr, 0.005)


def test_mc_deterministic_and_close():
    ex1 = worked_example(1)
    locv = Matching.from_ids(ex1, {"s1": "c3", "s2": "c1", "s3": "c2"})
    a = pros_monte_carlo(ex1, locv, samples=50_000, seed=123)
    b = pros_monte_carlo(ex1, locv, samples=50_000, seed=123)
    assert a.value == b.value and a.stderr == b.stderr
    assert a.kind == "estimate" and a.samples == 50_000 and a.seed == 123
    assert abs(float(a.value) - 2 / 11) <= max(3 * a.stderr, 0.01)
    c = pros_monte_carlo(ex1, locv, samples=50_000, seed=124)
    assert c.value != a.value


def test_mc_example3_loicv_near_exact():
    ex3 = worked_example(3)
    m, _ = run_gda(ex3, Strategy.LOICV)
    est = pros_monte_carlo(ex3, m, samples=100_000, seed=31)
    assert abs(float(est.value) - 9 / 17) <= 3 * est.stderr


def test_mc_no_potential_blocks_is_exactly_one():
    # two colleges each holding their top student: no college-side blockers
    inst = gen_random(2, 2, seed=77)
    prefs = ((0, 1), (1, 0))
    inst = Instance(
        students=inst.students, colleges=inst.colleges, capacities=inst.capacities,
        college_prefs=prefs, features=inst.features, utilities=inst.utilities,
        weight_dists=inst.weight_dists,
    )
    m = Matching((0, 1))
    res = pros_monte_carlo(inst, m, samples=10, seed=1)
    assert res.value == 1.0 and res.stderr == 0.0


def test_mc_rejects_zero_samples():
    ex1 = worked_example(1)
    with pytest.raises(ValidationError):
        pros_monte_carlo(ex1, Matching((None, None, None)), samples=0, seed=1)


def test_mc_checks_the_seed_for_every_matching():
    # everyone unmatched draws nothing, and still needs a seed
    inst = gen_random(3, 3, num_features=3, seed=4)
    for matching in (Matching((None, None, None)), Matching((0, 1, 2))):
        with pytest.raises(ValidationError, match="seed"):
            pros_monte_carlo(inst, matching, samples=10, seed=None)


def test_kernel_reference_values():
    scores = np.array([[1.0, 2.0, 0.5], [3.0, 1.0, 0.5], [0.5, 0.5, 0.5]])
    cand = [1, 2]

    def fraction(event):
        return np.count_nonzero(event(scores)) / len(scores)

    # rows where neither candidate beats college 0, so 0 weakly tops them: rows 1 and 2
    assert fraction(prob._weakly_tops(0, cand)) == pytest.approx(2 / 3)
    assert fraction(prob._weakly_tops(0, [])) == 1.0
    assert fraction(prob._weakly_tops(2, [0, 1])) == pytest.approx(1 / 3)  # a tie counts
    assert fraction(prob._beats(0, 1)) == pytest.approx(1 / 3)


# ---------------------------------------------------------------------------
# block-streamed estimates against one draw of every sample
# ---------------------------------------------------------------------------

MC_KINDS = ["uniform2", "uniform3", "uniform4", "uniform5", "beta2", "discrete"]


def _mc_instance(kind: str, seed: int) -> Instance:
    """A 3x4 instance whose students all have weights of one kind."""
    if kind.startswith("uniform"):
        return gen_random(3, 4, num_features=int(kind[len("uniform"):]), seed=seed)
    if kind == "discrete":
        return gen_random(3, 4, num_features=3, dist_kind="discrete", seed=seed)
    base = gen_random(3, 4, seed=seed)
    return replace(base, weight_dists=(BetaWeights(0.7, 2.0), BetaWeights(2.0, 2.0), BetaWeights(3.5, 1.2)))


def _one_shot_pros(inst: Instance, matching: Matching, samples: int, seed: int) -> float:
    value = 1.0
    for s, match in enumerate(matching.assignment):
        candidates = textbook_blockers(inst, matching, s)
        if match is None or not candidates:
            value *= 0.0 if candidates else 1.0
            continue
        blocked = one_shot_mc(
            inst, s, samples, seed, (s,), lambda x: (x[:, candidates] > x[:, [match]]).any(axis=1)
        )
        value *= 1.0 - blocked
    return value


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize("kind", MC_KINDS)
def test_streamed_estimates_equal_one_shot_draw(monkeypatch, kind, block):
    if block is not None:
        monkeypatch.setattr(prob, "MC_BLOCK", block)
    b, seed = prob.MC_BLOCK, 5
    for samples in sorted({1, b - 1, b, b + 1, 3 * b + 7} - {0}):
        inst = _mc_instance(kind, samples)
        for s in range(inst.n):
            beats = lambda x: x[:, 0] > x[:, 2]
            want = one_shot_mc(inst, s, samples, seed, (s, 0, 2), beats)
            got = prob._mc_counts(inst, s, samples, seed, (s, 0, 2), (beats,))[0] / samples
            assert got.hex() == want.hex()
            if prob._facts(inst, s).strict is not None:
                continue  # pairwise and top-rank probabilities are exact here
            assert pr_prefers(inst, s, 0, 2, samples=samples, seed=seed).hex() == want.hex()
            weak = pr_prefers(inst, s, 3, 1, strict=False, samples=samples, seed=seed)
            below = one_shot_mc(inst, s, samples, seed, (s, 1, 3), lambda x: x[:, 1] > x[:, 3])
            assert weak.hex() == (1.0 - below).hex()
            top = pr_top(inst, s, 1, range(4), samples=samples, seed=seed)
            tops = lambda x: (x[:, [1]] >= x[:, [0, 2, 3]]).all(axis=1)
            want = one_shot_mc(inst, s, samples, seed, (s, 1, 104729), tops)
            assert top.hex() == want.hex()
        for matching in (Matching((0, 1, 2)), Matching((3, None, 1))):
            got = pros_monte_carlo(inst, matching, samples=samples, seed=seed).value
            assert got.hex() == _one_shot_pros(inst, matching, samples, seed).hex()


@pytest.mark.parametrize("kind", MC_KINDS + ["uniform1", "uniform7", "uniform8", "uniform9"])
def test_sample_weights_in_pieces_equal_one_draw(kind):
    dist = _mc_instance(kind, 0).weight_dists[0]
    for seed in range(20):
        whole = one_shot_weights(dist, 300, np.random.default_rng(seed))
        assert prob.sample_weights(dist, 300, np.random.default_rng(seed)).tobytes() == whole.tobytes()
        rng = np.random.default_rng(seed)
        pieces = np.concatenate([prob.sample_weights(dist, k, rng) for k in (1, 7, 160, 132)])
        assert pieces.tobytes() == whole.tobytes()


def test_pros_monte_carlo_memory_does_not_grow_with_samples():
    inst = gen_random(4, 4, num_features=3, seed=2)
    matching = Matching((0, 1, 2, 3))
    assert any(textbook_blockers(inst, matching, s) for s in range(inst.n))
    tracemalloc.start()
    try:
        pros_monte_carlo(inst, matching, samples=2_000_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


# ---------------------------------------------------------------------------
# the integer atom kernel against per-atom Fraction oracles
# ---------------------------------------------------------------------------

BIG_PRIMES = (999_983, 1_000_003, 1_000_033, 1_000_037)


def _grid_atoms(rng, features: int, denominator: int) -> DiscreteWeights:
    """One to five atoms with weights on a 1/denominator grid and random probabilities."""
    raw = [int(x) for x in rng.integers(1, 5, int(rng.integers(1, 6)))]
    weights = [rng.multinomial(denominator, [1 / features] * features) for _ in raw]
    return DiscreteWeights(
        tuple((tuple(F(int(x), denominator) for x in w), F(r, sum(raw))) for w, r in zip(weights, raw))
    )


def _quarter_grid(base: Instance, rng, denominator: int) -> Instance:
    """Utilities on a quarter grid and atoms on a 1/denominator grid, so that
    w . gain = 0 at many atoms."""
    k = base.num_features
    utilities = tuple(
        tuple(tuple(F(int(x), 4) for x in rng.integers(0, 5, base.m)) for _ in range(k))
        for _ in range(base.n)
    )
    dists = tuple(_grid_atoms(rng, k, denominator) for _ in range(base.n))
    return replace(base, utilities=utilities, weight_dists=dists)


def _atom_family(kind: str, seed: int) -> Instance:
    rng = np.random.default_rng(seed)
    if kind == "grid-200":
        base = gen_random(4, 4, seed=seed)
        points = tuple(F(2 * i + 1, 400) for i in range(200))
        grid = DiscreteWeights(tuple(((x, 1 - x), F(1, 200)) for x in points))
        return replace(base, weight_dists=(grid,) * base.n)
    if kind == "big-denominator":
        # w1 = 1/p for four primes near 10**6, so the common denominator
        # passes 2**63; student 0's colleges 0 and 1 tie exactly at w1 = 1/p0
        base = gen_random(3, 3, seed=seed)
        probs = [F(int(x), 1_000_003) for x in rng.integers(1, 250_000, 3)]
        probs.append(1 - sum(probs))
        dist = DiscreteWeights(tuple(((F(1, p), 1 - F(1, p)), q) for p, q in zip(BIG_PRIMES, probs)))
        u, half = base.utilities[0], F(1, 2 * BIG_PRIMES[0])
        tie = ((F(1, 2), half, u[0][2]), (F(0), half, u[1][2]))
        return replace(base, utilities=(tie,) + base.utilities[1:], weight_dists=(dist,) * base.n)
    features = 2 if kind == "quarter-2f" else 3
    return _quarter_grid(gen_random(3, 4, num_features=features, dist_kind="discrete", seed=seed), rng, 8)


def _check_atom_kernel(inst: Instance, matchings) -> None:
    for s in range(inst.n):
        dist = inst.weight_dists[s]
        atoms = dist.atoms
        mean = tuple(sum((p * w[f] for w, p in atoms), F(0)) for f in range(dist.dim))
        assert dist.mean == mean and all(type(x) is F for x in dist.mean)
        for c in range(inst.m):
            values = [row[c] for row in inst.utilities[s]]
            plain = sum((p * sum(x * v for x, v in zip(w, values)) for w, p in atoms), F(0))
            got = expected_utility(inst, s, c)
            assert got == plain and type(got) is F
        for ci, cj in itertools.permutations(range(inst.m), 2):
            for strict in (True, False):
                assert pr_prefers(inst, s, ci, cj, strict) == atom_prefers(inst, s, ci, cj, strict)
        for size in range(2, inst.m + 1):
            for pool in itertools.combinations(range(inst.m), size):
                for c in pool:
                    assert pr_top(inst, s, c, pool) == atom_top(inst, s, c, pool)
        if dist.dim == 2:
            # closed ends landing exactly on atoms
            ends = {F(0), F(1), F(1, 2), mean[0]} | {w[0] for w, _ in atoms[:3] + atoms[-2:]}
            for lo, hi in itertools.product(sorted(ends), repeat=2):
                plain = sum((p for w, p in atoms if lo <= w[0] <= hi), F(0))
                got = dist.w1_measure(lo, hi)
                assert got == plain and type(got) is F
    for matching in matchings:
        result = pros_exact_discrete(inst, matching)
        assert result.kind == "exact" and type(result.value) is F
        assert result.value == atom_pros(inst, matching)


@pytest.mark.parametrize("kind", ["quarter-2f", "quarter-3f", "grid-200", "big-denominator"])
def test_atom_kernel_matches_fraction_oracles(kind):
    for seed in range({"grid-200": 1, "big-denominator": 3}.get(kind, 4)):
        inst = _atom_family(kind, 3100 + seed)
        # the big denominators leave int64 for Python ints; the others fit
        assert (inst.weight_dists[0].kernel[0].dtype == object) == (kind == "big-denominator")
        matchings = list(enumerate_matchings(inst))
        _check_atom_kernel(inst, matchings[:: 9 if kind == "grid-200" else 1])


@settings(max_examples=25)
@given(
    seed=st.integers(0, 10**6),
    features=st.sampled_from([2, 3]),
    denominator=st.sampled_from([2, 4, 6, 12, 999_983]),
)
def test_atom_kernel_property(seed, features, denominator):
    base = gen_random(3, 3, num_features=features, dist_kind="discrete", seed=seed)
    inst = _quarter_grid(base, np.random.default_rng(seed), denominator)
    _check_atom_kernel(inst, enumerate_matchings(inst))
