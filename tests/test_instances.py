from fractions import Fraction as F

import pytest

from featmatch.gda import Strategy, run_gda
from featmatch.instances import (
    FAMILIES,
    canonical,
    gen_random,
    golden_ratio,
    herf_tight,
    icr_conflict,
    non_transitive,
    reduce_to_uniform,
    vanishing_ratio,
    worked_example,
)
from featmatch.model import (
    BetaWeights,
    DiscreteWeights,
    Matching,
    UniformSimplex,
    ValidationError,
)
from featmatch.prob import expected_utility, pr_prefers, pros_exact_2f


def test_gen_random_contract_and_determinism():
    a = gen_random(3, 3, num_features=2, dist_kind="uniform_simplex", seed=7)
    b = gen_random(3, 3, num_features=2, dist_kind="uniform_simplex", seed=7)
    assert a == b
    c = gen_random(3, 3, num_features=2, dist_kind="uniform_simplex", seed=8)
    assert a != c
    assert all(0 < u < 1 for per in a.utilities for row in per for u in row)

    seats = gen_random(4, 2, capacities=(2, 2), seed=1)
    assert sum(seats.capacities) == seats.n

    spread = gen_random(5, 3, capacities="spread", seed=1)
    assert sum(spread.capacities) == 5

    disc = gen_random(2, 2, dist_kind="discrete", num_features=3, seed=3)
    assert all(isinstance(d, DiscreteWeights) for d in disc.weight_dists)

    beta = gen_random(2, 2, dist_kind=("beta2", 2.0, 5.0), seed=3)
    assert all(isinstance(d, BetaWeights) for d in beta.weight_dists)

    with pytest.raises(ValidationError):
        gen_random(0, 3, seed=1)


def test_family_dispatch():
    assert list(FAMILIES) == [
        "example1", "example2", "example3", "icr-conflict",
        "vanishing-ratio", "herf-tight", "golden-ratio", "non-transitive",
    ]
    builders = {
        "example1": (lambda: worked_example(1), {}),
        "example2": (lambda: worked_example(2), {}),
        "example3": (lambda: worked_example(3), {}),
        "icr-conflict": (icr_conflict, dict(delta=F(1, 5), eps=F(1, 100))),
        "vanishing-ratio": (vanishing_ratio, dict(eps=F(1, 500))),
        "herf-tight": (herf_tight, dict(n=4, delta=F(1, 12), eps=F(1, 10**5))),
        "golden-ratio": (golden_ratio, dict(k=1, y=F(3, 10), z=F(2, 5))),
        "non-transitive": (non_transitive, {}),
    }
    assert builders.keys() == FAMILIES.keys()
    for name, (builder, params) in builders.items():
        assert canonical(name, **params) == builder(**params)
    # parameters left out take the builder's defaults
    assert canonical("vanishing-ratio") == vanishing_ratio()
    assert canonical("herf-tight", n=3) == herf_tight(3)
    with pytest.raises(ValidationError, match="unknown family"):
        canonical("nope")
    with pytest.raises(ValidationError, match="herf-tight.*missing a required argument: 'n'"):
        canonical("herf-tight")
    with pytest.raises(ValidationError, match="example1.*unexpected keyword argument 'delta'"):
        canonical("example1", delta=F(1, 5))
    # a given parameter reaches the builder, even a zero
    with pytest.raises(ValidationError, match="delta and eps must be positive"):
        canonical("icr-conflict", delta=F(0))


def test_icr_conflict_structure():
    inst = icr_conflict()
    d, e = F(1, 10), F(1, 1000)
    assert pr_prefers(inst, 0, 1, 0, strict=False) == (d + 4 * e) / (2 * d + 6 * e)
    assert pr_prefers(inst, 0, 1, 2, strict=False) == (d + 2 * e) / (2 * d + 2 * e)
    # matching the uncertain student to her probably-better college is costly
    at_c2 = Matching.from_ids(inst, {"s1": "c2", "s2": "c1", "s3": "c3"})
    at_c1 = Matching.from_ids(inst, {"s1": "c1", "s2": "c2", "s3": "c3"})
    lo = pros_exact_2f(inst, at_c2).value
    hi = pros_exact_2f(inst, at_c1).value
    assert lo == e * (d + 2 * e) / ((d + e) * (d + 3 * e))
    assert hi == (d + 2 * e) / (2 * d + 6 * e)
    assert lo < hi


def test_vanishing_ratio_collapse():
    inst = vanishing_ratio()
    expected = {"s1": "c3", "s2": "c2", "s3": "c1"}
    for strategy in (Strategy.HEUF, Strategy.LOCV, Strategy.LOICV):
        matching, _ = run_gda(inst, strategy)
        assert matching.to_ids(inst) == expected


def test_family_parameter_validation():
    with pytest.raises(ValidationError):
        vanishing_ratio(F(1), F(1))  # utilities escape [0,1]
    with pytest.raises(ValidationError):
        icr_conflict(F(0), F(1, 10))
    with pytest.raises(ValidationError):
        herf_tight(1)
    with pytest.raises(ValidationError):
        herf_tight(3, F(1, 10), F(1, 10))  # eps must stay below delta/2
    with pytest.raises(ValidationError):
        herf_tight(3, F(2), F(1, 100))
    with pytest.raises(ValidationError):
        golden_ratio(1, F(1, 10), F(1, 2))  # y below the utility floor
    with pytest.raises(ValidationError):
        golden_ratio(0, F(3, 10), F(1, 2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_herf_tight_window_formula(n):
    delta = F(1, n * (n - 1))
    eps = delta / 64
    inst = herf_tight(n, delta, eps)
    matching, _ = run_gda(inst, Strategy.HERF)
    assert all(matching.college_of(s) == s for s in range(n))
    assert pros_exact_2f(inst, matching).value == (F(1, n) + 2 * eps / (n * delta)) ** n
    cyclic = Matching(tuple((s - 1) % n for s in range(n)))
    assert pros_exact_2f(inst, cyclic).value == 1


def test_golden_ratio_tails_are_certain():
    gr = golden_ratio(2, F(3, 10), F(2, 5))
    # cross-triple colleges sit strictly below every specified utility,
    # identically on both features, so cross-triple preferences are certain
    for s in range(6):
        rows = gr.utilities[s]
        other = range(3, 6) if s < 3 else range(0, 3)
        for c in other:
            assert rows[0][c] == rows[1][c]


def test_non_transitive_pins():
    nt = non_transitive()
    assert nt.num_features == 3 and nt.n == 1 and nt.m == 3
    assert nt.utilities[0][0][0] == F(13, 20)
    assert nt.utilities[0][1][1] == F(1, 20)
    assert nt.utilities[0][2][2] == F(7, 10)


# ---------------------------------------------------------------------------
# uniform-equivalence rescaling
# ---------------------------------------------------------------------------


def test_reduce_uniform_fixed_point():
    inst = worked_example(1)
    res = reduce_to_uniform(inst, 0)
    assert res.a == F(1, 2)
    assert res.instance == inst


def test_reduce_symmetric_beta():
    base = gen_random(3, 3, dist_kind=("beta2", 3.0, 3.0), seed=10)
    res = reduce_to_uniform(base, 1)
    assert res.a == F(1, 2)
    assert isinstance(res.instance.weight_dists[1], UniformSimplex)
    assert res.instance.utilities == base.utilities  # scale factors are both 1
    for c in range(3):
        before = float(expected_utility(base, 1, c))
        after = float(expected_utility(res.instance, 1, c))
        assert abs(before - after) < 1e-9


def test_reduce_rejections():
    disc = gen_random(2, 2, dist_kind="discrete", seed=11)
    with pytest.raises(ValidationError, match="distribution not continuous"):
        reduce_to_uniform(disc, 0)
    skew = gen_random(2, 2, dist_kind=("beta2", 2.0, 5.0), seed=11)
    with pytest.raises(ValidationError, match="median"):
        reduce_to_uniform(skew, 0)
    three = non_transitive()
    with pytest.raises(ValidationError):
        reduce_to_uniform(three, 0)


def test_reduce_preserves_pairwise_sides_and_matchings():
    for seed in range(10):
        base = gen_random(3, 3, dist_kind=("beta2", 2.0, 2.0), seed=1200 + seed)
        cur = base
        for s in range(3):
            cur = reduce_to_uniform(cur, s).instance
        for s in range(3):
            for ci in range(3):
                for cj in range(3):
                    if ci == cj:
                        continue
                    before = float(pr_prefers(base, s, ci, cj, strict=False))
                    after = pr_prefers(cur, s, ci, cj, strict=False)
                    assert (before >= 0.5) == (after >= F(1, 2))
        for strategy in (Strategy.HEUF, Strategy.LOICV):
            mb, _ = run_gda(base, strategy)
            ma, _ = run_gda(cur, strategy)
            assert mb.assignment == ma.assignment
