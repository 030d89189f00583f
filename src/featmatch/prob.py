"""Probability computations over aggregated preferences.

With two features, whether a student prefers college ``i`` to college ``j``
reduces to which side of a threshold ``eta`` the first feature's weight
falls on: writing ``D1 = |u_f1(i) - u_f1(j)|`` and ``D2 = |u_f2(i) - u_f2(j)|``,
the cutoff is ``eta = D2 / (D1 + D2)`` (0 when D2 = 0) and the four sign
patterns of the per-feature differences give the cases below.  Stability
probabilities then factor per student into the measure of one weight
interval.  Exact rational arithmetic is used whenever every input on the
path is rational; estimation is never silently substituted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np

from .model import (
    DiscreteWeights,
    Instance,
    Matching,
    ProsResult,
    ValidationError,
    WeightDistribution,
)

__all__ = [
    "PairwiseCase",
    "HalfSpace",
    "BlockInterval",
    "stability_interval",
    "ALWAYS",
    "NEVER",
    "THRESHOLD_ABOVE",
    "THRESHOLD_BELOW",
    "pairwise_case_2f",
    "pr_prefers",
    "pr_top",
    "expected_utility",
    "mean_weight",
    "MeanWeight",
    "potential_blockers",
    "pros_exact_2f",
    "pros_exact_discrete",
    "pros_exact",
    "pros_monte_carlo",
    "sample_weights",
    "halfspace_form",
]

Prob = Union[Fraction, float]

DEFAULT_SAMPLES = 100_000

ALWAYS = "always"
NEVER = "never"
THRESHOLD_ABOVE = "threshold_above"
THRESHOLD_BELOW = "threshold_below"


@dataclass(frozen=True)
class PairwiseCase:
    """Outcome of the two-feature case split for one ordered college pair.

    tag "always": i strictly beats j for every weight vector.
    tag "never": i never strictly beats j.
    tag "threshold_above": i strictly beats j iff w_f1 > eta.
    tag "threshold_below": i strictly beats j iff w_f1 < eta.
    """

    tag: str
    eta: Union[Fraction, None] = None

    def __post_init__(self):
        if self.tag in (THRESHOLD_ABOVE, THRESHOLD_BELOW):
            if self.eta is None or not (0 <= self.eta <= 1):
                raise ValidationError("threshold case needs eta in [0,1]")
        elif self.eta is not None:
            raise ValidationError("eta only belongs to threshold cases")


@dataclass(frozen=True)
class HalfSpace:
    """Linear form of a pairwise preference at any feature count: the event
    "i beats j" is normal . w_head (<|<=) offset, where w_head drops the
    last feature's weight.  strict selects < over <=."""

    normal: tuple
    offset: Fraction
    strict: bool = True


@dataclass(frozen=True)
class BlockInterval:
    """Closed window of first-feature weights on which a matched student
    participates in no block; its measure is her stability factor."""

    lower: Fraction
    upper: Fraction
    lower_closed: bool = True
    upper_closed: bool = True

    def __post_init__(self):
        if not (0 <= self.lower <= 1 and 0 <= self.upper <= 1):
            raise ValidationError("interval ends must lie in [0,1]")

    @property
    def empty(self) -> bool:
        return self.lower > self.upper


@lru_cache(maxsize=None)
def _case4(u1i: Fraction, u2i: Fraction, u1j: Fraction, u2j: Fraction) -> PairwiseCase:
    if u1i > u1j and u2i > u2j:
        return PairwiseCase(ALWAYS)
    if u1i <= u1j and u2i <= u2j:
        return PairwiseCase(NEVER)
    d1, d2 = abs(u1i - u1j), abs(u2i - u2j)
    eta = Fraction(0) if d2 == 0 else d2 / (d1 + d2)
    if u1i > u1j:
        return PairwiseCase(THRESHOLD_ABOVE, eta)
    return PairwiseCase(THRESHOLD_BELOW, eta)


def pairwise_case_2f(inst: Instance, s: int, ci: int, cj: int) -> PairwiseCase:
    """Classify Pr[ci beats cj strictly] for a two-feature student."""
    if inst.num_features != 2:
        raise ValidationError("pairwise case split requires exactly 2 features")
    return _case4(
        inst.utility(s, 0, ci),
        inst.utility(s, 1, ci),
        inst.utility(s, 0, cj),
        inst.utility(s, 1, cj),
    )


def _case_prob(dist: WeightDistribution, case: PairwiseCase) -> Prob:
    if case.tag == ALWAYS:
        return Fraction(1)
    if case.tag == NEVER:
        return Fraction(0)
    if case.tag == THRESHOLD_ABOVE:
        return dist.w1_measure(case.eta, 1, open_lo=True)
    return dist.w1_measure(0, case.eta, open_hi=True)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_weights(dist: WeightDistribution, k: int, rng: np.random.Generator) -> np.ndarray:
    """Draw k weight vectors, shape (k, dim)."""
    return dist.sample(k, rng)


def _student_rng(seed: int, s: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(s,)))


# Monte Carlo kernels over per-sample weighted scores, shape (samples, colleges)


def _noblock_fraction(scores: np.ndarray, match: int, cand) -> float:
    """Fraction of samples where no candidate college strictly beats the match."""
    return float(1.0 - (scores[:, cand] > scores[:, match][:, None]).any(axis=1).mean())


def _strict_fraction(scores: np.ndarray, i: int, j: int) -> float:
    """Fraction of samples where college i scores strictly above college j."""
    return float((scores[:, i] > scores[:, j]).mean())


def _top_fraction(scores: np.ndarray, c: int, pool) -> float:
    """Fraction of samples where college c weakly beats every pool member."""
    return float((scores[:, c][:, None] >= scores[:, pool]).all(axis=1).mean())


# ---------------------------------------------------------------------------
# pairwise and top-rank probabilities
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 16)
def _discrete_pair_cached(atoms, ui, uj, strict: bool) -> Fraction:
    total = Fraction(0)
    for w, p in atoms:
        si = sum(w[f] * ui[f] for f in range(len(ui)))
        sj = sum(w[f] * uj[f] for f in range(len(uj)))
        if (si > sj) if strict else (si >= sj):
            total += p
    return total


def _discrete_pair(inst: Instance, s: int, ci: int, cj: int, strict: bool) -> Fraction:
    k = inst.num_features
    return _discrete_pair_cached(
        inst.weight_dists[s].atoms,
        tuple(inst.utility(s, f, ci) for f in range(k)),
        tuple(inst.utility(s, f, cj) for f in range(k)),
        strict,
    )


def _mc_pair(inst: Instance, s: int, ci: int, cj: int, strict: bool, samples: int, seed) -> float:
    if seed is None:
        raise ValidationError("Monte Carlo path requires an explicit seed")
    # stream keyed on the unordered pair so strict(i,j) + weak(j,i) = 1 holds
    # exactly even on the estimated path
    key = (s, min(ci, cj), max(ci, cj))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
    w = sample_weights(inst.weight_dists[s], samples, rng)
    scores = w @ inst.utilities_f64[s]
    if strict:
        return _strict_fraction(scores, ci, cj)
    return 1.0 - _strict_fraction(scores, cj, ci)


def pr_prefers(
    inst: Instance,
    s: int,
    ci: int,
    cj: int,
    strict: bool = True,
    samples: int = DEFAULT_SAMPLES,
    seed: Union[int, None] = None,
) -> Prob:
    """Probability that student s prefers college ci to cj.

    Exact for discrete distributions (any number of features, atoms honor
    the strict/weak flag) and for two-feature uniform weights; closed-form
    via the regularized incomplete beta for the beta family; a seeded Monte
    Carlo estimate otherwise.  The weak probability is one minus the strict
    probability with the roles swapped.
    """
    if ci == cj:
        raise ValidationError("pairwise probability needs two distinct colleges")
    dist = inst.weight_dists[s]
    if isinstance(dist, DiscreteWeights):
        return _discrete_pair(inst, s, ci, cj, strict)
    if inst.num_features == 2:
        if strict:
            return _case_prob(dist, pairwise_case_2f(inst, s, ci, cj))
        return 1 - _case_prob(dist, pairwise_case_2f(inst, s, cj, ci))
    return _mc_pair(inst, s, ci, cj, strict, samples, seed)


def pr_top(
    inst: Instance,
    s: int,
    c: int,
    pool: Iterable[int],
    samples: int = DEFAULT_SAMPLES,
    seed: Union[int, None] = None,
) -> Prob:
    """Probability that c weakly beats every other pool member at once.

    For two features the per-opponent weak events are threshold intervals on
    the first feature's weight, so the answer is the measure of their
    intersection; discrete supports are enumerated at any dimension.
    """
    pool = sorted(set(pool))
    if c not in pool:
        raise ValidationError("college must belong to the pool")
    rivals = [d for d in pool if d != c]
    if not rivals:
        return Fraction(1)
    dist = inst.weight_dists[s]

    if isinstance(dist, DiscreteWeights):
        total = Fraction(0)
        for w, p in dist.atoms:
            sc = sum(w[f] * inst.utility(s, f, c) for f in range(inst.num_features))
            if all(
                sc >= sum(w[f] * inst.utility(s, f, d) for f in range(inst.num_features))
                for d in rivals
            ):
                total += p
        return total

    if inst.num_features == 2:
        lo, hi = Fraction(0), Fraction(1)
        for d in rivals:
            case = pairwise_case_2f(inst, s, d, c)  # rival beats c strictly when...
            if case.tag == ALWAYS:
                return dist.w1_measure(1, 0)  # an empty window: the distribution's zero
            if case.tag == THRESHOLD_ABOVE:
                hi = min(hi, case.eta)
            elif case.tag == THRESHOLD_BELOW:
                lo = max(lo, case.eta)
        return dist.w1_measure(lo, hi)

    if seed is None:
        raise ValidationError("Monte Carlo path requires an explicit seed")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(s, c, 104729)))
    w = sample_weights(dist, samples, rng)
    scores = w @ inst.utilities_f64[s]
    return _top_fraction(scores, c, rivals)


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------


def expected_utility(inst: Instance, s: int, c: int) -> Prob:
    """E over the weight distribution of the weighted utility of college c."""
    return inst.weight_dists[s].expected([row[c] for row in inst.utilities[s]])


@dataclass(frozen=True)
class MeanWeight:
    """Componentwise weight expectation, with the two tail probabilities of
    the first feature against its own mean when |F| = 2 (None otherwise)."""

    mean: tuple
    below: Union[Fraction, float, None]
    above: Union[Fraction, float, None]


def mean_weight(inst: Instance, s: int) -> MeanWeight:
    dist = inst.weight_dists[s]
    mean = dist.mean
    if inst.num_features != 2:
        return MeanWeight(mean, None, None)
    return MeanWeight(mean, dist.w1_measure(0, mean[0]), dist.w1_measure(mean[0], 1))


# ---------------------------------------------------------------------------
# probability of stability
# ---------------------------------------------------------------------------


def potential_blockers(inst: Instance, matching: Matching, s: int) -> list[int]:
    """Colleges that could block with s on the college side: a free seat or
    an enrollee ranked below s.  Preference-side filtering happens later."""
    out = []
    match = matching.college_of(s)
    for c in range(inst.m):
        if c == match:
            continue
        enrolled = matching.students_of(c)
        if len(enrolled) < inst.capacities[c] or any(inst.prefers(c, s, t) for t in enrolled):
            out.append(c)
    return out


def stability_interval(inst: Instance, matching: Matching, s: int) -> Union[BlockInterval, None]:
    """The closed window of first-feature weights on which matched student s
    has no strict block, or None when no window exists (the student is
    unmatched, or some potential blocker dominates her assignment)."""
    if inst.num_features != 2:
        raise ValidationError("stability intervals require exactly 2 features")
    dist = inst.weight_dists[s]
    match = matching.college_of(s)
    if match is None:
        return None
    lo, hi = Fraction(0), Fraction(1)
    for c in potential_blockers(inst, matching, s):
        case = pairwise_case_2f(inst, s, c, match)
        if _case_prob(dist, case) == 0:
            continue
        if case.tag == ALWAYS:
            return None
        if case.tag == THRESHOLD_ABOVE:
            hi = min(hi, case.eta)
        else:
            lo = max(lo, case.eta)
    if lo > hi:
        return BlockInterval(Fraction(1), Fraction(0))  # canonical empty window
    return BlockInterval(lo, hi)


def _student_noblock_2f(inst: Instance, matching: Matching, s: int) -> Prob:
    dist = inst.weight_dists[s]
    if matching.college_of(s) is None:
        # every acceptable college strictly beats being unmatched
        return Fraction(0) if potential_blockers(inst, matching, s) else Fraction(1)
    window = stability_interval(inst, matching, s)
    if window is None or window.empty:
        return Fraction(0)
    return dist.w1_measure(window.lower, window.upper)


def pros_exact_2f(inst: Instance, matching: Matching) -> ProsResult:
    """Stability probability of a matching with |F| = 2, by the per-student
    interval factorization.  Exact rational for uniform/discrete weights;
    deterministic closed form when beta-family students are present."""
    if inst.num_features != 2:
        raise ValidationError("exact two-feature path requires exactly 2 features")
    _require_feasible(inst, matching)
    factors = [_student_noblock_2f(inst, matching, s) for s in range(inst.n)]
    return _product_result(factors)


def pros_exact_discrete(inst: Instance, matching: Matching) -> ProsResult:
    """Exact stability probability when every student has discrete weights:
    enumerate each student's support and count the no-block atoms."""
    if not all(isinstance(d, DiscreteWeights) for d in inst.weight_dists):
        raise ValidationError("discrete path requires discrete weights for every student")
    _require_feasible(inst, matching)
    k = inst.num_features
    factors = []
    for s in range(inst.n):
        match = matching.college_of(s)
        candidates = potential_blockers(inst, matching, s)
        if match is None:
            factors.append(Fraction(0) if candidates else Fraction(1))
            continue
        good = Fraction(0)
        for w, p in inst.weight_dists[s].atoms:
            sm = sum(w[f] * inst.utility(s, f, match) for f in range(k))
            if all(
                sum(w[f] * inst.utility(s, f, c) for f in range(k)) <= sm for c in candidates
            ):
                good += p
        factors.append(good)
    return _product_result(factors)


def pros_exact(inst: Instance, matching: Matching) -> ProsResult:
    """Dispatch to whichever exact evaluator applies, or raise."""
    if all(isinstance(d, DiscreteWeights) for d in inst.weight_dists):
        return pros_exact_discrete(inst, matching)
    if inst.num_features == 2:
        return pros_exact_2f(inst, matching)
    raise ValidationError("no exact stability evaluator for this instance")


def pros_monte_carlo(inst: Instance, matching: Matching, samples: int, seed: int) -> ProsResult:
    """Estimate the stability probability by per-student sampling.

    Students' weight draws are independent, so the no-block fractions are
    estimated per student from separate substreams of the given seed and
    multiplied; the standard error is the exact standard deviation of the
    product of the independent per-student estimators (delta-method form).
    Deterministic for a fixed seed regardless of scheduling.
    """
    if samples < 1:
        raise ValidationError("sample count must be positive")
    _require_feasible(inst, matching)
    fractions = []
    for s in range(inst.n):
        match = matching.college_of(s)
        candidates = potential_blockers(inst, matching, s)
        if match is None:
            fractions.append(0.0 if candidates else 1.0)
            continue
        if not candidates:
            fractions.append(1.0)
            continue
        rng = _student_rng(seed, s)
        w = sample_weights(inst.weight_dists[s], samples, rng)
        scores = w @ inst.utilities_f64[s]
        fractions.append(_noblock_fraction(scores, match, candidates))
    value = float(np.prod(fractions))
    # Var(prod X_s) = prod(var_s + mean_s^2) - prod(mean_s^2), plug-in estimates
    second = 1.0
    for p in fractions:
        second *= p * (1.0 - p) / samples + p * p
    stderr = math.sqrt(max(0.0, second - value * value))
    return ProsResult(value=value, kind="estimate", stderr=stderr, samples=samples, seed=seed)


def _require_feasible(inst: Instance, matching: Matching) -> None:
    from .model import validate_matching

    verdict = validate_matching(inst, matching)
    if not verdict.ok:
        raise ValidationError(f"infeasible matching: {verdict.violations[0]}")


def _product_result(factors: Sequence[Prob]) -> ProsResult:
    if all(isinstance(f, Fraction) for f in factors):
        value = Fraction(1)
        for f in factors:
            value *= f
        return ProsResult(value=value, kind="exact")
    value = 1.0
    for f in factors:
        value *= float(f)
    return ProsResult(value=value, kind="closed_form")


# ---------------------------------------------------------------------------
# halfspace form for |F| >= 3 (used by quadrature oracles and diagnostics)
# ---------------------------------------------------------------------------


def halfspace_form(inst: Instance, s: int, ci: int, cj: int, strict: bool = True) -> HalfSpace:
    """Linear form with Pr[ci beats cj] = Pr[normal . w_head (<|<=) offset],
    where w_head drops the last feature's weight (length |F| - 1)."""
    k = inst.num_features
    deltas = [inst.utility(s, f, ci) - inst.utility(s, f, cj) for f in range(k)]
    normal = tuple(deltas[k - 1] - deltas[f] for f in range(k - 1))
    return HalfSpace(normal=normal, offset=deltas[k - 1], strict=strict)
