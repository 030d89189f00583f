"""Probability computations over aggregated preferences.

With two features, whether a student prefers college ``i`` to college ``j``
reduces to which side of a threshold ``eta`` the first feature's weight
falls on: writing ``D1 = |u_f1(i) - u_f1(j)|`` and ``D2 = |u_f2(i) - u_f2(j)|``,
the cutoff is ``eta = D2 / (D1 + D2)`` (0 when D2 = 0) and the four sign
patterns of the per-feature differences give the cases below.  Stability
probabilities then factor per student into the measure of one weight
interval.  Exact rational arithmetic is used whenever every input on the
path is rational; estimation is never silently substituted.

The case split runs on integers.  A student's utility rows are ``U / du``
(``Instance.utilities_int``), and the common denominator cancels from every
difference, so each cutoff is the integer pair ``(D2, D1 + D2)`` of the
rows of ``U``, and ``_window`` compares window ends by cross-multiplying.
Fractions are built only where a window or cutoff is measured
(``w1_measure``) and for the public ``PairwiseCase`` and ``BlockInterval``.

A student's pairwise facts depend only on her own utilities and weights, so
they are built once into a per-student table on ``Instance.pair_facts`` (see
``_facts``), which also holds her proposal order under each rule (see
``gda``).  The audit's menu probes build no report at all (see ``oracle``),
so every table belongs to a student's true utilities.

Discrete weights are evaluated on integers.  A distribution's ``kernel``
holds its support as ``W / dw`` and its probabilities as ``P / dp``, and a
student's utilities are ``U / du``, built once per student as the view
``Instance.utilities_int``, so the atom scores ``W @ U`` are exact integers
and an event over atoms has probability ``DiscreteWeights.mass(mask)``, an
integer sum over ``dp``.  ``_factor`` and ``pros_exact_discrete`` go through
it; the strict table is one integer product per row, ``P`` times the masks
of the atoms where college i scores above each college.

Potential blockers come from one integer cutoff per college and matching
(``_cutoffs``): n while the college has a free seat, else the worst
``college_rank`` among its enrollees; college c can block with student s iff
``college_rank[c][s] < cutoff[c]``.  A student's stability factor depends
only on her table, her college and her set of blockers, so the table also
holds a factor memo under that key (``_factor``: the weight window for two
features, the atom mask for discrete weights), and ``pros_exact_2f`` stops at
the first zero factor when every weight distribution is exact.
``oracle.optimal_pros`` reads the same memo, and so does ``pr_top``: "c
weakly beats every rival" is "no rival strictly beats c", the factor of c
against the rivals as blockers.

On the Monte Carlo path an estimate depends only on the seed, its substream
key and the sample count.  ``_mc_counts`` draws the substream's weights in
consecutive blocks of ``MC_BLOCK`` rows, scores each block and counts the rows
where each event holds, so no estimate is ever held whole and memory does
not grow with the sample count; the blocks give the same floats as one draw
of every row.  A fraction is a count over the sample count.  The table keeps
both strict fractions of a college pair under their (samples, seed), from one
pass over the pair's substream, so repeated comparisons cost a lookup and
stay bit-identical.  A top-rank fraction is counted afresh on each call:
proposal orders are kept in the table too, so no (college, rivals) question
is asked twice.  A no-block fraction in ``pros_monte_carlo`` counts the same
top-rank event, match against blockers, on the student's own substream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .model import (
    DiscreteWeights,
    Instance,
    Matching,
    ProsResult,
    ValidationError,
    WeightDistribution,
    integer_matmul,
    validate_matching,
)

__all__ = [
    "PairwiseCase",
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
class BlockInterval:
    """Closed window of first-feature weights on which a matched student
    participates in no block; its measure is her stability factor."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if not (0 <= self.lower <= 1 and 0 <= self.upper <= 1):
            raise ValidationError("interval ends must lie in [0,1]")

    @property
    def empty(self) -> bool:
        return self.lower > self.upper


def _case(u1i: int, u2i: int, u1j: int, u2j: int) -> tuple:
    """The case split of "i strictly beats j" on integer utilities: (tag,
    eta), eta an integer pair (D2, D1 + D2) for the threshold tags, else
    None.  In a threshold case one feature strictly favours i, so D1 + D2 > 0."""
    if u1i > u1j and u2i > u2j:
        return ALWAYS, None
    if u1i <= u1j and u2i <= u2j:
        return NEVER, None
    d1, d2 = abs(u1i - u1j), abs(u2i - u2j)
    return (THRESHOLD_ABOVE if u1i > u1j else THRESHOLD_BELOW), (d2, d1 + d2)


def _case_prob(dist: WeightDistribution, case: tuple) -> Prob:
    tag, eta = case
    if tag == ALWAYS:
        return Fraction(1)
    if tag == NEVER:
        return Fraction(0)
    # only uniform and beta students reach here (discrete strict probabilities
    # come from the atoms), so whether an end is open changes no measure
    if tag == THRESHOLD_ABOVE:
        return dist.w1_measure(Fraction(*eta), 1)
    return dist.w1_measure(0, Fraction(*eta))


# ---------------------------------------------------------------------------
# per-student table of pairwise facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Facts:
    cases: Union[list, None]  # cases[ci][cj]: _case of "ci strictly beats cj"; two features only
    # discrete only: the exact integer score matrix W @ U, atoms x colleges, for
    # the support W / dw and the utilities U / du (see DiscreteWeights.kernel)
    atoms: Union[np.ndarray, None]
    # strict[ci][cj] = Pr[ci strictly beats cj]; closed form for beta2, else exact;
    # None on the Monte Carlo path (not discrete, not two features)
    strict: Union[list, None]
    factors: dict = field(default_factory=dict)  # (college, blockers) -> stability factor; see _factor
    orders: dict = field(default_factory=dict)  # (rule, samples, seed) -> proposal order; see gda
    # Monte Carlo path: (samples, seed, ci, cj) -> strict fraction; see pr_prefers
    estimates: dict = field(default_factory=dict)


def _facts(inst: Instance, s: int) -> _Facts:
    """Student s's table, built on first use."""
    facts = inst.pair_facts[s]
    if facts is not None:
        return facts
    dist, k, m = inst.weight_dists[s], inst.num_features, inst.m
    cases = atoms = strict = None
    if k == 2 or isinstance(dist, DiscreteWeights):
        u = inst.utilities_int[s][0]  # the utilities times their common denominator
    if k == 2:
        a, b = u.tolist()
        cases = [[_case(a[i], b[i], a[j], b[j]) for j in range(m)] for i in range(m)]
    if isinstance(dist, DiscreteWeights):
        W, _, P, dp = dist.kernel
        atoms = integer_matmul(W, u)
        # row i: P times the mask of atoms where college i beats each college
        strict = [[Fraction(int(x), dp) for x in P @ (atoms[:, [i]] > atoms).astype(P.dtype)] for i in range(m)]
    elif cases is not None:
        strict = [[_case_prob(dist, case) for case in row] for row in cases]
    facts = inst.pair_facts[s] = _Facts(cases, atoms, strict)
    return facts


def _window(facts: _Facts, c: int, rivals: Iterable[int]):
    """(lo, hi): first-feature weights at which no rival strictly beats c, or
    None if one always does.  Each end is an integer pair (num, den), den > 0,
    from the case split.  Rivals of strict probability 0 change no measure."""
    lo, hi = (0, 1), (1, 1)
    for d in rivals:
        if facts.strict[d][c] == 0:
            continue
        tag, eta = facts.cases[d][c]
        if tag == ALWAYS:
            return None
        if tag == THRESHOLD_ABOVE:
            if _below(eta, hi):
                hi = eta
        elif _below(lo, eta):
            lo = eta
    return lo, hi


def _below(a: tuple, b: tuple) -> bool:
    """a < b for integer pairs (num, den) with den > 0, by cross-multiplying."""
    return a[0] * b[1] < b[0] * a[1]


def pairwise_case_2f(inst: Instance, s: int, ci: int, cj: int) -> PairwiseCase:
    """Classify Pr[ci beats cj strictly] for a two-feature student."""
    if inst.num_features != 2:
        raise ValidationError("pairwise case split requires exactly 2 features")
    tag, eta = _facts(inst, s).cases[ci][cj]
    return PairwiseCase(tag, None if eta is None else Fraction(*eta))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_weights(dist: WeightDistribution, k: int, rng: np.random.Generator) -> np.ndarray:
    """Draw k weight vectors, shape (k, dim)."""
    return dist.sample(k, rng)


def _check_mc(samples: int, seed) -> None:
    if seed is None:
        raise ValidationError("Monte Carlo path requires an explicit seed")
    if samples < 1:
        raise ValidationError("sample count must be positive")


MC_BLOCK = 16_384  # weight draws per block on the Monte Carlo path


def _mc_counts(inst: Instance, s: int, samples: int, seed, key: tuple, events: Sequence) -> list[int]:
    """For each event, on how many of `samples` weight draws from substream
    `key` of `seed` it holds for student s.  An event maps a block of weighted
    scores, shape (rows, colleges), to one bool per row.  The draws are made
    and scored in consecutive blocks of ``MC_BLOCK`` rows, which give the same
    floats as one draw of every row, so memory does not grow with `samples`.
    Callers check `samples` and `seed` first (``_check_mc``)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
    dist, utilities = inst.weight_dists[s], inst.utilities_f64[s]
    counts = [0] * len(events)
    for start in range(0, samples, MC_BLOCK):
        scores = sample_weights(dist, min(MC_BLOCK, samples - start), rng) @ utilities
        for i, event in enumerate(events):
            counts[i] += int(np.count_nonzero(event(scores)))
    return counts


# Monte Carlo events over a block of weighted scores, shape (rows, colleges)


def _beats(i: int, j: int):
    """College i scores strictly above college j."""
    return lambda scores: scores[:, i] > scores[:, j]


def _weakly_tops(c: int, rivals: list[int]):
    """College c scores at least as high as every rival."""
    return lambda scores: (scores[:, [c]] >= scores[:, rivals]).all(axis=1)


# ---------------------------------------------------------------------------
# pairwise and top-rank probabilities
# ---------------------------------------------------------------------------


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
    facts = _facts(inst, s)
    if facts.strict is not None:
        return facts.strict[ci][cj] if strict else 1 - facts.strict[cj][ci]
    _check_mc(samples, seed)
    key = (samples, seed, ci, cj) if strict else (samples, seed, cj, ci)
    if key not in facts.estimates:
        # stream keyed on the unordered pair so strict(i,j) + weak(j,i) = 1
        # holds exactly even on the estimated path; one draw gives both orders
        lo, hi = min(ci, cj), max(ci, cj)
        above, below = _mc_counts(inst, s, samples, seed, (s, lo, hi), (_beats(lo, hi), _beats(hi, lo)))
        facts.estimates[(samples, seed, lo, hi)] = above / samples
        facts.estimates[(samples, seed, hi, lo)] = below / samples
    return facts.estimates[key] if strict else 1.0 - facts.estimates[key]


def pr_top(
    inst: Instance,
    s: int,
    c: int,
    pool: Iterable[int],
    samples: int = DEFAULT_SAMPLES,
    seed: Union[int, None] = None,
) -> Prob:
    """Probability that c weakly beats every other pool member at once.

    This is the event "no rival strictly beats c", so on the exact path it is
    the stability factor of c against the rivals (``_factor``) and lands in,
    and reuses, the same memo in the student's table.  On the Monte Carlo
    path it is counted afresh on every call: its callers fix each proposal
    order once, so the same question is not asked again.
    """
    pool = sorted(set(pool))
    if c not in pool:
        raise ValidationError("college must belong to the pool")
    rivals = tuple(d for d in pool if d != c)
    if not rivals:
        return Fraction(1)
    if _facts(inst, s).strict is not None:
        return _factor(inst, s, c, rivals)
    _check_mc(samples, seed)
    (top,) = _mc_counts(inst, s, samples, seed, (s, c, 104729), (_weakly_tops(c, list(rivals)),))
    return top / samples


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------


def expected_utility(inst: Instance, s: int, c: int) -> Prob:
    """E over the weight distribution of the weighted utility of college c:
    w . u(c) is linear in w, so it is the mean weight dotted with u(c)."""
    return sum(w * row[c] for w, row in zip(inst.weight_dists[s].mean, inst.utilities[s]))


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


def _cutoffs(inst: Instance, matching: Matching) -> list[int]:
    """One integer per college: n while it has a free seat, else the worst
    ``college_rank`` among its enrollees.  College c can block with student s
    iff ``college_rank[c][s] < cutoff[c]``."""
    rank = inst.college_rank
    load = [0] * inst.m
    worst = [0] * inst.m
    for s, c in enumerate(matching.assignment):
        if c is not None:
            load[c] += 1
            if rank[c][s] > worst[c]:
                worst[c] = rank[c][s]
    return [inst.n if load[c] < cap else worst[c] for c, cap in enumerate(inst.capacities)]


def _blockers(inst: Instance, cutoffs: list[int], s: int, match) -> tuple[int, ...]:
    """The colleges other than s's match that could block with her, by the cutoffs."""
    rank = inst.college_rank
    return tuple(c for c, cut in enumerate(cutoffs) if c != match and rank[c][s] < cut)


def potential_blockers(inst: Instance, matching: Matching, s: int) -> list[int]:
    """Colleges that could block with s on the college side: a free seat or
    an enrollee ranked below s (see ``_cutoffs``).  Preference-side
    filtering happens later."""
    return list(_blockers(inst, _cutoffs(inst, matching), s, matching.college_of(s)))


def stability_interval(inst: Instance, matching: Matching, s: int) -> Union[BlockInterval, None]:
    """The closed window of first-feature weights on which matched student s
    has no strict block, or None when no window exists (the student is
    unmatched, or some potential blocker dominates her assignment)."""
    if inst.num_features != 2:
        raise ValidationError("stability intervals require exactly 2 features")
    match = matching.college_of(s)
    if match is None:
        return None
    window = _window(_facts(inst, s), match, potential_blockers(inst, matching, s))
    if window is None:
        return None
    lo, hi = window
    if _below(hi, lo):
        return BlockInterval(Fraction(1), Fraction(0))  # canonical empty window
    return BlockInterval(Fraction(*lo), Fraction(*hi))


_ZERO, _ONE = Fraction(0), Fraction(1)
_EXACT_ZERO = ProsResult(value=_ZERO, kind="exact")


def _factor(inst: Instance, s: int, match, blockers: tuple[int, ...]) -> Prob:
    """Student s's stability factor: the probability that no blocker strictly
    beats her match (``pr_top`` asks the same of a college and its rivals).
    With two features it is the measure of a window of first-feature weights;
    otherwise (discrete weights only) it is the mass of the atoms where
    ``W @ (u_c - u_match) <= 0`` for every blocker c, as
    ``pros_exact_discrete`` computes it.  It depends only on her table, her
    college and her blockers, so her table memoizes it under that key (at
    most m * 2^(m-1) entries).  Fewer blockers never give a smaller factor."""
    if match is None:
        # every acceptable college strictly beats being unmatched
        return _ZERO if blockers else _ONE
    facts = _facts(inst, s)
    key = (match, blockers)
    factor = facts.factors.get(key)
    if factor is None:
        if facts.cases is None:
            atoms = facts.atoms  # W @ U, so column c minus column match is W @ (u_c - u_match)
            factor = inst.weight_dists[s].mass((atoms[:, list(blockers)] <= atoms[:, [match]]).all(axis=1))
        else:
            window = _window(facts, match, blockers)
            if window is None or _below(window[1], window[0]):
                factor = _ZERO
            else:
                lo, hi = window
                factor = inst.weight_dists[s].w1_measure(Fraction(*lo), Fraction(*hi))
        facts.factors[key] = factor
    return factor


def pros_exact_2f(inst: Instance, matching: Matching) -> ProsResult:
    """Stability probability of a matching with |F| = 2, by the per-student
    interval factorization.  Exact rational for uniform/discrete weights;
    deterministic closed form when beta-family students are present.  When
    every weight distribution is exact, the first zero factor ends the product."""
    if inst.num_features != 2:
        raise ValidationError("exact two-feature path requires exactly 2 features")
    _require_feasible(inst, matching)
    cutoffs = _cutoffs(inst, matching)
    factors = []
    for s, match in enumerate(matching.assignment):
        factor = _factor(inst, s, match, _blockers(inst, cutoffs, s, match))
        if factor == 0 and all(dist.exact for dist in inst.weight_dists):
            return _EXACT_ZERO
        factors.append(factor)
    return _product_result(factors)


def pros_exact_discrete(inst: Instance, matching: Matching) -> ProsResult:
    """Exact stability probability when every student has discrete weights:
    the mass of each student's no-block atoms, scored afresh on every call
    through her distribution's integer kernel (no memo, so this stays
    independent of ``pros_exact_2f``)."""
    if not all(isinstance(d, DiscreteWeights) for d in inst.weight_dists):
        raise ValidationError("discrete path requires discrete weights for every student")
    _require_feasible(inst, matching)
    cutoffs = _cutoffs(inst, matching)
    factors = []
    for s, match in enumerate(matching.assignment):
        candidates = _blockers(inst, cutoffs, s, match)
        if match is None:
            factors.append(Fraction(0) if candidates else Fraction(1))
            continue
        dist = inst.weight_dists[s]
        u, _ = inst.utilities_int[s]
        # c strictly beats the match at w iff w . (u_c - u_match) > 0
        gains = integer_matmul(dist.kernel[0], u[:, list(candidates)] - u[:, [match]])
        factors.append(dist.mass((gains <= 0).all(axis=1)))
    return _product_result(factors)


def _exact_evaluator(inst: Instance):
    """The exact stability evaluator for this instance (every student
    discrete, or two features), or None: the one test of whether an exact
    path exists, read by ``pros_exact``, ``oracle.optimal_pros`` and the CLI.
    It returns the module global, so a wrapper bound there is the one called."""
    if all(isinstance(d, DiscreteWeights) for d in inst.weight_dists):
        return pros_exact_discrete
    if inst.num_features == 2:
        return pros_exact_2f
    return None


def _require_exact(inst: Instance):
    """``_exact_evaluator(inst)``, raising ValidationError when it is None."""
    evaluator = _exact_evaluator(inst)
    if evaluator is None:
        raise ValidationError("no exact stability evaluator for this instance")
    return evaluator


def pros_exact(inst: Instance, matching: Matching) -> ProsResult:
    """Dispatch to whichever exact evaluator applies, or raise."""
    return _require_exact(inst)(inst, matching)


def pros_monte_carlo(inst: Instance, matching: Matching, samples: int, seed: int) -> ProsResult:
    """Estimate the stability probability by per-student sampling.

    Students' weight draws are independent, so the no-block fractions are
    estimated per student from separate substreams of the given seed and
    multiplied; the standard error is the exact standard deviation of the
    product of the independent per-student estimators (delta-method form).
    Deterministic for a fixed seed regardless of scheduling.
    """
    _check_mc(samples, seed)
    _require_feasible(inst, matching)
    cutoffs = _cutoffs(inst, matching)
    fractions = []
    for s, match in enumerate(matching.assignment):
        candidates = list(_blockers(inst, cutoffs, s, match))
        if match is None:
            fractions.append(0.0 if candidates else 1.0)
            continue
        if not candidates:
            fractions.append(1.0)
            continue
        (kept,) = _mc_counts(inst, s, samples, seed, (s,), (_weakly_tops(match, candidates),))
        # 1 - blocked / samples can differ from kept / samples in the last bit; seeded estimates keep the former
        blocked = samples - kept
        fractions.append(1.0 - blocked / samples)
    value = float(np.prod(fractions))
    # Var(prod X_s) = prod(var_s + mean_s^2) - prod(mean_s^2), plug-in estimates
    second = 1.0
    for p in fractions:
        second *= p * (1.0 - p) / samples + p * p
    stderr = math.sqrt(max(0.0, second - value * value))
    return ProsResult(value=value, kind="estimate", stderr=stderr, samples=samples, seed=seed)


def _require_feasible(inst: Instance, matching: Matching) -> None:
    verdict = validate_matching(inst, matching)
    if not verdict.ok:
        raise ValidationError(f"infeasible matching: {verdict.violations[0]}")


def _product_result(factors: Sequence[Prob]) -> ProsResult:
    """Exact when every factor is a Fraction, else a float closed form;
    factors equal to 1 are skipped, which changes neither."""
    exact = all(isinstance(f, Fraction) for f in factors)
    value = Fraction(1) if exact else 1.0
    for f in factors:
        if f != 1:
            value *= f if exact else float(f)
    return ProsResult(value=value, kind="exact" if exact else "closed_form")
