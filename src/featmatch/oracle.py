"""Brute-force ground truth on desk-scale instances: exhaustive optimal
stability search, approximation ratios, the random-trial ratio experiment,
incentive audits and transitivity checks.

The audits try a finite misreport space (all deterministic strict orders,
encoded as identical utility columns), so "no violation found" is evidence
against manipulability, not a certification over the infinite report space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

import numpy as np

from .gda import Strategy, run_gda
from .instances import gen_random
from .model import Instance, Matching, ProsResult, ValidationError, format_rational
from .prob import DEFAULT_SAMPLES, pr_prefers, pros_exact

__all__ = [
    "BudgetExceededError",
    "OptResult",
    "IcAuditReport",
    "IcViolation",
    "enumerate_matchings",
    "optimal_pros",
    "approx_ratio",
    "ExperimentConfig",
    "run_experiment",
    "order_misreports",
    "audit_ic",
    "check_transitivity",
]

DEFAULT_BUDGET = 10_000_000
DEFAULT_SEED = 42
AUDIT_NOTE = "finite misreport space: absence of violations is evidence, not certification"


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


def enumerate_matchings(inst: Instance, budget: int = DEFAULT_BUDGET) -> Iterator[Matching]:
    """Yield every capacity-feasible assignment exactly once, including
    unmatched options.  Students choose in index order (None, c1, ..., cm)
    by backtracking over remaining capacity."""
    if (inst.m + 1) ** inst.n > budget:
        raise BudgetExceededError(
            f"search space (m+1)^n = {(inst.m + 1) ** inst.n} exceeds budget {budget}"
        )
    assignment: list[Union[int, None]] = [None] * inst.n
    remaining = list(inst.capacities)

    def rec(s: int) -> Iterator[Matching]:
        if s == inst.n:
            yield Matching(tuple(assignment))
            return
        assignment[s] = None
        yield from rec(s + 1)
        for c in range(inst.m):
            if remaining[c] > 0:
                remaining[c] -= 1
                assignment[s] = c
                yield from rec(s + 1)
                assignment[s] = None
                remaining[c] += 1

    return rec(0)


@dataclass(frozen=True)
class OptResult:
    best_matching: Matching
    best_pros: ProsResult
    matchings_examined: int


def optimal_pros(inst: Instance, budget: int = DEFAULT_BUDGET) -> OptResult:
    """Exhaustively maximize the stability probability with the exact
    evaluator; ties keep the first matching in enumeration order."""
    best: Union[Matching, None] = None
    best_val: Union[ProsResult, None] = None
    count = 0
    for matching in enumerate_matchings(inst, budget):
        count += 1
        result = pros_exact(inst, matching)
        if best_val is None or result.value > best_val.value:
            best, best_val = matching, result
    assert best is not None and best_val is not None
    return OptResult(best_matching=best, best_pros=best_val, matchings_examined=count)


def approx_ratio(inst: Instance, strategy: Strategy, budget: int = DEFAULT_BUDGET):
    """ProS of the strategy's matching over the optimal ProS (1 if the
    optimum were 0, which cannot happen: some matching is always stable
    for each realized preference profile)."""
    opt = optimal_pros(inst, budget)
    return _ratio(pros_exact(inst, run_gda(inst, strategy)[0]).value, opt.best_pros.value)


def _ratio(alg, opt):
    """alg / opt, exact when both are Fractions; 1 when opt is 0."""
    if opt == 0:
        return Fraction(1)
    if isinstance(alg, Fraction) and isinstance(opt, Fraction):
        return alg / opt
    return float(alg) / float(opt)


@dataclass(frozen=True)
class ExperimentConfig:
    trials: int = 500
    sizes: tuple[int, ...] = (3, 4)
    capacities: str = "ones"  # ones | spread
    strategies: tuple[Strategy, ...] = tuple(Strategy)
    seed: int = DEFAULT_SEED
    budget: int = DEFAULT_BUDGET


def _trial_seed(master: int, size: int, trial: int) -> int:
    ss = np.random.SeedSequence(entropy=master, spawn_key=(size, trial))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """One row per (size, trial, strategy); deterministic in config.seed.
    Trials draw their generator seed from (master seed, size, trial index),
    so any parallel split over trials would reproduce the serial result."""
    rows = []
    for size in config.sizes:
        for trial in range(config.trials):
            seed = _trial_seed(config.seed, size, trial)
            inst = gen_random(size, size, capacities=config.capacities, num_features=2, seed=seed)
            opt_val = optimal_pros(inst, budget=config.budget).best_pros.value
            for strategy in config.strategies:
                matching, _ = run_gda(inst, strategy)
                alg_val = pros_exact(inst, matching).value
                ratio = _ratio(alg_val, opt_val)
                rows.append(
                    {
                        "trial": trial,
                        "seed": seed,
                        "n": size,
                        "m": size,
                        "strategy": strategy.value,
                        "algorithm_pros": f"{float(alg_val):.12g}",
                        "optimal_pros": f"{float(opt_val):.12g}",
                        "ratio": f"{float(ratio):.12g}",
                        "algorithm_pros_exact": format_rational(alg_val),
                        "optimal_pros_exact": format_rational(opt_val),
                        "ratio_exact": format_rational(ratio),
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# incentive audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IcViolation:
    student: str
    misreport: str
    improvement_prob: Union[Fraction, float]


@dataclass(frozen=True)
class IcAuditReport:
    level: str
    violations: tuple[IcViolation, ...]
    misreports_tried: int
    note: str = AUDIT_NOTE

    @property
    def ok(self) -> bool:
        return not self.violations


def order_misreports(inst: Instance) -> Iterator[tuple[str, tuple]]:
    """All m! deterministic strict orders over colleges, as utility tables
    with identical columns across features valued (m - rank)/m, best first."""
    m, k = inst.m, inst.num_features
    for perm in itertools.permutations(range(m)):
        label = ">".join(inst.colleges[c] for c in perm)
        row = [Fraction(0)] * m
        for rank, c in enumerate(perm):
            row[c] = Fraction(m - rank, m)
        yield label, tuple(tuple(row) for _ in range(k))


def _improvement_prob(inst: Instance, s: int, new_c, old_c, samples, seed):
    """Pr[new assignment strictly beats old] under the student's true
    utilities and weights; unmatched counts as worse than any college."""
    if new_c == old_c:
        return Fraction(0)
    if new_c is None:
        return Fraction(0)
    if old_c is None:
        return Fraction(1)
    return pr_prefers(inst, s, new_c, old_c, strict=True, samples=samples, seed=seed)


def improvement_scan(
    inst: Instance,
    strategy: Strategy,
    misreport_space: Union[Iterable[tuple[str, tuple]], None] = None,
    budget: int = 250_000,
    samples: int = DEFAULT_SAMPLES,
    seed: Union[int, None] = None,
) -> tuple[int, list[tuple[int, str, Union[Fraction, float]]]]:
    """Rerun the mechanism under each misreport of each student; return the
    number of reruns and every (student, misreport, improvement probability)
    with positive improvement probability under the true preferences.

    The default space is every deterministic strict order plus the student's
    own truthful report (a sanity anchor whose improvement is always 0)."""
    shared = list(order_misreports(inst)) if misreport_space is None else list(misreport_space)
    per_student = 1 if misreport_space is None else 0
    if inst.n * (len(shared) + per_student) > budget:
        raise BudgetExceededError(
            f"misreport space too large: {inst.n} students x {len(shared) + per_student} "
            f"reports > budget {budget}"
        )
    truthful, _ = run_gda(inst, strategy, samples=samples, seed=seed)
    improvements = []
    tried = 0
    for s in range(inst.n):
        old_c = truthful.college_of(s)
        space = shared + ([("truthful", inst.utilities[s])] if per_student else [])
        for label, rows in space:
            tried += 1
            altered = inst.with_report(s, rows)
            outcome, _ = run_gda(altered, strategy, samples=samples, seed=seed)
            prob = _improvement_prob(inst, s, outcome.college_of(s), old_c, samples, seed)
            if prob > 0:
                improvements.append((s, label, prob))
    return tried, improvements


def audit_ic(
    inst: Instance,
    strategy: Strategy,
    level: str = "ic-c",
    misreport_space: Union[Iterable[tuple[str, tuple]], None] = None,
    budget: int = 250_000,
    samples: int = DEFAULT_SAMPLES,
    seed: Union[int, None] = None,
) -> IcAuditReport:
    """Record every misreport whose assignment beats the truthful one with
    certainty (ic-c) or with probability above 1/2 (ic-r)."""
    if level not in ("ic-c", "ic-r"):
        raise ValidationError("audit level must be 'ic-c' or 'ic-r'")
    tried, improvements = improvement_scan(inst, strategy, misreport_space, budget, samples, seed)
    bound = Fraction(1) if level == "ic-c" else Fraction(1, 2)
    violations = tuple(
        IcViolation(inst.students[s], label, prob)
        for s, label, prob in improvements
        if (prob == 1 if level == "ic-c" else prob > bound)
    )
    return IcAuditReport(level=level, violations=violations, misreports_tried=tried)


# ---------------------------------------------------------------------------
# transitivity of the at-least-even-chance relation
# ---------------------------------------------------------------------------


def check_transitivity(
    inst: Instance,
    s: int,
    samples: int = DEFAULT_SAMPLES,
    seed: Union[int, None] = None,
):
    """First ordered college triple (i, j, k) with weak(i,j) >= 1/2,
    weak(j,k) >= 1/2 but weak(i,k) < 1/2, or None.  Two-feature instances
    can never produce one; three or more features can."""
    half = Fraction(1, 2)
    weak = {}

    def w(a, b):
        if (a, b) not in weak:
            weak[(a, b)] = pr_prefers(inst, s, a, b, strict=False, samples=samples, seed=seed)
        return weak[(a, b)]

    for i, j, k in itertools.permutations(range(inst.m), 3):
        if w(i, j) >= half and w(j, k) >= half and w(i, k) < half:
            return (i, j, k)
    return None
