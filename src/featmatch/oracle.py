"""Brute-force ground truth on desk-scale instances: exhaustive optimal
stability search, approximation ratios, the random-trial ratio experiment,
incentive audits and transitivity checks.

The audits try a finite misreport space (all deterministic strict orders,
encoded as identical utility columns), so "no violation found" is evidence
against manipulability, not a certification over the infinite report space.

The default space is scanned by menus.  A GDA run is textbook deferred
acceptance over fixed proposal orders (see ``gda``), and every other
student's order lives in her own table, so it does not depend on what
student s reports.  Student-proposing deferred acceptance is strategy-proof
for students (Dubins & Freedman 1981), so with the others fixed, s's outcome
under any report is her favourite college, by that report, in a menu that
her report does not change (Hammond 1979, the taxation principle).  A
deterministic strict-order report has 0/1 pairwise probabilities, so under
every rule her proposal order is exactly that order.  Hence one rerun per
college finds the menu: c is in it iff s gets c when she ranks c first.
Each of the m! orders then gets its first college in the menu, or nothing.
"""

from __future__ import annotations

import itertools
import math
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


def _order_rows(inst: Instance, perm) -> tuple:
    """The deterministic strict order ``perm`` (best first) as a utility
    table with identical columns across features valued (m - rank)/m."""
    row = [Fraction(0)] * inst.m
    for rank, c in enumerate(perm):
        row[c] = Fraction(inst.m - rank, inst.m)
    return (tuple(row),) * inst.num_features


def _order_label(inst: Instance, perm) -> str:
    return ">".join(inst.colleges[c] for c in perm)


def order_misreports(inst: Instance) -> Iterator[tuple[str, tuple]]:
    """All m! deterministic strict orders over colleges, as utility tables
    with identical columns across features valued (m - rank)/m, best first."""
    for perm in itertools.permutations(range(inst.m)):
        yield _order_label(inst, perm), _order_rows(inst, perm)


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


def _menu(inst: Instance, strategy: Strategy, s: int, samples, seed) -> set[int]:
    """The colleges student s can get by some report, the others' reports
    fixed: c is in it iff she gets c when her report ranks c first and the
    other colleges after it by index."""
    menu = set()
    for c in range(inst.m):
        perm = [c] + [d for d in range(inst.m) if d != c]
        outcome, _ = run_gda(inst.with_report(s, _order_rows(inst, perm)), strategy, samples=samples, seed=seed)
        if outcome.college_of(s) == c:
            menu.add(c)
    return menu


def improvement_scan(
    inst: Instance,
    strategy: Strategy,
    misreport_space: Union[Iterable[tuple[str, tuple]], None] = None,
    budget: int = 250_000,
    samples: int = DEFAULT_SAMPLES,
    seed: Union[int, None] = None,
) -> tuple[int, list[tuple[int, str, Union[Fraction, float]]]]:
    """The number of misreports tried and every (student, misreport,
    improvement probability) with positive improvement probability under
    the true preferences, student by student in misreport order.

    The default space is every deterministic strict order plus the student's
    own truthful report (a sanity anchor whose outcome is the truthful one).
    It is scanned by menus (see the module docstring): m reruns per student
    instead of m! + 1, since with the others' reports fixed her outcome under
    any report is her favourite college in her menu (Dubins & Freedman 1981;
    Hammond 1979).  A caller-supplied ``misreport_space`` reruns the
    mechanism under each of its reports."""
    if misreport_space is None:
        reports = math.factorial(inst.m) + 1
    else:
        shared = list(itertools.islice(misreport_space, budget + 1))
        reports = len(shared)
    if inst.n * reports > budget:
        raise BudgetExceededError(
            f"misreport space too large: {inst.n} students x {reports} reports > budget {budget}"
        )
    truthful, _ = run_gda(inst, strategy, samples=samples, seed=seed)
    improvements = []
    for s in range(inst.n):
        old_c = truthful.college_of(s)
        if misreport_space is None:
            menu = _menu(inst, strategy, s, samples, seed)
            outcomes = (
                (_order_label(inst, perm), next((c for c in perm if c in menu), None))
                for perm in itertools.permutations(range(inst.m))
            )
        else:
            outcomes = (
                (label, run_gda(inst.with_report(s, rows), strategy, samples=samples, seed=seed)[0].college_of(s))
                for label, rows in shared
            )
        probs = {}  # new college -> improvement probability
        for label, new_c in outcomes:
            if new_c not in probs:
                probs[new_c] = _improvement_prob(inst, s, new_c, old_c, samples, seed)
            if probs[new_c] > 0:
                improvements.append((s, label, probs[new_c]))
    return inst.n * reports, improvements


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
