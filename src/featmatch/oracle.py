"""Brute-force ground truth on desk-scale instances: exhaustive optimal
stability search, approximation ratios, the random-trial ratio experiment,
incentive audits and transitivity checks.

The audits try a finite misreport space (all deterministic strict orders,
encoded as identical utility columns, and the truthful report), so "no
violation found" is evidence against manipulability, not a certification
over the infinite report space.

The space is scanned by menus.  A GDA run is textbook deferred
acceptance over fixed proposal orders (see ``gda``), and every other
student's order lives in her own table, so it does not depend on what
student s reports.  Student-proposing deferred acceptance is strategy-proof
for students (Dubins & Freedman 1981), so with the others fixed, s's outcome
under any report is her favourite college, by that report, in a menu that
her report does not change (Hammond 1979, the taxation principle).  A
deterministic strict-order report has 0/1 pairwise probabilities, so under
every rule her proposal order is exactly that order, so c is in her menu
iff she gets c when she ranks c first.  Deferred acceptance reaches the same
matching whatever order the proposals come in (McVitie & Wilson 1971), so
the menu is found by the run without s, resumed once per college: from that
run's final state s proposes down the strict order that ranks c first and
the rest by index, and c is in the menu iff she ends up holding c
(``gda._walk``).  No report table is built.  Each of the m! orders then gets
its first college in the menu, or nothing.

The scan also covers every utility-table report, one that replaces the
student's utility table, ties included.  Under any such report the student
proposes down one full order that the report alone fixes (the prefix
property in ``gda``), so her outcome is the first college of that order in
her menu, and the strict order that ranks that college first reaches it
too.  An improvement probability depends only on the outcome, so no
utility-table report finds a violation that the strict orders miss.
Misreported weight distributions are not enumerated.  A report that also
replaces the student's weight distribution still fixes one full order of
hers, so the same argument covers it; the tests check this for flat,
two-atom and integer-shape beta reports at the given samples and seed.

The optimum is found by depth-first branch and bound (Land & Doig 1960).
Students are placed in index order and each tries the options of
``enumerate_matchings`` in its order: unmatched first, then colleges by
index.  Each college keeps its load and its worst enrollee's rank, undone on
backtrack.  Once students 0..k-1 are placed, a college whose worst enrollee
ranks below placed student t certainly blocks with her (unless it is her
match): its final cutoff is either that rank, when it fills with no one
better, or worse.  A student's stability factor only shrinks as blockers are
added, so her factor under her certain blockers bounds her final one, and
students not yet placed count 1.  The product of these bounds, taken in
student order, bounds every completion; a subtree is pruned as soon as the
running product is at most the best value so far, so the search stops once
a matching scores 1, and ties keep the first best matching in enumeration
order.  Leaves are scored from the same memoized factors (``prob._factor``)
and combined by ``prob._product_result``, without the feasibility check of
``pros_exact``: they are feasible by construction.

The bound is also sound for closed-form (beta) float factors.
``_product_result`` multiplies the factors in student order, skipping 1s, as
floats once any factor is a float.  Rounding is monotone and every factor is
at most 1, so that float product can only shrink as further factors are
multiplied in, and it cannot grow when a factor is replaced by a smaller
one; the float prefix product of the bounds therefore bounds the final float
product.  A product can stay an exact Fraction on such an instance only if
every factor is a Fraction, so until a float factor appears the exact prefix
product is kept too and the larger of the two is the bound.  (A placed
student whose bound is a float has a nonempty window, so her final factor is
a float or 0, and an exact final product is then 0.)
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

from .gda import Strategy, _table_orders, _walk, run_gda
from .instances import gen_random
from .model import Instance, Matching, ProsResult, ValidationError, format_rational
from .prob import DEFAULT_SAMPLES, _factor, _product_result, _require_exact, pr_prefers, pros_exact

__all__ = [
    "BudgetExceededError",
    "OptResult",
    "IcAuditReport",
    "IcViolation",
    "enumerate_matchings",
    "count_matchings",
    "optimal_pros",
    "approx_ratio",
    "ExperimentConfig",
    "run_experiment",
    "audit_ic",
    "check_transitivity",
]

DEFAULT_BUDGET = 10_000_000  # (m + 1)^n assignments for the optimum search
AUDIT_BUDGET = 250_000  # n * (m! + 1) misreports for the incentive audit
DEFAULT_SEED = 42
AUDIT_NOTE = "finite misreport space: absence of violations is evidence, not certification"


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


def _check_budget(inst: Instance, budget: int) -> None:
    if (inst.m + 1) ** inst.n > budget:
        raise BudgetExceededError(
            f"search space (m+1)^n = {(inst.m + 1) ** inst.n} exceeds budget {budget}"
        )


def enumerate_matchings(inst: Instance, budget: int = DEFAULT_BUDGET) -> Iterator[Matching]:
    """Yield every capacity-feasible assignment exactly once, including
    unmatched options.  Students choose in index order (None, c1, ..., cm)
    by backtracking over remaining capacity."""
    _check_budget(inst, budget)
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


@functools.cache
def _completions(students: int, seats: tuple[int, ...]) -> int:
    """The number of ways to place ``students`` labelled students, each in
    one of the colleges with ``seats`` free seats or unmatched, by a DP over
    the colleges on the number of students still unplaced."""
    ways = [0] * students + [1]  # ways[r]: assignments leaving r students unplaced
    for cap in seats:
        nxt = [0] * (students + 1)
        for r, w in enumerate(ways):
            for a in range(min(cap, r) + 1):
                nxt[r - a] += w * math.comb(r, a)
        ways = nxt
    return sum(ways)


def _count(students: int, seats) -> int:
    return _completions(students, tuple(sorted(min(q, students) for q in seats if q)))


def count_matchings(inst: Instance) -> int:
    """The number of matchings ``enumerate_matchings`` yields, without
    enumerating them."""
    return _count(inst.n, inst.capacities)


@dataclass(frozen=True)
class OptResult:
    best_matching: Matching
    best_pros: ProsResult
    matchings_examined: int  # the size of the feasible space
    matchings_evaluated: int  # complete matchings the search scored
    pruned: int  # matchings in subtrees the bound cut; evaluated + pruned = examined


def optimal_pros(inst: Instance, budget: int = DEFAULT_BUDGET) -> OptResult:
    """Maximize the stability probability over every feasible matching by
    depth-first branch and bound with the certain-blocker bound (see the
    module docstring); exact, and ties keep the first matching in
    enumeration order."""
    _check_budget(inst, budget)
    _require_exact(inst)
    n, m, caps = inst.n, inst.m, inst.capacities
    ranks = [[inst.college_rank[c][t] for c in range(m)] for t in range(n)]  # ranks[t][c]
    exact = all(dist.exact for dist in inst.weight_dists)
    assignment: list[Union[int, None]] = [None] * n
    load = [0] * m
    worst = [-1] * m  # worst enrollee's rank, -1 while empty: no final cutoff is lower
    best_value, best_assignment, best_result = -1, None, None  # -1 is below every value
    best_num, best_den = -1, 1  # best_value as an exact integer ratio
    evaluated = pruned = 0

    def scan(k: int, cutoffs: list[int]):
        """Factors of students 0..k-1 under the cutoffs, or None as soon as
        the bound on their product is at most the best value.  The bound is
        the exact product num / den (kept unreduced, 0 once a factor is a
        float) and, on an inexact instance, also ``_product_result``'s
        float product; it must be at most the best value in both."""
        factors = []
        num, den, rounded = 1, 1, 1.0
        for t in range(k):
            match, rank = assignment[t], ranks[t]
            factor = _factor(inst, t, match, tuple([c for c in range(m) if c != match and rank[c] < cutoffs[c]]))
            factors.append(factor)
            if factor == 1:
                continue
            if isinstance(factor, Fraction):
                num, den = num * factor.numerator, den * factor.denominator
            else:
                num = 0
            if not exact:
                rounded *= float(factor)
            if num * best_den <= best_num * den and (exact or rounded <= best_value):
                return None
        return factors

    def place(k: int) -> None:
        nonlocal best_value, best_num, best_den, best_assignment, best_result, evaluated, pruned
        if best_num >= best_den or scan(k, worst) is None:  # nothing beats a value of 1
            pruned += _count(n - k, [cap - used for cap, used in zip(caps, load)])
            return
        if k == n:
            evaluated += 1
            factors = scan(n, [n if used < cap else w for cap, used, w in zip(caps, load, worst)])
            if factors is not None:
                result = _product_result(factors)
                if result.value > best_value:
                    best_value, best_assignment, best_result = result.value, tuple(assignment), result
                    best_num, best_den = best_value.as_integer_ratio()
            return
        place(k + 1)  # student k unmatched
        for c in range(m):
            if load[c] < caps[c]:
                previous = worst[c]
                load[c] += 1
                worst[c] = max(previous, ranks[k][c])
                assignment[k] = c
                place(k + 1)
                assignment[k] = None
                worst[c] = previous
                load[c] -= 1

    place(0)
    return OptResult(
        best_matching=Matching(best_assignment),
        best_pros=best_result,
        matchings_examined=count_matchings(inst),
        matchings_evaluated=evaluated,
        pruned=pruned,
    )


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
    if config.seed < 0:
        raise ValidationError(f"seed must be non-negative, got {config.seed}")
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


def _order_label(inst: Instance, perm) -> str:
    return ">".join(inst.colleges[c] for c in perm)


def _menu(inst: Instance, strategy: Strategy, s: int, samples, seed) -> set[int]:
    """The colleges student s can get by some report, the others' reports
    fixed: c is in it iff she gets c proposing to c first.  Found by the run
    without s, resumed once per college with s proposing down c and then the
    other colleges by index (McVitie & Wilson 1971; see ``gda._walk``).  Her
    slot in ``orders``, a list of this call's own, is replaced; her table's
    list is never written."""
    strategy = Strategy(strategy)
    orders = _table_orders(inst, strategy, samples, seed)
    held, proposed = [[] for _ in range(inst.m)], [0] * inst.n
    _walk(inst, strategy, orders, held, proposed, [t for t in range(inst.n) if t != s], samples, seed)
    menu = set()
    for c in range(inst.m):
        orders[s] = [c, *(d for d in range(inst.m) if d != c)]
        probe = [list(seats) for seats in held]
        _walk(inst, strategy, orders, probe, list(proposed), [s], samples, seed)
        if s in probe[c]:
            menu.add(c)
    return menu


def improvement_scan(
    inst: Instance,
    strategy: Strategy,
    budget: int = AUDIT_BUDGET,
    samples: int = DEFAULT_SAMPLES,
    seed: Union[int, None] = None,
) -> tuple[int, list[tuple[int, str, Union[Fraction, float]]]]:
    """The number of misreports tried and every (student, misreport,
    improvement probability) with positive improvement probability under
    the true preferences, student by student in misreport order.

    The space is every deterministic strict order plus the student's own
    truthful report (a sanity anchor whose outcome is the truthful one).  It
    is scanned by menus (see the module docstring): per student, the run
    without her, resumed once per college, instead of m! + 1 reruns, since
    with the others' reports fixed her outcome under any report is her
    favourite college in her menu (Dubins & Freedman 1981; Hammond 1979).
    Every utility-table report reaches an outcome that some strict order
    reaches, so the scan covers that whole space.  Each of the at most m + 1
    outcomes has its improvement probability, and its sign, decided once,
    and a student with no gaining menu college has no order labelled."""
    reports = math.factorial(inst.m) + 1
    if inst.n * reports > budget:
        raise BudgetExceededError(
            f"misreport space too large: {inst.n} students x {reports} reports > budget {budget}"
        )
    truthful, _ = run_gda(inst, strategy, samples=samples, seed=seed)
    improvements = []
    for s in range(inst.n):
        old_c = truthful.college_of(s)
        menu = _menu(inst, strategy, s, samples, seed)
        gains = {}  # menu college -> Pr[it strictly beats old_c], when positive
        # old_c is never None here: her truthful outcome is the first college of
        # her order in her menu, so an unmatched student has an empty menu
        for c in menu - {old_c}:
            prob = pr_prefers(inst, s, c, old_c, strict=True, samples=samples, seed=seed)
            if prob > 0:
                gains[c] = prob
        if not gains:
            continue
        for perm in itertools.permutations(range(inst.m)):
            new_c = next(c for c in perm if c in menu)  # gains is not empty, so neither is the menu
            if new_c in gains:
                improvements.append((s, _order_label(inst, perm), gains[new_c]))
    return inst.n * reports, improvements


def audit_ic(
    inst: Instance,
    strategy: Strategy,
    level: str = "ic-c",
    budget: int = AUDIT_BUDGET,
    samples: int = DEFAULT_SAMPLES,
    seed: Union[int, None] = None,
) -> IcAuditReport:
    """Record every misreport whose assignment beats the truthful one with
    certainty (ic-c) or with probability above 1/2 (ic-r), over the space
    that ``improvement_scan`` scans."""
    if level not in ("ic-c", "ic-r"):
        raise ValidationError("audit level must be 'ic-c' or 'ic-r'")
    tried, improvements = improvement_scan(inst, strategy, budget, samples, seed)
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

    def w(a, b):  # a lookup: pr_prefers reads the table's strict row or its memoized estimate
        return pr_prefers(inst, s, a, b, strict=False, samples=samples, seed=seed)

    for i, j, k in itertools.permutations(range(inst.m), 3):
        if w(i, j) >= half and w(j, k) >= half and w(i, k) < half:
            return (i, j, k)
    return None
