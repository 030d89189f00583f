"""Round-based student-proposing deferred acceptance with pluggable
proposing strategies.

Each round, every unmatched student who still has an unproposed college
proposes to the college her strategy selects; each college then keeps the
best students it can seat among current holds plus proposers and rejects
the rest.  All ties break to the lowest college index, so runs are
deterministic.

Prefix property: a student proposes only while she is unmatched, and then
every college she has proposed to has rejected her, so her rejected set is
always the set of her own earlier proposals.  ``Next()`` therefore fixes one
proposal order per (student, rule), and a run is textbook deferred
acceptance (Gale & Shapley 1962) over those orders.  Each student's order is
a list in her pairwise-facts table (``prob._facts``) under (rule, samples,
seed): one ranking for HEUF and LOCV, one step at a time as far as a run
walks it for LOICV and HERF.  ``Instance.with_report`` keeps the other
students' tables, orders included; the audit's menu probes skip it and pass
the misreporter's order straight to the round loop (``_run_orders``).  With
point-mass weight distributions the outcome coincides with textbook deferred
acceptance on the induced strict preferences.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

from .model import Instance, Matching, ValidationError
from .prob import DEFAULT_SAMPLES, _facts, expected_utility, pr_prefers, pr_top

__all__ = ["Strategy", "ComparisonVector", "GdaRound", "GdaTrace", "comparison_vector", "next_college", "run_gda"]


class Strategy(str, Enum):
    """Proposing rules: highest expected utility (HEUF), fixed lexicographic
    comparison-vector order (LOCV), the iterated variant over non-rejecting
    colleges (LOICV), and highest probability of ranking first (HERF)."""

    HEUF = "heuf"
    LOCV = "locv"
    LOICV = "loicv"
    HERF = "herf"


# rules that score against the colleges not yet rejected rather than all of them
_ITERATED = (Strategy.LOICV, Strategy.HERF)

ComparisonVector = tuple


def comparison_vector(inst: Instance, s: int, c: int, pool, samples: int = DEFAULT_SAMPLES, seed=None) -> ComparisonVector:
    """Weak win probabilities of c against every other pool member, ascending."""
    pool = sorted(set(pool))
    if c not in pool:
        raise ValidationError("college must belong to the pool")
    probs = [
        pr_prefers(inst, s, c, d, strict=False, samples=samples, seed=seed)
        for d in pool
        if d != c
    ]
    return tuple(sorted(probs))


def _ranking(inst: Instance, strategy: Strategy, s: int, rejected, samples: int, seed) -> list[int]:
    """The colleges not in ``rejected``, best first by the rule's score
    against its pool: all colleges for HEUF and LOCV, only the remaining
    ones for LOICV and HERF.  The sort is stable, so ties go to the lowest
    index."""
    remaining = [c for c in range(inst.m) if c not in rejected]
    pool = remaining if strategy in _ITERATED else range(inst.m)
    if strategy is Strategy.HEUF:
        scores = {c: expected_utility(inst, s, c) for c in remaining}
    elif strategy is Strategy.HERF:
        scores = {c: pr_top(inst, s, c, pool, samples, seed) for c in remaining}
    else:
        scores = {c: comparison_vector(inst, s, c, pool, samples, seed) for c in remaining}
    return sorted(remaining, key=scores.__getitem__, reverse=True)


def next_college(
    inst: Instance,
    strategy: Strategy,
    s: int,
    rejected: frozenset[int] | set[int],
    samples: int = DEFAULT_SAMPLES,
    seed=None,
) -> int:
    """The college student s proposes to next, given the rejections so far."""
    ranking = _ranking(inst, Strategy(strategy), s, rejected, samples, seed)
    if not ranking:
        raise ValidationError("every college has already rejected this student")
    return ranking[0]


def _extend(inst: Instance, strategy: Strategy, s: int, order: list[int], samples: int, seed) -> None:
    """Lengthen student s's proposal order: HEUF and LOCV score against a
    fixed pool, so their whole ranking is the order; LOICV and HERF add one
    college per step."""
    if strategy in _ITERATED:
        order.append(next_college(inst, strategy, s, set(order), samples, seed))
    else:
        order.extend(_ranking(inst, strategy, s, (), samples, seed))


@dataclass(frozen=True)
class GdaRound:
    proposals: tuple[tuple[int, int], ...]  # (student, college)
    rejections: tuple[tuple[int, int], ...]  # (college, student)


@dataclass(frozen=True)
class GdaTrace:
    rounds: tuple[GdaRound, ...]


def run_gda(
    inst: Instance,
    strategy: Strategy,
    samples: int = DEFAULT_SAMPLES,
    seed=None,
) -> tuple[Matching, GdaTrace]:
    """Run deferred acceptance under the given proposing strategy."""
    strategy = Strategy(strategy)
    return _run_orders(inst, strategy, _table_orders(inst, strategy, samples, seed), samples, seed)


def _table_orders(inst: Instance, strategy: Strategy, samples: int, seed) -> list[list[int]]:
    """Every student's proposal order under the rule: the lists in the tables."""
    return [_facts(inst, s).orders.setdefault((strategy, samples, seed), []) for s in range(inst.n)]


def _run_orders(inst: Instance, strategy: Strategy, orders: list[list[int]], samples: int, seed) -> tuple[Matching, GdaTrace]:
    """Deferred acceptance down the orders, each lengthened by ``_extend`` when it runs out."""
    proposed = [0] * inst.n  # how far each student has walked her order
    assigned: list[Union[int, None]] = [None] * inst.n
    held: list[list[int]] = [[] for _ in range(inst.m)]

    rounds: list[GdaRound] = []
    while True:
        proposers = [s for s in range(inst.n) if assigned[s] is None and proposed[s] < inst.m]
        if not proposers:
            break
        proposals: list[tuple[int, int]] = []
        by_college: dict[int, list[int]] = {}
        for s in proposers:
            order = orders[s]
            if proposed[s] == len(order):
                _extend(inst, strategy, s, order, samples, seed)
            c = order[proposed[s]]
            proposed[s] += 1
            proposals.append((s, c))
            by_college.setdefault(c, []).append(s)

        rejections: list[tuple[int, int]] = []
        for c, newcomers in by_college.items():
            pool = sorted(held[c] + newcomers, key=inst.college_rank[c].__getitem__)
            held[c] = pool[: inst.capacities[c]]
            for s in held[c]:
                assigned[s] = c
            for s in pool[inst.capacities[c] :]:
                assigned[s] = None
                rejections.append((c, s))
        rounds.append(GdaRound(proposals=tuple(proposals), rejections=tuple(sorted(rejections))))

    return Matching(tuple(assigned)), GdaTrace(rounds=tuple(rounds))
