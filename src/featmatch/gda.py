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
students' tables, orders included.  The audit's menu probes build no report:
they run the round loop (``_run_orders``) once with the misreporter left
out, then walk one rejection chain per college from its final state
(``_keeps``), since deferred acceptance reaches the same matching whatever
order the proposals come in (McVitie & Wilson 1971).  Only ``run_gda``
records its rounds as a ``GdaTrace``.  With point-mass weight distributions
the outcome coincides with textbook deferred acceptance on the induced
strict preferences.
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
    orders = _table_orders(inst, strategy, samples, seed)
    rounds: list[GdaRound] = []
    assigned, _, _ = _run_orders(inst, strategy, orders, samples, seed, rounds=rounds)
    return Matching(tuple(assigned)), GdaTrace(rounds=tuple(rounds))


def _table_orders(inst: Instance, strategy: Strategy, samples: int, seed) -> list[list[int]]:
    """Every student's proposal order under the rule: the lists in the tables."""
    return [_facts(inst, s).orders.setdefault((strategy, samples, seed), []) for s in range(inst.n)]


def _run_orders(
    inst: Instance,
    strategy: Strategy,
    orders: list[list[int]],
    samples: int,
    seed,
    absent: Union[int, None] = None,
    rounds: Union[list, None] = None,
) -> tuple[list, list[list[int]], list[int]]:
    """Deferred acceptance down the orders, each lengthened by ``_extend``
    when it runs out, with student ``absent`` (if any) left out.  Returns
    the final (assignment, each college's holds, how far each student walked
    her order), and appends one ``GdaRound`` per round to ``rounds`` when
    given a list."""
    proposed = [0] * inst.n  # how far each student has walked her order
    assigned: list[Union[int, None]] = [None] * inst.n
    held: list[list[int]] = [[] for _ in range(inst.m)]
    students = [s for s in range(inst.n) if s != absent]

    while True:
        proposers = [s for s in students if assigned[s] is None and proposed[s] < inst.m]
        if not proposers:
            break
        by_college: dict[int, list[int]] = {}
        for s in proposers:
            order = orders[s]
            if proposed[s] == len(order):
                _extend(inst, strategy, s, order, samples, seed)
            by_college.setdefault(order[proposed[s]], []).append(s)
            proposed[s] += 1

        rejections: list[tuple[int, int]] = []
        for c, newcomers in by_college.items():
            pool = sorted(held[c] + newcomers, key=inst.college_rank[c].__getitem__)
            held[c] = pool[: inst.capacities[c]]
            for s in held[c]:
                assigned[s] = c
            for s in pool[inst.capacities[c] :]:
                assigned[s] = None
                rejections.append((c, s))
        if rounds is not None:
            proposals = tuple((s, orders[s][proposed[s] - 1]) for s in proposers)
            rounds.append(GdaRound(proposals=proposals, rejections=tuple(sorted(rejections))))

    return assigned, held, proposed


def _keeps(inst: Instance, strategy: Strategy, orders, held, proposed, s: int, c: int, samples: int, seed) -> bool:
    """Whether student s, proposing to college c after a run of
    ``_run_orders`` that left her out and ended in (held, proposed), holds c
    once deferred acceptance ends.  The matching does not depend on the
    order of proposals (McVitie & Wilson 1971), so only the one rejection
    chain her proposal starts is walked: each displaced or rejected student
    proposes down her order.  It ends when someone takes a free seat or runs
    out of colleges (s keeps c), or when s is rejected at c or displaced from
    it.  ``held`` and ``proposed`` are read, never written."""
    holds: dict[int, list[int]] = {}  # copy-on-write of held
    walked: dict[int, int] = {}  # copy-on-write of proposed
    t, d = s, c  # t proposes to d
    while True:
        rank, seats = inst.college_rank[d], holds.get(d, held[d])
        if len(seats) < inst.capacities[d]:
            return True
        worst = max(seats, key=rank.__getitem__)
        if rank[t] < rank[worst]:
            holds[d] = [t if x == worst else x for x in seats]
            t = worst
        if t == s:
            return False
        k = walked.get(t, proposed[t])
        if k == inst.m:
            return True
        order = orders[t]
        if k == len(order):
            _extend(inst, strategy, t, order, samples, seed)
        d, walked[t] = order[k], k + 1
