"""Round-based student-proposing deferred acceptance with pluggable
proposing strategies.

Each round, every unmatched student who still has an unproposed college
proposes to the college her strategy selects.  The round's proposals are
taken one at a time: a free seat is taken, otherwise the college keeps the
better of the proposer and its worst holder and rejects the other, so each
college ends the round with the best students among its holds and proposers.
The students rejected in a round who have colleges left propose in the next,
in index order.  All ties break to the lowest college index, so runs are
deterministic.

Prefix property: a student proposes only while she is unmatched, and then
every college she has proposed to has rejected her, so her rejected set is
always the set of her own earlier proposals.  ``Next()`` therefore fixes one
proposal order per (student, rule), and a run is textbook deferred
acceptance (Gale & Shapley 1962) over those orders.  Each student's order is
a list in her pairwise-facts table (``prob._facts``) under (rule, samples,
seed): one ranking for HEUF and LOCV, one step at a time as far as a run
walks it for LOICV and HERF.  An order depends only on the student's own
utilities and weights, so a report by one student leaves every other
student's order as it is.

One round walk (``_walk``) runs deferred acceptance from any state (the seat
holders and how far each student has walked her order) and any set of
first-round proposers.  Deferred acceptance reaches the same matching
whatever order the proposals come in (McVitie & Wilson 1971), so a walk from
the end of one run with further students proposing reaches the matching of
one run over all of them.  ``run_gda`` walks from the empty state and is the
only caller that records its rounds as a ``GdaTrace``; the audit's menu
probes resume the run without a student (see ``oracle``).  With point-mass
weight distributions the outcome coincides with textbook deferred acceptance
on the induced strict preferences.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

from .model import Instance, Matching, ValidationError
from .prob import DEFAULT_SAMPLES, _facts, expected_utility, pr_prefers, pr_top

__all__ = ["Strategy", "GdaRound", "GdaTrace", "comparison_vector", "next_college", "run_gda"]


class Strategy(str, Enum):
    """Proposing rules: highest expected utility (HEUF), fixed lexicographic
    comparison-vector order (LOCV), the iterated variant over non-rejecting
    colleges (LOICV), and highest probability of ranking first (HERF).

    HERF keeps a stability probability of at least (1/m)^n, by pigeonhole.
    Let R_s be the colleges that have not rejected student s when she makes
    her last proposal, to c_s.  HERF proposes to the college of R_s most
    likely to weakly top R_s; these probabilities sum to at least 1 over
    R_s, so Pr[c_s weakly tops R_s] >= 1/|R_s|.  At the end each college
    that rejected her is full with students it prefers, so her potential
    blockers lie in R_s minus c_s, and her stability factor is at least
    that probability.  An unmatched student has been rejected everywhere
    and has no blockers.  The students' weights are independent, so the
    stability probability is at least the product of the 1/|R_s|."""

    HEUF = "heuf"
    LOCV = "locv"
    LOICV = "loicv"
    HERF = "herf"


# rules that score against the colleges not yet rejected rather than all of them
_ITERATED = (Strategy.LOICV, Strategy.HERF)


def comparison_vector(inst: Instance, s: int, c: int, pool, samples: int = DEFAULT_SAMPLES, seed=None) -> tuple:
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
    held: list[list[int]] = [[] for _ in range(inst.m)]
    rounds: list[GdaRound] = []
    _walk(inst, strategy, orders, held, [0] * inst.n, list(range(inst.n)), samples, seed, rounds)
    assigned: list[Union[int, None]] = [None] * inst.n
    for c, seats in enumerate(held):
        for s in seats:
            assigned[s] = c
    return Matching(tuple(assigned)), GdaTrace(rounds=tuple(rounds))


def _table_orders(inst: Instance, strategy: Strategy, samples: int, seed) -> list[list[int]]:
    """Every student's proposal order under the rule: the lists in the tables."""
    return [_facts(inst, s).orders.setdefault((strategy, samples, seed), []) for s in range(inst.n)]


def _walk(
    inst: Instance,
    strategy: Strategy,
    orders: list[list[int]],
    held: list[list[int]],
    proposed: list[int],
    proposers: list[int],
    samples: int,
    seed,
    rounds: Union[list, None] = None,
) -> None:
    """Deferred acceptance in rounds as in the module docstring, resumed from
    ``held`` (each college's seat holders) and ``proposed`` (how far each
    student has walked her order), both updated in place, with ``proposers``
    proposing in the first round.  Each order is lengthened by ``_extend``
    when it runs out; one ``GdaRound`` per round is appended to ``rounds``
    when given a list."""
    caps, ranks, m = inst.capacities, inst.college_rank, inst.m
    while proposers:
        rejections: list[tuple[int, int]] = []
        for s in proposers:
            order = orders[s]
            if proposed[s] == len(order):
                _extend(inst, strategy, s, order, samples, seed)
            c = order[proposed[s]]
            proposed[s] += 1
            seats = held[c]
            if len(seats) < caps[c]:
                seats.append(s)
                continue
            rank = ranks[c]
            worst = max(seats, key=rank.__getitem__)
            if rank[s] < rank[worst]:
                seats[seats.index(worst)] = s
                s = worst  # the displaced holder is the one rejected
            rejections.append((c, s))
        if rounds is not None:
            proposals = tuple((s, orders[s][proposed[s] - 1]) for s in proposers)
            rounds.append(GdaRound(proposals=proposals, rejections=tuple(sorted(rejections))))
        proposers = sorted(s for _, s in rejections if proposed[s] < m)
