"""Round-based student-proposing deferred acceptance with pluggable
proposing strategies.

Each round, every unmatched student who still has an unproposed college
proposes to the college her strategy selects; each college then keeps the
best students it can seat among current holds plus proposers and rejects
the rest.  Rejections are cumulative: a student never proposes twice to the
same college.  All ties break to the lowest college index, so runs are
deterministic.  With point-mass weight distributions the outcome coincides
with textbook student-proposing deferred acceptance on the induced strict
preferences.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

from .model import Instance, Matching, ValidationError
from .prob import DEFAULT_SAMPLES, expected_utility, pr_prefers, pr_top

__all__ = ["Strategy", "ComparisonVector", "GdaRound", "GdaTrace", "comparison_vector", "next_college", "run_gda"]


class Strategy(str, Enum):
    """Proposing rules: highest expected utility (HEUF), fixed lexicographic
    comparison-vector order (LOCV), the iterated variant over non-rejecting
    colleges (LOICV), and highest probability of ranking first (HERF)."""

    HEUF = "heuf"
    LOCV = "locv"
    LOICV = "loicv"
    HERF = "herf"


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


def _argmax(scores: dict) -> int:
    """College with the largest score (scalar or comparison vector), ties to
    the lowest index."""
    return max(sorted(scores), key=scores.__getitem__)


def _locv_order(inst: Instance, s: int, samples: int, seed) -> list[int]:
    """All colleges by comparison vector over the full set, lexicographically
    largest first; a stable sort keeps ties at the lowest index."""
    full = [comparison_vector(inst, s, c, range(inst.m), samples, seed) for c in range(inst.m)]
    return sorted(range(inst.m), key=full.__getitem__, reverse=True)


def next_college(
    inst: Instance,
    strategy: Strategy,
    s: int,
    rejected: frozenset[int] | set[int],
    samples: int = DEFAULT_SAMPLES,
    seed=None,
) -> int:
    """The college student s proposes to next, given the rejections so far."""
    remaining = [c for c in range(inst.m) if c not in rejected]
    if not remaining:
        raise ValidationError("every college has already rejected this student")
    strategy = Strategy(strategy)
    if strategy is Strategy.HEUF:
        return _argmax({c: expected_utility(inst, s, c) for c in remaining})
    if strategy is Strategy.LOCV:
        return next(c for c in _locv_order(inst, s, samples, seed) if c not in rejected)
    if strategy is Strategy.LOICV:
        return _argmax({c: comparison_vector(inst, s, c, remaining, samples, seed) for c in remaining})
    if strategy is Strategy.HERF:
        return _argmax({c: pr_top(inst, s, c, remaining, samples, seed) for c in remaining})
    raise ValidationError(f"unknown strategy: {strategy!r}")


@dataclass(frozen=True)
class GdaRound:
    proposals: tuple[tuple[int, int], ...]  # (student, college)
    rejections: tuple[tuple[int, int], ...]  # (college, student)


@dataclass(frozen=True)
class GdaTrace:
    rounds: tuple[GdaRound, ...]
    final: Matching


def run_gda(
    inst: Instance,
    strategy: Strategy,
    samples: int = DEFAULT_SAMPLES,
    seed=None,
) -> tuple[Matching, GdaTrace]:
    """Run deferred acceptance under the given proposing strategy."""
    strategy = Strategy(strategy)
    assigned: list[Union[int, None]] = [None] * inst.n
    held: list[set[int]] = [set() for _ in range(inst.m)]
    rejected: list[set[int]] = [set() for _ in range(inst.n)]
    unmatched = set(range(inst.n))
    locv_order = (
        {s: _locv_order(inst, s, samples, seed) for s in range(inst.n)} if strategy is Strategy.LOCV else {}
    )

    rounds: list[GdaRound] = []
    while True:
        proposers = [s for s in sorted(unmatched) if len(rejected[s]) < inst.m]
        if not proposers:
            break
        proposals: dict[int, int] = {}
        for s in proposers:
            if strategy is Strategy.LOCV:
                c = next(c for c in locv_order[s] if c not in rejected[s])
            else:
                c = next_college(inst, strategy, s, rejected[s], samples, seed)
            proposals[s] = c

        round_rejections: list[tuple[int, int]] = []
        by_college: dict[int, list[int]] = {}
        for s, c in proposals.items():
            by_college.setdefault(c, []).append(s)
        for c, newcomers in sorted(by_college.items()):
            pool = held[c] | set(newcomers)
            keep = sorted(pool, key=lambda s: inst.college_rank[c][s])[: inst.capacities[c]]
            for s in sorted(pool - set(keep)):
                rejected[s].add(c)
                round_rejections.append((c, s))
                if assigned[s] == c:
                    assigned[s] = None
                unmatched.add(s)
            held[c] = set(keep)
            for s in keep:
                assigned[s] = c
                unmatched.discard(s)
        rounds.append(
            GdaRound(
                proposals=tuple(sorted(proposals.items())),
                rejections=tuple(sorted(round_rejections)),
            )
        )

    final = Matching(tuple(assigned))
    return final, GdaTrace(rounds=tuple(rounds), final=final)
