"""Instance generators: random experiment inputs, canonical hand-built
families with known behavior, and the uniform-equivalence rescaling.

``FAMILIES`` maps each family name to its builder, and each family's
parameters and their defaults are those of its builder's signature, written
nowhere else.

Every family fixes tie-breaking material deterministically: unspecified
preference tails list the remaining students in ascending index order, and
unspecified utility tails take equally spaced values below the smallest
specified value, identical across features (so tail preferences are
certain).  Decimal constants are exact rationals throughout.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Union

import numpy as np

from .model import (
    BetaWeights,
    DiscreteWeights,
    Instance,
    UniformSimplex,
    ValidationError,
    WeightDistribution,
)

__all__ = [
    "FAMILIES",
    "TransformResult",
    "canonical",
    "gen_random",
    "worked_example",
    "icr_conflict",
    "vanishing_ratio",
    "herf_tight",
    "golden_ratio",
    "non_transitive",
    "reduce_to_uniform",
]

F = Fraction

DEFAULT_DELTA = F(1, 10)
DEFAULT_EPS = F(1, 1000)
HERF_TIGHT_EPS = F(1, 10**6)


def _ids(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def _build(n, m, prefs, utilities) -> Instance:
    """A hand-built family member: unit capacities, two features and flat weights."""
    return Instance(
        students=_ids("s", n),
        colleges=_ids("c", m),
        capacities=tuple(1 for _ in range(m)),
        college_prefs=tuple(tuple(p) for p in prefs),
        features=("f1", "f2"),
        utilities=tuple(tuple(tuple(F(u) for u in row) for row in per_s) for per_s in utilities),
        weight_dists=tuple(UniformSimplex(2) for _ in range(n)),
    )


# ---------------------------------------------------------------------------
# worked examples (3 students x 3 colleges, uniform two-feature weights)
# ---------------------------------------------------------------------------


def worked_example(which: int) -> Instance:
    """The three 3x3 demonstration instances where the four proposing rules
    split apart (fixed-order vs iterated comparison vectors vs expected
    utility vs top-rank probability)."""
    if which == 1:
        prefs = [(0, 1, 2), (0, 2, 1), (1, 2, 0)]
        utilities = [
            [(F(3, 10), F(2, 10), F(1)), (F(7, 10), F(4, 10), F(3, 10))],
            [(F(5, 10), F(1, 10), F(7, 10)), (F(6, 10), F(3, 10), F(1, 10))],
            [(F(9, 10), F(3, 10), F(6, 10)), (F(2, 10), F(3, 10), F(1, 10))],
        ]
    elif which == 2:
        prefs = [(2, 0, 1), (1, 2, 0), (1, 2, 0)]
        utilities = [
            [(F(9, 10), F(7, 10), F(3, 4)), (F(1, 10), F(7, 10), F(4, 5))],
            [(F(9, 10), F(5, 10), F(1, 10))] * 2,
            [(F(5, 10), F(1, 10), F(9, 10))] * 2,
        ]
    elif which == 3:
        prefs = [(0, 2, 1), (2, 1, 0), (0, 2, 1)]
        row_s12 = [(F(1, 4), F(3, 10), F(4, 5)), (F(2, 5), F(3, 10), F(7, 10))]
        utilities = [
            row_s12,
            row_s12,
            [(F(1, 10), F(1), F(4, 5)), (F(1), F(2, 10), F(1, 2))],
        ]
    else:
        raise ValidationError(f"worked example must be 1, 2 or 3, got {which}")
    return _build(3, 3, prefs, utilities)


# ---------------------------------------------------------------------------
# adversarial families
# ---------------------------------------------------------------------------


def icr_conflict(delta: Fraction = DEFAULT_DELTA, eps: Fraction = DEFAULT_EPS) -> Instance:
    """3x3 family where any algorithm matching the uncertain student to her
    probably-better college forfeits almost all stability probability, yet
    not doing so invites a profitable deterministic misreport."""
    d, e = F(delta), F(eps)
    if d <= 0 or e <= 0:
        raise ValidationError("delta and eps must be positive")
    if F(3, 2) * d + 3 * e > 1:
        raise ValidationError("utility outside [0,1]: shrink delta/eps")
    prefs = [(0, 1, 2), (0, 1, 2), (0, 2, 1)]
    utilities = [
        [
            (F(3, 2) * d + 3 * e, d + 2 * e, F(0)),
            (F(0), d / 2 + 2 * e, F(3, 2) * d + 2 * e),
        ],
        [(F(3, 10), F(6, 10), F(1, 10))] * 2,
        [(F(3, 10), F(1, 10), F(6, 10))] * 2,
    ]
    return _build(3, 3, prefs, utilities)


def vanishing_ratio(delta: Fraction = DEFAULT_DELTA, eps: Fraction = DEFAULT_EPS) -> Instance:
    """3x3 family on which the expected-utility and both comparison-vector
    rules keep ratio 2*eps/(delta+eps) of the optimal stability probability."""
    d, e = F(delta), F(eps)
    if d <= 0 or e <= 0:
        raise ValidationError("delta and eps must be positive")
    base = F(1, 10)
    if base + F(3, 2) * d + 3 * e > 1:
        raise ValidationError("utility outside [0,1]: shrink delta/eps")
    prefs = [(1, 2, 0), (1, 2, 0), (2, 1, 0)]
    utilities = [
        [(F(3, 4), F(1, 2), F(11, 20)), (F(11, 20), F(1, 4), F(1, 10))],
        [
            (base + F(3, 2) * d + 3 * e, base + d + 2 * e, base),
            (base, base + d / 2 + 2 * e, base + F(3, 2) * d + 2 * e),
        ],
        [(F(3, 10), F(2, 10), F(1, 10))] * 2,
    ]
    return _build(3, 3, prefs, utilities)


def herf_tight(n: int, delta: Fraction = DEFAULT_DELTA, eps: Fraction = HERF_TIGHT_EPS) -> Instance:
    """n x n family where the top-rank-probability rule settles for the
    diagonal matching with stability probability (1/n + 2eps/(n*delta))^n
    while the cyclic matching is perfectly stable.

    Utilities place college c_i in a window of first-feature weights of
    exactly that width for student s_i.  The two border students get a 2*eps
    bump (their windows are clipped by the simplex boundary on one side, so
    a single-eps bump would leave them short by eps/(n*delta)).
    """
    d, e = F(delta), F(eps)
    if n < 2:
        raise ValidationError("family needs n >= 2")
    if not (0 < d <= F(2, n * (n - 1))):
        raise ValidationError("delta must lie in (0, 2/(n(n-1))]")
    if not (0 < e < d / 2):
        raise ValidationError("eps must lie in (0, delta/2)")
    nu = [F(0)] * (n + 1)
    for k in range(2, n + 1):
        nu[k] = nu[k - 1] + (n - k + 1) * d
    if nu[n] + 2 * e > 1:
        raise ValidationError("utility outside [0,1]: shrink delta/eps")

    prefs = []
    for j in range(1, n + 1):
        top = j + 1 if j < n else 1
        middle = [s for s in range(1, n + 1) if s not in (top, j)]
        prefs.append(tuple(s - 1 for s in [top, *middle, j]))

    utilities = []
    for i in range(1, n + 1):
        bump = 2 * e if i in (1, n) else e
        row1 = [nu[j] + (bump if j == i else 0) for j in range(1, n + 1)]
        row2 = [nu[n - j + 1] + (bump if j == i else 0) for j in range(1, n + 1)]
        utilities.append([tuple(row1), tuple(row2)])
    return _build(n, n, prefs, utilities)


def golden_ratio(k: int, y: Fraction, z: Fraction) -> Instance:
    """3k x 3k family built from independent triples in which exactly three
    matchings per triple have positive stability probability, worth z, y and
    (1-z)(1-y); it pins the golden-ratio ceiling for certainty-proof rules."""
    y, z = F(y), F(z)
    if k < 1:
        raise ValidationError("family needs k >= 1")
    if not (F(1, 5) <= y <= F(4, 5)):
        raise ValidationError("utility outside [0,1]: y must lie in [1/5, 4/5]")
    if not (0 <= z <= 1):
        raise ValidationError("z must lie in [0, 1]")
    n = 3 * k
    prefs = []
    utilities = []
    for g in range(k):
        a, b, c = 3 * g, 3 * g + 1, 3 * g + 2
        for leaders in ((b, a, c), (a, b, c), (a, c)):
            rest = [s for s in range(n) if s not in leaders]
            prefs.append(tuple([*leaders, *rest]))

        def with_tail(specified: dict[int, tuple[Fraction, Fraction]]):
            lo = min(min(v) for v in specified.values())
            tail = [j for j in range(n) if j not in specified]
            if tail and lo <= 0:
                raise ValidationError("tail utilities need a positive floor; move y, z off the boundary")
            row1, row2 = [F(0)] * n, [F(0)] * n
            for j, (u1, u2) in specified.items():
                row1[j], row2[j] = u1, u2
            for rank, j in enumerate(tail):
                val = lo * F(len(tail) - rank, len(tail) + 1)
                row1[j] = row2[j] = val
            return [tuple(row1), tuple(row2)]

        utilities.append(
            with_tail({a: (F(1), F(1)), b: (F(4, 5), y - F(1, 5)), c: (F(4, 5) - y, F(4, 5))})
        )
        utilities.append(with_tail({b: (F(1), z), a: (1 - z, F(1))}))
        utilities.append(with_tail({c: (F(1), F(1))}))
    return _build(n, n, prefs, utilities)


def non_transitive() -> Instance:
    """Single three-feature student for whom the at-least-even-chance
    relation cycles: c1 over c2 and c2 over c3 each hold with probability
    above 1/2 (31/56 and 19/35), yet c1 over c3 only with 9/20."""
    utilities = [
        [
            (F(13, 20), F(9, 20), F(7, 20)),
            (F(7, 20), F(1, 20), F(9, 20)),
            (F(1, 2), F(1), F(7, 10)),
        ]
    ]
    return Instance(
        students=("s1",),
        colleges=("c1", "c2", "c3"),
        capacities=(1, 1, 1),
        college_prefs=((0,), (0,), (0,)),
        features=("f1", "f2", "f3"),
        utilities=tuple(tuple(tuple(u for u in row) for row in per_s) for per_s in utilities),
        weight_dists=(UniformSimplex(3),),
    )


# ---------------------------------------------------------------------------
# family dispatch
# ---------------------------------------------------------------------------

FAMILIES = {
    "example1": lambda: worked_example(1),
    "example2": lambda: worked_example(2),
    "example3": lambda: worked_example(3),
    "icr-conflict": icr_conflict,
    "vanishing-ratio": vanishing_ratio,
    "herf-tight": herf_tight,
    "golden-ratio": golden_ratio,
    "non-transitive": non_transitive,
}


def canonical(family: str, **params) -> Instance:
    """Build the named family from the given parameters; each one left out
    takes its builder's default.  A missing or unexpected parameter is a
    ValidationError that names the family."""
    builder = FAMILIES.get(family)
    if builder is None:
        raise ValidationError(f"unknown family: {family!r} (choose from {', '.join(FAMILIES)})")
    signature = inspect.signature(builder)
    try:
        signature.bind(**params)
    except TypeError as exc:
        raise ValidationError(f"{family} takes ({', '.join(signature.parameters)}): {exc}") from None
    return builder(**params)


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------

UTILITY_GRID = 10**6


def _capacities(rule, n: int, m: int) -> tuple[int, ...]:
    if isinstance(rule, str):
        if rule == "ones":
            return tuple(1 for _ in range(m))
        if rule == "spread":
            base, extra = divmod(n, m)
            return tuple(max(1, base + (1 if j < extra else 0)) for j in range(m))
        raise ValidationError(f"unknown capacity rule: {rule!r}")
    caps = tuple(int(x) for x in rule)
    if len(caps) != m:
        raise ValidationError("capacity list must cover every college")
    return caps


def _random_dist(dist_kind, num_features: int, rng: np.random.Generator) -> WeightDistribution:
    if dist_kind == "uniform_simplex":
        return UniformSimplex(num_features)
    if isinstance(dist_kind, tuple) and dist_kind and dist_kind[0] == "beta2":
        return BetaWeights(alpha=float(dist_kind[1]), beta=float(dist_kind[2]))
    if dist_kind == "discrete":
        atoms = []
        natoms = int(rng.integers(2, 5))
        raw = [int(rng.integers(1, 10)) for _ in range(natoms)]
        total = sum(raw)
        for t in range(natoms):
            counts = rng.multinomial(20, [1.0 / num_features] * num_features)
            atoms.append((tuple(F(int(c), 20) for c in counts), F(raw[t], total)))
        return DiscreteWeights(tuple(atoms))
    raise ValidationError(f"unknown dist_kind: {dist_kind!r}")


def gen_random(
    n: int,
    m: int,
    capacities="ones",
    num_features: int = 2,
    dist_kind="uniform_simplex",
    seed: int = 0,
) -> Instance:
    """Random instance: utilities i.i.d. uniform on (0,1) snapped to a 1e-6
    rational grid, college preferences uniform random permutations.
    Deterministic in the seed."""
    if n < 1 or m < 1:
        raise ValidationError("need at least one student and one college")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n, m)))
    prefs = tuple(tuple(int(s) for s in rng.permutation(n)) for _ in range(m))
    utilities = tuple(
        tuple(
            tuple(F(int(rng.integers(1, UTILITY_GRID)), UTILITY_GRID) for _ in range(m))
            for _ in range(num_features)
        )
        for _ in range(n)
    )
    dists = tuple(_random_dist(dist_kind, num_features, rng) for _ in range(n))
    return Instance(
        students=_ids("s", n),
        colleges=_ids("c", m),
        capacities=_capacities(capacities, n, m),
        college_prefs=prefs,
        features=_ids("f", num_features),
        utilities=utilities,
        weight_dists=dists,
    )


# ---------------------------------------------------------------------------
# uniform-equivalence rescaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransformResult:
    """Instance with one student's weights replaced by the flat distribution
    and her utilities rescaled by (2(1-a), 2a), where a is the area under
    her first-feature weight cdf."""

    instance: Instance
    a: Union[Fraction, float]


def reduce_to_uniform(inst: Instance, s: int) -> TransformResult:
    """Swap student s's continuous mean-equals-median weight distribution
    for the flat one, rescaling her utilities so that expected utilities,
    per-feature difference signs and every at-least-even-chance pairwise
    comparison are preserved."""
    if inst.num_features != 2:
        raise ValidationError("rescaling requires exactly 2 features")
    dist = inst.weight_dists[s]
    if isinstance(dist, DiscreteWeights):
        raise ValidationError("distribution not continuous")
    mean1 = dist.mean[0]
    if abs(float(dist.w1_measure(0, mean1)) - 0.5) > 1e-12:
        raise ValidationError("mean must equal the median of the first feature's weight")
    a: Union[Fraction, float] = 1 - mean1

    scale1, scale2 = 2 * (1 - a), 2 * a
    if isinstance(a, float):
        scale1, scale2 = F(repr(scale1)), F(repr(scale2))
    new_rows = []
    for f, scale in ((0, scale1), (1, scale2)):
        row = tuple(scale * u for u in inst.utilities[s][f])
        if any(not (0 <= u <= 1) for u in row):
            raise ValidationError("utility outside [0,1]: rescaled value escapes the range")
        new_rows.append(row)

    utilities = list(inst.utilities)
    utilities[s] = tuple(new_rows)
    dists = list(inst.weight_dists)
    dists[s] = UniformSimplex(2)
    return TransformResult(replace(inst, utilities=tuple(utilities), weight_dists=tuple(dists)), a)
