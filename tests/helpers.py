"""Independent oracles shared by the test modules.

Nothing here imports the code paths it is used to check: the reference
deferred acceptance is a plain sequential textbook loop, the round
reference weighs each round's proposals together, the blocker oracle
reads college preference lists directly, the stability oracles evaluate
block events directly at sampled/grid weights, the atom oracles score every
support atom afresh in Fraction arithmetic, the triangle quadrature
integrates the three-feature preference regions numerically, the
full-rerun scan reruns GDA under every misreport on a freshly built
instance (``with_report``, ``order_misreports``), the one-shot Monte Carlo
estimate draws every sample at once by the plain formulas, and the Fraction
case split computes the two-feature cutoffs from the utilities as
Fractions.  ``unrejected_at_last_proposal`` reads HERF's certificate sets
off a run's trace, and ``expected_rank_orders`` is the expected-rank
reading of HERF that the certificate rules out.  The malformed-document
list is shared by the parser and CLI exit-code tests.  The reference
instance calls ``parse_rational`` once for every rational value in a
document, and the per-pair strict table and the kernel stability product
are the integer formulas that one product per table row and the cached
integer utilities replaced: one atom mask per college pair, and each
student's utilities cleared afresh.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import replace
from fractions import Fraction as F

import numpy as np

from featmatch.gda import run_gda
from featmatch.model import (
    BetaWeights,
    DiscreteWeights,
    Instance,
    ParseError,
    UniformSimplex,
    ValidationError,
    integer_matmul,
    integer_matrix,
    parse_rational,
)
from featmatch.oracle import enumerate_matchings
from featmatch.prob import ALWAYS, NEVER, THRESHOLD_ABOVE, THRESHOLD_BELOW, pr_prefers, pros_exact


def reference_da(student_prefs, college_prefs, capacities):
    """Sequential student-proposing deferred acceptance.  student_prefs[s]
    lists college indices best-first; college_prefs[c] lists student indices
    best-first.  Returns the assignment tuple (college index or None)."""
    n, m = len(student_prefs), len(college_prefs)
    rank = [{s: r for r, s in enumerate(order)} for order in college_prefs]
    nxt = [0] * n
    held = [set() for _ in range(m)]
    match = [None] * n
    free = list(range(n))
    while free:
        s = free.pop(0)
        if nxt[s] >= len(student_prefs[s]):
            continue
        c = student_prefs[s][nxt[s]]
        nxt[s] += 1
        held[c].add(s)
        if len(held[c]) > capacities[c]:
            worst = max(held[c], key=lambda t: rank[c][t])
            held[c].remove(worst)
            match[worst] = None
            free.append(worst)
            if worst != s:
                match[s] = c
        else:
            match[s] = c
    return tuple(match)


def reference_rounds(student_prefs, college_prefs, capacities):
    """Synchronous-round student-proposing deferred acceptance: each round
    every free student with colleges left proposes to her next one, and each
    college keeps the best of its holds plus newcomers up to capacity.
    Returns the assignment tuple and, per round, the (student, college)
    proposals in student order and the sorted (college, student)
    rejections."""
    n, m = len(student_prefs), len(college_prefs)
    rank = [{s: r for r, s in enumerate(order)} for order in college_prefs]
    nxt = [0] * n
    held = [[] for _ in range(m)]
    rounds = []
    while True:
        match = {s: c for c in range(m) for s in held[c]}
        free = [s for s in range(n) if s not in match and nxt[s] < len(student_prefs[s])]
        if not free:
            return tuple(match.get(s) for s in range(n)), rounds
        proposals = tuple((s, student_prefs[s][nxt[s]]) for s in free)
        rejections = []
        for c in range(m):
            pool = held[c] + [s for s, d in proposals if d == c]
            pool.sort(key=lambda t: rank[c][t])
            held[c] = pool[: capacities[c]]
            rejections += [(c, t) for t in pool[capacities[c] :]]
        for s in free:
            nxt[s] += 1
        rounds.append((proposals, tuple(sorted(rejections))))


def point_mass_instance(base: Instance, rng: np.random.Generator) -> Instance:
    """Replace every weight distribution with a single random grid atom."""
    dists = []
    for _ in range(base.n):
        counts = rng.multinomial(10, [1.0 / base.num_features] * base.num_features)
        dists.append(DiscreteWeights(((tuple(F(int(c), 10) for c in counts), F(1)),)))
    return Instance(
        students=base.students,
        colleges=base.colleges,
        capacities=base.capacities,
        college_prefs=base.college_prefs,
        features=base.features,
        utilities=base.utilities,
        weight_dists=tuple(dists),
    )


def induced_strict_prefs(inst: Instance) -> list[list[int]]:
    """Strict college order per student at her point-mass weight vector,
    ties broken by lowest college index."""
    out = []
    for s in range(inst.n):
        (w, _), = inst.weight_dists[s].atoms
        vals = [
            sum(w[f] * inst.utilities[s][f][c] for f in range(inst.num_features))
            for c in range(inst.m)
        ]
        out.append(sorted(range(inst.m), key=lambda c: (-vals[c], c)))
    return out


def textbook_blockers(inst: Instance, matching, s: int) -> list[int]:
    """Colleges other than s's own that would take s: one with a free seat,
    or one holding an enrollee it ranks below s."""
    out = []
    for c in range(inst.m):
        if c == matching.assignment[s]:
            continue
        enrolled = [t for t, d in enumerate(matching.assignment) if d == c]
        order = list(inst.college_prefs[c])
        if len(enrolled) < inst.capacities[c] or any(order.index(t) > order.index(s) for t in enrolled):
            out.append(c)
    return out


def with_report(inst: Instance, s: int, rows, dist=None) -> Instance:
    """The instance with student s's utility table replaced by ``rows`` (one
    row per feature), and her weight distribution by ``dist`` when given,
    built and validated afresh, so no table is shared."""
    rows = tuple(tuple(row) for row in rows)
    dists = inst.weight_dists if dist is None else inst.weight_dists[:s] + (dist,) + inst.weight_dists[s + 1 :]
    return replace(inst, utilities=inst.utilities[:s] + (rows,) + inst.utilities[s + 1 :], weight_dists=dists)


def order_misreports(inst: Instance):
    """All m! deterministic strict orders over colleges, best first, each as
    (label "c1>c2>...", utility table): identical rows across features, the
    college of rank r (0 = best) valued (m - r)/m."""
    for perm in itertools.permutations(range(inst.m)):
        row = [F(0)] * inst.m
        for rank, c in enumerate(perm):
            row[c] = F(inst.m - rank, inst.m)
        yield ">".join(inst.colleges[c] for c in perm), (tuple(row),) * inst.num_features


def full_rerun_scan(inst: Instance, rule, setting) -> tuple:
    """improvement_scan's default space without menus: GDA rerun under each
    strict order and the truthful anchor of each student, on a freshly built
    instance for every run and every probability, so no table is shared."""
    truthful, _ = run_gda(replace(inst), rule, **setting)
    tried, improvements = 0, []
    for s in range(inst.n):
        old_c = truthful.college_of(s)
        for label, rows in [*order_misreports(inst), ("truthful", inst.utilities[s])]:
            tried += 1
            new_c = run_gda(with_report(inst, s, rows), rule, **setting)[0].college_of(s)
            if new_c is None or new_c == old_c:
                continue
            prob = 1 if old_c is None else pr_prefers(replace(inst), s, new_c, old_c, **setting)
            if prob > 0:
                improvements.append((s, label, prob))
    return tried, improvements


def unrejected_at_last_proposal(inst: Instance, trace, s: int) -> set:
    """R_s: the colleges that had not rejected student s when she made her
    last proposal, read off a run's trace."""
    last = max(t for t, rnd in enumerate(trace.rounds) if any(p == s for p, _ in rnd.proposals))
    rejected = {c for rnd in trace.rounds[:last] for c, t in rnd.rejections if t == s}
    return set(range(inst.m)) - rejected


def expected_rank_orders(inst: Instance) -> list:
    """Each student's proposal order under the expected-rank reading of
    HERF: among the colleges she has not yet proposed to, the one of lowest
    expected rank position 1 + sum_d Pr[d strictly beats c] over the others
    d, ties to the lowest index.  Colleges she has proposed to have rejected
    her, so the order fixes her proposals in every run."""
    orders = []
    for s in range(inst.n):
        left, order = list(range(inst.m)), []
        while left:
            rank = {c: 1 + sum(pr_prefers(inst, s, d, c) for d in left if d != c) for c in left}
            order.append(min(left, key=lambda c: (rank[c], c)))
            left.remove(order[-1])
        orders.append(order)
    return orders


def fraction_case(u1i: F, u2i: F, u1j: F, u2j: F) -> tuple:
    """The two-feature case split of "i strictly beats j" in Fractions: (tag,
    eta), with eta = D2 / (D1 + D2) (0 when D2 = 0) for the threshold tags
    and None otherwise."""
    if u1i > u1j and u2i > u2j:
        return ALWAYS, None
    if u1i <= u1j and u2i <= u2j:
        return NEVER, None
    d1, d2 = abs(u1i - u1j), abs(u2i - u2j)
    eta = F(0) if d2 == 0 else d2 / (d1 + d2)
    return (THRESHOLD_ABOVE if u1i > u1j else THRESHOLD_BELOW), eta


def grid_pros(inst: Instance, matching, points: int = 10_000) -> float:
    """Stability probability by direct block-event counting on a midpoint
    grid of first-feature weights (two-feature instances)."""
    assert inst.num_features == 2
    w1 = (2 * np.arange(points) + 1) / (2 * points)
    w = np.column_stack([w1, 1.0 - w1])
    total = 1.0
    for s in range(inst.n):
        match = matching.college_of(s)
        cand = textbook_blockers(inst, matching, s)
        if match is None:
            total *= 0.0 if cand else 1.0
            continue
        if not cand:
            continue
        scores = w @ inst.utilities_f64[s]
        blocked = (scores[:, cand] > scores[:, [match]]).any(axis=1)
        total *= 1.0 - blocked.mean()
    return total


def _atom_score(w, utilities, c):
    return sum(x * row[c] for x, row in zip(w, utilities))


def atom_prefers(inst: Instance, s: int, ci: int, cj: int, strict: bool = True) -> F:
    """Pr[ci beats cj] for a discrete-weight student by enumerating her
    support atoms; strict selects > over >=."""
    total = F(0)
    for w, p in inst.weight_dists[s].atoms:
        si = _atom_score(w, inst.utilities[s], ci)
        sj = _atom_score(w, inst.utilities[s], cj)
        if (si > sj) if strict else (si >= sj):
            total += p
    return total


def atom_top(inst: Instance, s: int, c: int, pool) -> F:
    """Pr[c weakly beats every pool member] for a discrete-weight student."""
    total = F(0)
    for w, p in inst.weight_dists[s].atoms:
        sc = _atom_score(w, inst.utilities[s], c)
        if all(sc >= _atom_score(w, inst.utilities[s], d) for d in pool):
            total += p
    return total


def atom_pros(inst: Instance, matching) -> F:
    """Stability probability of a matching when every student has discrete
    weights: per student, the probability of her support atoms at which no
    textbook blocker strictly beats her match (w . gain > 0), multiplied."""
    total = F(1)
    for s, match in enumerate(matching.assignment):
        candidates = textbook_blockers(inst, matching, s)
        if match is None:
            total *= F(0) if candidates else F(1)
            continue
        u = inst.utilities[s]
        gains = [[row[c] - row[match] for row in u] for c in candidates]
        good = F(0)
        for w, p in inst.weight_dists[s].atoms:
            if all(sum(wf * gf for wf, gf in zip(w, g)) <= 0 for g in gains):
                good += p
        total *= good
    return total


def pairwise_strict(inst: Instance, s: int) -> list:
    """Discrete student s's strict table, one atom mask per ordered college
    pair: Pr[ci strictly beats cj] is the mass of the atoms scoring ci above cj."""
    dist = inst.weight_dists[s]
    atoms = integer_matmul(dist.kernel[0], integer_matrix(inst.utilities[s])[0])
    return [[dist.mass(atoms[:, i] > atoms[:, j]) for j in range(inst.m)] for i in range(inst.m)]


def kernel_pros(inst: Instance, matching) -> F:
    """Stability probability when every student has discrete weights, on the
    integer kernel: each student's utilities are cleared afresh and her
    textbook blockers' gains over her match scored at every atom."""
    total = F(1)
    for s, match in enumerate(matching.assignment):
        candidates = textbook_blockers(inst, matching, s)
        if match is None:
            total *= F(0) if candidates else F(1)
            continue
        dist = inst.weight_dists[s]
        u, _ = integer_matrix(inst.utilities[s])
        gains = integer_matmul(dist.kernel[0], u[:, candidates] - u[:, [match]])
        total *= dist.mass((gains <= 0).all(axis=1))
    return total


def reference_instance(doc: dict) -> Instance:
    """The instance a valid document with uniform or discrete weights
    describes, with ``parse_rational`` called once for every rational value
    and no distribution shared between students."""
    students, colleges, features = tuple(doc["students"]), tuple(doc["colleges"]), tuple(doc["features"])

    def dist(d):
        if d["type"] == "uniform_simplex":
            return UniformSimplex(len(features))
        return DiscreteWeights(
            tuple((tuple(parse_rational(x) for x in atom["w"]), parse_rational(atom["p"])) for atom in d["support"])
        )

    return Instance(
        students=students,
        colleges=colleges,
        capacities=tuple(doc["capacities"][c] for c in colleges),
        college_prefs=tuple(tuple(students.index(s) for s in doc["college_prefs"][c]) for c in colleges),
        features=features,
        utilities=tuple(
            tuple(tuple(parse_rational(doc["utilities"][s][f][c]) for c in colleges) for f in features)
            for s in students
        ),
        weight_dists=tuple(dist(doc["weight_dists"][s]) for s in students),
    )


def malformed_documents(doc: dict):
    """(label, JSON text, expected error) for edits of a valid document with
    students s1..s3, colleges c1..c3 and features f1, f2."""

    def edited(path, value):
        out = json.loads(json.dumps(doc))
        target = out
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return json.dumps(out)

    def utility_literal(literal):
        return edited(["utilities", "s1", "f1", "c1"], "@@").replace('"@@"', literal)

    return [
        ("utilities not an object", edited(["utilities"], "x"), ParseError),
        ("student utilities not an object", edited(["utilities", "s1"], "x"), ParseError),
        ("feature row as a list", edited(["utilities", "s1", "f1"], ["0.3", "0.2", "1.0"]), ParseError),
        ("college_prefs a string", edited(["college_prefs"], "x"), ParseError),
        ("college_prefs a list", edited(["college_prefs"], [["s1"]]), ParseError),
        ("preference entry a number", edited(["college_prefs", "c1"], 5), ParseError),
        ("preference entry of lists", edited(["college_prefs", "c1"], [["s1"], ["s2"], ["s3"]]), ParseError),
        ("utility 1e400", utility_literal("1e400"), ParseError),
        ("utility NaN", utility_literal("NaN"), ParseError),
        ("duplicate feature ids", edited(["features"], ["f1", "f1"]), ValidationError),
        ("students a string", edited(["students"], "s1"), ParseError),
        ("colleges a string", edited(["colleges"], "c1c2c3"), ParseError),
        ("features an object", edited(["features"], {"f1": "f1", "f2": "f2"}), ParseError),
        ("student id a number", edited(["students"], ["s1", "s2", 3]), ParseError),
        ("feature id null", edited(["features"], ["f1", None]), ParseError),
    ]


def triangle_quadrature_strict(inst: Instance, s: int, ci: int, cj: int, cells: int = 1500) -> float:
    """Pr[ci strictly beats cj] for a three-feature student by midpoint
    quadrature over the simplex triangle (w1, w2 free, w3 determined)."""
    assert inst.num_features == 3
    h = 1.0 / cells
    u = inst.utilities_f64[s]
    hits = 0
    total = 0
    for a in range(cells):
        w1 = (a + 0.5) * h
        bmax = int((1.0 - w1) / h)
        if bmax <= 0:
            continue
        w2 = (np.arange(bmax) + 0.5) * h
        w = np.column_stack([np.full(bmax, w1), w2, 1.0 - w1 - w2])
        scores = w @ u
        hits += int((scores[:, ci] > scores[:, cj]).sum())
        total += bmax
    return hits / total


def flat_optimum(inst: Instance) -> tuple:
    """The flat search that ``optimal_pros`` replaced: (first best matching,
    its ProsResult) over every matching in enumeration order, each scored by
    the validating ``pros_exact`` on a fresh copy of the instance (no memo)."""
    best = best_result = None
    for matching in enumerate_matchings(inst):
        result = pros_exact(replace(inst), matching)
        if best_result is None or result.value > best_result.value:
            best, best_result = matching, result
    return best, best_result


def matchings_count_closed_form(n: int, m: int) -> int:
    """Number of capacity-1 feasible assignments with unmatched allowed:
    sum over k of C(n,k) C(m,k) k! (choose matched students, their colleges
    and the bijection)."""
    from math import comb, factorial

    return sum(comb(n, k) * comb(m, k) * factorial(k) for k in range(min(n, m) + 1))


def one_shot_weights(dist, samples: int, rng: np.random.Generator) -> np.ndarray:
    """`samples` weight vectors drawn at once: normalized exponentials (uniform
    weights of dimension other than 2), a uniform first weight (dimension 2),
    a beta first weight, or categorical atoms."""
    if isinstance(dist, DiscreteWeights):
        probs = np.array([float(p) for _, p in dist.atoms])
        probs /= probs.sum()
        support = np.array([[float(x) for x in w] for w, _ in dist.atoms])
        return support[rng.choice(len(probs), size=samples, p=probs)]
    if isinstance(dist, BetaWeights):
        w1 = rng.beta(dist.alpha, dist.beta, size=samples)
        return np.column_stack([w1, 1.0 - w1])
    if dist.dim == 2:
        w1 = rng.random(samples)
        return np.column_stack([w1, 1.0 - w1])
    e = rng.exponential(1.0, size=(samples, dist.dim))
    return e / e.sum(axis=1, keepdims=True)


def one_shot_mc(inst: Instance, s: int, samples: int, seed: int, key: tuple, event) -> float:
    """Fraction of `samples` weight draws from substream `key` of `seed` at
    which `event` holds for student s, with every draw made and scored at
    once (``one_shot_weights``, then ``@ U`` and a boolean ``.mean()``)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
    utilities = np.array([[float(u) for u in row] for row in inst.utilities[s]])
    return float(event(one_shot_weights(inst.weight_dists[s], samples, rng) @ utilities).mean())
