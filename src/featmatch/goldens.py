"""Reference-value checks behind the ``paper-check`` CLI verb.

Every check compares library output against a frozen reference value from
the source material's worked examples and constructed families, by exact
rational equality wherever the computation path is exact.  The EXPECTED
table is module-level so the self-test can perturb one entry and watch the
harness flag exactly that name.  Each family is built with its builder's
defaults, which the family formulas read, and each (instance, rule) pair
runs GDA once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gda import Strategy, comparison_vector, run_gda
from .instances import (
    DEFAULT_DELTA as _D,
    DEFAULT_EPS as _E,
    HERF_TIGHT_EPS,
    golden_ratio,
    herf_tight,
    icr_conflict,
    non_transitive,
    vanishing_ratio,
    worked_example,
)
from .model import Matching, format_rational
from .oracle import audit_ic, check_transitivity, enumerate_matchings, optimal_pros
from .prob import expected_utility, pr_prefers, pr_top, pros_exact_2f

__all__ = ["GoldenResult", "EXPECTED", "run_goldens"]

F = Fraction


@dataclass(frozen=True)
class GoldenResult:
    name: str
    ok: bool
    detail: str


_Y, _Z = F(3, 10), F(2, 5)  # golden-ratio has no defaults

EXPECTED = {
    "example1/s3-vector-c1": (F(6, 7), F(1)),
    "example1/s3-vector-c2": (F(1, 7), F(2, 5)),
    "example1/s3-vector-c3": (F(0), F(3, 5)),
    "example1/s3-expected-utilities": (F(11, 20), F(3, 10), F(7, 20)),
    "example1/locv-matching": {"s1": "c3", "s2": "c1", "s3": "c2"},
    "example1/locv-pros": F(2, 11),
    "example1/loicv-matching": {"s1": "c1", "s2": "c3", "s3": "c2"},
    "example1/loicv-pros": F(1),
    "example1/heuf-pros": F(1),
    "example1/herf-pros": F(1),
    "example1/optimal-pros": F(1),
    "example2/locv-pros": F(1),
    "example2/loicv-matching": {"s1": "c2", "s2": "c1", "s3": "c3"},
    "example2/loicv-pros": F(3, 4),
    "example2/heuf-pros": F(3, 4),
    "example2/herf-pros": F(3, 4),
    "example3/weak-c3-c1": F(7, 12),
    "example3/weak-c3-c2": F(3, 5),
    "example3/top-c3": F(11, 60),
    "example3/locv-pros": F(8, 17),
    "example3/herf-pros": F(8, 17),
    "example3/loicv-pros": F(9, 17),
    "example3/heuf-pros": F(9, 17),
    "vanishing-ratio/algorithm-pros": _E * (_D + 2 * _E) / ((_D + _E) * (_D + 3 * _E)),
    "vanishing-ratio/algorithm-matching": {"s1": "c3", "s2": "c2", "s3": "c1"},
    "vanishing-ratio/optimal-pros": (_D + 2 * _E) / (2 * _D + 6 * _E),
    "vanishing-ratio/optimal-matching": {"s1": "c3", "s2": "c1", "s3": "c2"},
    "vanishing-ratio/ratio": 2 * _E / (_D + _E),
    "icr-conflict/weak-c2-c1": (_D + 4 * _E) / (2 * _D + 6 * _E),
    "icr-conflict/weak-c2-c3": (_D + 2 * _E) / (2 * _D + 2 * _E),
    "icr-conflict/pros-at-c2": _E * (_D + 2 * _E) / ((_D + _E) * (_D + 3 * _E)),
    "icr-conflict/pros-at-c1": (_D + 2 * _E) / (2 * _D + 6 * _E),
    "herf-tight/herf-pros": (F(1, 3) + 2 * HERF_TIGHT_EPS / (3 * _D)) ** 3,
    "herf-tight/optimal-pros": F(1),
    "golden-ratio/positive-pros": {_Z, _Y, (1 - _Z) * (1 - _Y)},
}


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(_fmt(v) for v in value)) + "}"
    return str(value)


def _check(results: list[GoldenResult], name: str, got) -> None:
    want = EXPECTED[name]
    ok = got == want
    detail = f"got {_fmt(got)}" + ("" if ok else f", want {_fmt(want)}")
    results.append(GoldenResult(name, ok, detail))


def _assert_true(results: list[GoldenResult], name: str, ok: bool, detail: str) -> None:
    results.append(GoldenResult(name, bool(ok), detail))


def _audit_clean(results: list[GoldenResult], name: str, inst, rule: Strategy, level: str) -> None:
    report = audit_ic(inst, rule, level=level)
    detail = f"{len(report.violations)} violation(s) over {report.misreports_tried} misreports"
    _assert_true(results, name, report.ok, detail)


def _gda_pros(inst, rule: Strategy) -> tuple[Matching, Fraction]:
    """One GDA run under rule: its matching and the matching's exact ProS."""
    matching, _ = run_gda(inst, rule)
    return matching, pros_exact_2f(inst, matching).value


_EXAMPLE_RULES = (Strategy.LOCV, Strategy.LOICV, Strategy.HEUF, Strategy.HERF)  # in reporting order


def run_goldens(samples: int = 100_000, seed: int = 42) -> list[GoldenResult]:
    """Run every reference check; order is stable."""
    results: list[GoldenResult] = []

    ex1 = worked_example(1)
    for c in range(3):
        _check(results, f"example1/s3-vector-c{c + 1}", comparison_vector(ex1, 2, c, range(3)))
    _check(results, "example1/s3-expected-utilities", tuple(expected_utility(ex1, 2, c) for c in range(3)))
    for rule in _EXAMPLE_RULES:
        m, pros = _gda_pros(ex1, rule)
        if rule in (Strategy.LOCV, Strategy.LOICV):
            _check(results, f"example1/{rule.value}-matching", m.to_ids(ex1))
        _check(results, f"example1/{rule.value}-pros", pros)
    _check(results, "example1/optimal-pros", optimal_pros(ex1).best_pros.value)

    ex2 = worked_example(2)
    for rule in _EXAMPLE_RULES:
        m, pros = _gda_pros(ex2, rule)
        if rule is Strategy.LOICV:
            _check(results, "example2/loicv-matching", m.to_ids(ex2))
        _check(results, f"example2/{rule.value}-pros", pros)

    ex3 = worked_example(3)
    _check(results, "example3/weak-c3-c1", pr_prefers(ex3, 2, 2, 0, strict=False))
    _check(results, "example3/weak-c3-c2", pr_prefers(ex3, 2, 2, 1, strict=False))
    _check(results, "example3/top-c3", pr_top(ex3, 2, 2, range(3)))
    for rule in (Strategy.LOCV, Strategy.HERF, Strategy.LOICV, Strategy.HEUF):
        _check(results, f"example3/{rule.value}-pros", _gda_pros(ex3, rule)[1])

    vr = vanishing_ratio()
    runs = {rule: _gda_pros(vr, rule) for rule in (Strategy.HEUF, Strategy.LOCV, Strategy.LOICV)}
    for rule, (m, pros) in runs.items():
        if rule is Strategy.HEUF:
            _check(results, "vanishing-ratio/algorithm-matching", m.to_ids(vr))
        _check(results, "vanishing-ratio/algorithm-pros", pros)
    opt = optimal_pros(vr)
    _check(results, "vanishing-ratio/optimal-matching", opt.best_matching.to_ids(vr))
    _check(results, "vanishing-ratio/optimal-pros", opt.best_pros.value)
    _check(results, "vanishing-ratio/ratio", runs[Strategy.LOCV][1] / opt.best_pros.value)

    icr = icr_conflict()
    _check(results, "icr-conflict/weak-c2-c1", pr_prefers(icr, 0, 1, 0, strict=False))
    _check(results, "icr-conflict/weak-c2-c3", pr_prefers(icr, 0, 1, 2, strict=False))
    at_c2 = Matching.from_ids(icr, {"s1": "c2", "s2": "c1", "s3": "c3"})
    _check(results, "icr-conflict/pros-at-c2", pros_exact_2f(icr, at_c2).value)
    at_c1 = Matching.from_ids(icr, {"s1": "c1", "s2": "c2", "s3": "c3"})
    _check(results, "icr-conflict/pros-at-c1", pros_exact_2f(icr, at_c1).value)
    _audit_clean(results, "icr-conflict/loicv-ic-r-clean", icr, Strategy.LOICV, "ic-r")
    for rule in Strategy:
        _audit_clean(results, f"example1/{rule.value}-ic-c-clean", ex1, rule, "ic-c")

    ht = herf_tight(3)
    m, pros = _gda_pros(ht, Strategy.HERF)
    diag = all(m.college_of(s) == s for s in range(3))
    _assert_true(results, "herf-tight/herf-diagonal", diag, f"matching {m.to_ids(ht)}")
    _check(results, "herf-tight/herf-pros", pros)
    _check(results, "herf-tight/optimal-pros", optimal_pros(ht).best_pros.value)

    gr = golden_ratio(1, _Y, _Z)
    values = (pros_exact_2f(gr, mm).value for mm in enumerate_matchings(gr))
    _check(results, "golden-ratio/positive-pros", {v for v in values if v > 0})

    nt = non_transitive()
    p12 = pr_prefers(nt, 0, 0, 1, strict=True, samples=samples, seed=seed)
    p23 = pr_prefers(nt, 0, 1, 2, strict=True, samples=samples, seed=seed)
    p13 = pr_prefers(nt, 0, 0, 2, strict=True, samples=samples, seed=seed)
    _assert_true(
        results,
        "non-transitive/cycle-estimates",
        p12 > 0.5 and p23 > 0.5 and p13 < 0.5,
        f"estimates {p12:.4f}, {p23:.4f}, {p13:.4f} (want >1/2, >1/2, <1/2)",
    )
    triple = check_transitivity(nt, 0, samples=samples, seed=seed)
    _assert_true(
        results,
        "non-transitive/violating-triple",
        triple == (0, 1, 2),
        f"triple {triple}",
    )

    return results
