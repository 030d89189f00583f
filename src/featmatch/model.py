"""Domain types, validation and (de)serialization.

An :class:`Instance` bundles students, colleges with capacities and strict
preferences over students, a feature list, per-(student, feature, college)
utilities in [0, 1], and one weight distribution per student.  A student's
realized preference over colleges is the ranking by ``sum_f w_f * u_f(c)``
for a weight vector ``w`` drawn from her distribution on the simplex.

Utilities and discrete probabilities are exact :class:`fractions.Fraction`
values so that downstream probability computations can be equality-tested.
Students and colleges are referenced by dense integer indices internally;
external string ids are mapped at parse time.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import ClassVar, Mapping, Union

import numpy as np

__all__ = [
    "ModelError",
    "ParseError",
    "ValidationError",
    "UniformSimplex",
    "DiscreteWeights",
    "BetaWeights",
    "WeightDistribution",
    "Instance",
    "Matching",
    "MatchingVerdict",
    "ProsResult",
    "parse_rational",
    "format_rational",
    "integer_matrix",
    "integer_matmul",
    "parse_document",
    "parse_instance",
    "serialize_instance",
    "instance_from_dict",
    "instance_to_dict",
    "validate_matching",
]


class ModelError(ValueError):
    """Base error for instance/matching construction and parsing."""


class ParseError(ModelError):
    """The input document is structurally malformed."""


class ValidationError(ModelError):
    """The input parses but violates a domain invariant."""


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------


_MAX_RATIONAL_CHARS = 1000  # characters in a rational string
_MAX_EXPONENT = 1000  # magnitude of a decimal string's exponent


def parse_rational(value) -> Fraction:
    """Parse ``"p/q"`` strings, decimal literals and numbers to an exact Fraction.

    Decimal strings like ``"0.3"`` become 3/10 exactly.  Bare floats are
    converted through their shortest decimal repr so JSON ``0.3`` also maps
    to 3/10 rather than the binary expansion of the float.  A string is
    bounded before any number is built: at most ``_MAX_RATIONAL_CHARS``
    characters, and an exponent (``"1e-5"``) of at most ``_MAX_EXPONENT``
    in magnitude, since building ``10**exponent`` takes time that grows
    faster than the exponent.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"malformed document: expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ParseError(f"malformed document: non-finite number {value!r}")
        return Fraction(repr(value))
    if isinstance(value, str):
        if len(value) > _MAX_RATIONAL_CHARS:
            raise ParseError(f"malformed document: a rational has more than {_MAX_RATIONAL_CHARS} characters")
        num, slash, den = value.partition("/")
        digits = value.isascii() and num.isdigit() and (den.isdigit() or not slash)  # skip the regex
        try:
            if digits:
                return Fraction(int(num), int(den or 1))
            _, e, exponent = value.lower().partition("e")
            if not e or abs(int(exponent)) <= _MAX_EXPONENT:
                return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed document: bad rational {value!r}") from exc
        raise ParseError(f"malformed document: the exponent of {value!r} exceeds {_MAX_EXPONENT} in magnitude")
    raise ParseError(f"malformed document: expected a rational, got {type(value).__name__}")


def format_rational(q: Fraction) -> str:
    """Render a Fraction as ``"p/q"`` (or ``"p"`` when integral), every digit
    written however many there are."""
    q = Fraction(q)
    num = _decimal_digits(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_decimal_digits(q.denominator)}"


def _decimal_digits(n: int) -> str:
    """``str(n)``, also past ``sys.get_int_max_str_digits()`` digits:
    ``Decimal`` has no such limit, and the process-wide limit stays as it is."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


# Exact integer kernels.  Rational rows times one common denominator are
# integer matrices whose products and sums are exact.  They are int64 only
# while a magnitude bound proves that no value on the way can overflow, and
# Python ints (dtype object) otherwise: just as exact, only slower.

_INT64_MAX = 2**63 - 1


def _int_dtype(bound: int):
    return np.int64 if bound <= _INT64_MAX else object


def _max_abs(a: np.ndarray) -> int:
    return int(abs(a).max()) if a.size else 0


def integer_matrix(rows) -> tuple[np.ndarray, int]:
    """``(A, d)`` with ``A / d == rows`` exactly: one common denominator d for
    a matrix of rationals (ints or Fractions; a float or bool raises
    ValidationError).  A is int64 when d and every sum of its entries fit."""
    rows = [list(row) for row in rows]
    for row in rows:
        for x in row:
            if type(x) not in (int, Fraction):  # no float, bool or fixed-width int
                raise ValidationError(f"expected an exact rational (int or Fraction), got {x!r}")
    d = math.lcm(*(x.denominator for row in rows for x in row))
    ints = [[x.numerator * (d // x.denominator) for x in row] for row in rows]
    a = np.array(ints, dtype=object)
    return a.astype(_int_dtype(max(d, a.size * _max_abs(a))), copy=False), d


def integer_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` exactly for integer arrays: int64 when both inputs and the
    inner dimension times their largest magnitudes fit, else in Python ints."""
    ma, mb = _max_abs(a), _max_abs(b)
    dtype = _int_dtype(max(ma, mb, a.shape[-1] * ma * mb))
    return a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# weight distributions
# ---------------------------------------------------------------------------

# Each kind owns its math.  ``mean`` is the componentwise weight expectation;
# ``w1_measure(lo, hi)`` is the probability that the first feature's weight
# lies in the closed interval [lo, hi] (two features only, ends in [0, 1]);
# ``sample(k, rng)`` draws k weight vectors as a (k, dim) float array;
# ``to_dict`` is the JSON form.  Uniform and discrete results are exact
# Fractions, beta results are floats; ``exact`` says which.


@dataclass(frozen=True)
class UniformSimplex:
    """Flat (all-ones Dirichlet) density over {w : w_f >= 0, sum_f w_f = 1}."""

    dim: int
    exact: ClassVar[bool] = True

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("distribution dimension mismatch: dim must be >= 1")

    @cached_property
    def mean(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(1, self.dim) for _ in range(self.dim))

    def w1_measure(self, lo, hi) -> Fraction:
        # w_f1 is uniform on [0, 1]
        return hi - lo if lo <= hi else Fraction(0)

    def sample(self, k: int, rng: np.random.Generator) -> np.ndarray:
        # normalized exponentials; the two-feature case draws w_f1 directly
        if self.dim == 2:
            w1 = rng.random(k)
            return np.column_stack([w1, 1.0 - w1])
        e = rng.standard_exponential(size=(k, self.dim))
        if self.dim < 8:
            # numpy adds fewer than 8 terms left to right, so these column adds
            # give e.sum(axis=1) bit for bit, without a reduction over a short axis
            total = e[:, 0].copy()
            for col in e.T[1:]:
                total += col
        else:
            total = e.sum(axis=1)
        e /= total[:, None]
        return e

    def to_dict(self) -> dict:
        return {"type": "uniform_simplex"}


@dataclass(frozen=True)
class DiscreteWeights:
    """Finite support over weight vectors; probabilities are exact rationals
    (ints or Fractions).  Every support vector lies exactly on the simplex.

    ``kernel`` is the support as integers, ``(W, dw, P, dp)``: ``W / dw``
    holds the support vectors (one row per atom) and ``P / dp`` their
    probabilities (see ``integer_matrix``).  Every method reads it, and
    ``mass(mask)`` is the probability of a boolean selection of atoms."""

    atoms: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    exact: ClassVar[bool] = True

    def __post_init__(self):
        if not self.atoms:
            raise ValidationError("discrete distribution needs at least one atom")
        dim = len(self.atoms[0][0])
        if any(len(w) != dim for w, _ in self.atoms):
            raise ValidationError("distribution dimension mismatch: ragged support")
        W, dw, P, dp = self.kernel
        nonpositive, negative = P <= 0, (W < 0).any(axis=1)
        faulty = np.flatnonzero(nonpositive | negative | (W.sum(axis=1) != dw))
        if faulty.size:  # the first faulty atom's first fault
            i = faulty[0]
            if nonpositive[i]:
                raise ValidationError("probabilities must sum to 1 and be positive")
            if negative[i]:
                raise ValidationError(f"support vector has a negative weight: {self.atoms[i][0]}")
            raise ValidationError(f"support vector does not sum to 1: {self.atoms[i][0]}")
        if P.sum() != dp:
            raise ValidationError("probabilities must sum to 1")

    @cached_property
    def kernel(self) -> tuple[np.ndarray, int, np.ndarray, int]:
        W, dw = integer_matrix(w for w, _ in self.atoms)
        (P,), dp = integer_matrix([[p for _, p in self.atoms]])
        return W, dw, P, dp

    def mass(self, mask) -> Fraction:
        """Probability of the atoms that a boolean mask selects."""
        _, _, P, dp = self.kernel
        return Fraction(int(P[mask].sum()), dp)

    @property
    def dim(self) -> int:
        return len(self.atoms[0][0])

    @cached_property
    def mean(self) -> tuple[Fraction, ...]:
        W, dw, P, dp = self.kernel
        return tuple(Fraction(int(x), dw * dp) for x in integer_matmul(P, W))

    def w1_measure(self, lo, hi) -> Fraction:
        W, dw, _, _ = self.kernel
        lo, hi = Fraction(lo), Fraction(hi)
        # w_f1 = W[:, 0] / dw against an end n / d is W[:, 0] * d against n * dw;
        # support weights are at most 1, so W[:, 0] * d is at most dw * d
        bound = dw * max(lo.denominator, hi.denominator, abs(lo.numerator), abs(hi.numerator))
        w1 = W[:, 0].astype(_int_dtype(bound), copy=False)
        return self.mass((w1 * lo.denominator >= lo.numerator * dw) & (w1 * hi.denominator <= hi.numerator * dw))

    @cached_property
    def _float_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """(probabilities, support) as floats, for sampling."""
        probs = np.array([float(p) for _, p in self.atoms])
        probs /= probs.sum()
        support = np.array([[float(x) for x in w] for w, _ in self.atoms])
        return probs, support

    def sample(self, k: int, rng: np.random.Generator) -> np.ndarray:
        probs, support = self._float_atoms
        return support[rng.choice(len(probs), size=k, p=probs)]

    def to_dict(self) -> dict:
        return {
            "type": "discrete",
            "support": [
                {"w": [format_rational(x) for x in w], "p": format_rational(p)} for w, p in self.atoms
            ],
        }


@dataclass(frozen=True)
class BetaWeights:
    """Two-feature parametric family: w_f1 ~ Beta(alpha, beta), w_f2 = 1 - w_f1."""

    alpha: float
    beta: float
    exact: ClassVar[bool] = False

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValidationError("beta2 shape parameters must be finite")
        if not (self.alpha > 0 and self.beta > 0):
            raise ValidationError("beta2 shape parameters must be positive")

    @property
    def dim(self) -> int:
        return 2

    @property
    def mean(self) -> tuple[float, float]:
        m1 = self.alpha / (self.alpha + self.beta)
        return (m1, 1.0 - m1)

    def w1_measure(self, lo, hi) -> float:
        if lo > hi:
            return 0.0
        return max(0.0, self._cdf(hi) - self._cdf(lo))

    def _cdf(self, x) -> float:
        # imported on first use: scipy.special costs every start-up about 0.3 s
        from scipy.special import betainc

        return float(betainc(self.alpha, self.beta, float(x)))

    def sample(self, k: int, rng: np.random.Generator) -> np.ndarray:
        w1 = rng.beta(self.alpha, self.beta, size=k)
        return np.column_stack([w1, 1.0 - w1])

    def to_dict(self) -> dict:
        return {"type": "beta2", "alpha": self.alpha, "beta": self.beta}


WeightDistribution = Union[UniformSimplex, DiscreteWeights, BetaWeights]


# ---------------------------------------------------------------------------
# instance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    """A validated school-choice instance.

    ``utilities[s][f][c]`` is student ``s``'s utility for college ``c`` on
    feature ``f`` (all dense indices).  ``college_prefs[c]`` lists student
    indices from most to least preferred and must be a permutation of all
    students.  The fields are immutable after construction; ``pair_facts``
    fills in lazily and is a pure function of them, so sharing is safe.
    """

    students: tuple[str, ...]
    colleges: tuple[str, ...]
    capacities: tuple[int, ...]
    college_prefs: tuple[tuple[int, ...], ...]
    features: tuple[str, ...]
    utilities: tuple[tuple[tuple[Fraction, ...], ...], ...]
    weight_dists: tuple[WeightDistribution, ...]

    def __post_init__(self):
        n, m, k = len(self.students), len(self.colleges), len(self.features)
        if n == 0 or m == 0 or k == 0:
            raise ValidationError("instance needs at least one student, college and feature")
        if len(set(self.students)) != n or len(set(self.colleges)) != m or len(set(self.features)) != k:
            raise ValidationError("duplicate student, college or feature ids")
        if len(self.capacities) != m or len(self.college_prefs) != m:
            raise ValidationError("capacities/preferences must cover every college")
        for cap in self.capacities:
            if cap < 1:
                raise ValidationError("capacity must be positive")
        for c, order in enumerate(self.college_prefs):
            if sorted(order) != list(range(n)):
                raise ValidationError(
                    f"incomplete college preference: {self.colleges[c]} must rank every student exactly once"
                )
        if len(self.utilities) != n or len(self.weight_dists) != n:
            raise ValidationError("utilities/weight_dists must cover every student")
        for s, per_feature in enumerate(self.utilities):
            if len(per_feature) != k or any(len(row) != m for row in per_feature):
                raise ValidationError("utility table shape must be students x features x colleges")
            for row in per_feature:
                for u in row:
                    if not (0 <= u <= 1):
                        raise ValidationError(
                            f"utility outside [0,1]: student {self.students[s]} has {format_rational(u)}"
                        )
        for s, dist in enumerate(self.weight_dists):
            if dist.dim != k:
                raise ValidationError(
                    f"distribution dimension mismatch: student {self.students[s]} has dim "
                    f"{dist.dim}, instance has {k} features"
                )

    @property
    def n(self) -> int:
        return len(self.students)

    @property
    def m(self) -> int:
        return len(self.colleges)

    @property
    def num_features(self) -> int:
        return len(self.features)

    @cached_property
    def college_rank(self) -> tuple[tuple[int, ...], ...]:
        """college_rank[c][s] = position of student s in c's list (0 = best)."""
        ranks = []
        for order in self.college_prefs:
            r = [0] * self.n
            for pos, s in enumerate(order):
                r[s] = pos
            ranks.append(tuple(r))
        return tuple(ranks)

    @cached_property
    def utilities_f64(self) -> np.ndarray:
        """Float view of the utility table, shape (n, |F|, m)."""
        return np.array(
            [[[float(u) for u in row] for row in per_feature] for per_feature in self.utilities],
            dtype=np.float64,
        )

    @cached_property
    def utilities_int(self) -> tuple[tuple[np.ndarray, int], ...]:
        """Each student's utility rows as ``integer_matrix(rows)``: ``(U, du)``."""
        return tuple(integer_matrix(rows) for rows in self.utilities)

    @cached_property
    def pair_facts(self) -> list:
        """Per-student slots for ``prob``'s pairwise-fact tables; None until built."""
        return [None] * self.n

    def student_index(self, sid: str) -> int:
        try:
            return self.students.index(sid)
        except ValueError:
            raise ValidationError(f"unknown student id: {sid!r}") from None

    def college_index(self, cid: str) -> int:
        try:
            return self.colleges.index(cid)
        except ValueError:
            raise ValidationError(f"unknown college id: {cid!r}") from None


# ---------------------------------------------------------------------------
# matchings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Matching:
    """Assignment of students to colleges (or None for unmatched)."""

    assignment: tuple[Union[int, None], ...]

    @cached_property
    def by_college(self) -> dict[int, frozenset[int]]:
        out: dict[int, set[int]] = {}
        for s, c in enumerate(self.assignment):
            if c is not None:
                out.setdefault(c, set()).add(s)
        return {c: frozenset(v) for c, v in out.items()}

    def college_of(self, s: int) -> Union[int, None]:
        return self.assignment[s]

    def students_of(self, c: int) -> frozenset[int]:
        return self.by_college.get(c, frozenset())

    @classmethod
    def from_ids(cls, inst: Instance, mapping: Mapping[str, Union[str, None]]) -> "Matching":
        """Build from external ids, e.g. {"s1": "c2", "s2": None}."""
        assignment: list[Union[int, None]] = [None] * inst.n
        for sid, cid in mapping.items():
            s = inst.student_index(sid)
            assignment[s] = None if cid is None else inst.college_index(cid)
        return cls(tuple(assignment))

    def to_ids(self, inst: Instance) -> dict[str, Union[str, None]]:
        return {
            inst.students[s]: (None if c is None else inst.colleges[c])
            for s, c in enumerate(self.assignment)
        }


@dataclass(frozen=True)
class MatchingVerdict:
    ok: bool
    violations: tuple[str, ...] = ()


def validate_matching(inst: Instance, matching: Matching) -> MatchingVerdict:
    """Check capacity feasibility and index consistency of a matching."""
    if len(matching.assignment) != inst.n:
        raise ValidationError("matching must assign every student (possibly to None)")
    load: dict[int, int] = {}  # colleges in order of first appearance
    for c in matching.assignment:
        if c is not None:
            if not (0 <= c < inst.m):
                raise ValidationError(f"unknown college index in matching: {c}")
            load[c] = load.get(c, 0) + 1
    violations = tuple(
        f"college {inst.colleges[c]} over capacity: {k} > {inst.capacities[c]}"
        for c, k in load.items()
        if k > inst.capacities[c]
    )
    return MatchingVerdict(ok=not violations, violations=violations)


# ---------------------------------------------------------------------------
# probability-of-stability results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProsResult:
    """A stability probability, tagged by how it was obtained.

    kind "exact": value is a Fraction computed by exact arithmetic.
    kind "closed_form": value is a float from a deterministic closed form
    (continuous parametric distributions with irrational cdf values).
    kind "estimate": Monte Carlo estimate with standard error, sample count
    and seed.  Estimation is never silently substituted for an exact path.
    """

    value: Union[Fraction, float]
    kind: str
    stderr: float = 0.0
    samples: int = 0
    seed: Union[int, None] = None

    def __post_init__(self):
        if self.kind not in ("exact", "closed_form", "estimate"):
            raise ValidationError(f"unknown ProsResult kind: {self.kind!r}")
        if self.kind == "exact" and not isinstance(self.value, Fraction):
            raise ValidationError("exact ProsResult must carry a Fraction")
        if not (0 <= self.value <= 1):
            raise ValidationError("probability must lie in [0,1]")
        if self.stderr < 0:
            raise ValidationError("standard error must be >= 0")

    def __float__(self) -> float:
        return float(self.value)

    def display(self) -> str:
        if self.kind == "exact":
            return format_rational(self.value)
        if self.kind == "closed_form":
            return f"{float(self.value):.12g}"
        return f"{float(self.value):.6f} (stderr {self.stderr:.2g}, {self.samples} samples, seed {self.seed})"


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------


def _dist_from_dict(doc, num_features: int, sid: str, rational) -> WeightDistribution:
    """Parse one weight distribution document; ``rational`` is the
    document's memo around ``parse_rational`` (see ``instance_from_dict``)."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise ParseError(f"malformed document: weight_dists[{sid!r}] needs a 'type'")
    kind = doc["type"]
    if kind == "uniform_simplex":
        return UniformSimplex(dim=num_features)
    if kind == "discrete":
        try:
            atoms = tuple(
                (tuple(rational(x) for x in atom["w"]), rational(atom["p"]))
                for atom in doc["support"]
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed document: bad discrete support for {sid!r}") from exc
        return DiscreteWeights(atoms)
    if kind == "beta2":
        if "alpha" not in doc or "beta" not in doc:
            raise ParseError(f"malformed document: beta2 needs alpha and beta for {sid!r}")
        return BetaWeights(alpha=_parse_shape(doc["alpha"], sid), beta=_parse_shape(doc["beta"], sid))
    raise ParseError(f"malformed document: unknown distribution type {kind!r}")


def _parse_shape(value, sid: str) -> float:
    """A beta2 shape parameter: a JSON number or a numeric string."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise ParseError(f"malformed document: bad beta2 shape parameter {value!r} for {sid!r}")


# without the circular check, a document that contains itself raises RecursionError
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def _document_key(doc):
    """Equal keys for equal JSON documents: the JSON text with sorted keys,
    from one reused encoder.  Unlike ``==``, the JSON text keeps ``true``
    apart from ``1``; a document that is not plain JSON, or that contains
    itself, gets a key of its own.  Students with equal keys share one
    parsed distribution, and within a document each distinct rational
    string is parsed once (see ``instance_from_dict``)."""
    try:
        return _KEY_ENCODER.encode(doc)
    except (TypeError, ValueError, RecursionError):
        return object()


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"malformed document: {where} must be an object")
    return value


def _ids(value, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError(f"malformed document: {where} must be a list of strings")
    return tuple(value)


def instance_from_dict(doc: Mapping) -> Instance:
    """Build and validate an Instance from the JSON document structure."""
    try:
        students = _ids(doc["students"], "students")
        colleges = _ids(doc["colleges"], "colleges")
        features = _ids(doc["features"], "features")
        caps_doc = _object(doc["capacities"], "capacities")
        prefs_doc = _object(doc["college_prefs"], "college_prefs")
        utils_doc = _object(doc["utilities"], "utilities")
        dists_doc = _object(doc["weight_dists"], "weight_dists")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed document: {exc}") from exc

    s_index = {s: i for i, s in enumerate(students)}
    c_index = {c: i for i, c in enumerate(colleges)}

    # each distinct rational string in the document is parsed once; other
    # values, and strings that fail, go to parse_rational every time
    parsed_strings: dict[str, Fraction] = {}

    def rational(value) -> Fraction:
        if type(value) is not str:
            return parse_rational(value)
        q = parsed_strings.get(value)
        if q is None:
            q = parsed_strings[value] = parse_rational(value)
        return q

    capacities = []
    for c in colleges:
        if c not in caps_doc:
            raise ParseError(f"malformed document: missing capacity for {c!r}")
        cap = caps_doc[c]
        if not isinstance(cap, int) or isinstance(cap, bool):
            raise ParseError(f"malformed document: capacity for {c!r} must be an integer")
        capacities.append(cap)

    college_prefs = []
    for c in colleges:
        order = prefs_doc.get(c)
        if order is None:
            raise ValidationError(f"incomplete college preference: {c} has no list")
        if not isinstance(order, list) or not all(isinstance(sid, str) for sid in order):
            raise ParseError(f"malformed document: preferences of {c!r} must be a list of student ids")
        try:
            college_prefs.append(tuple(s_index[s] for s in order))
        except KeyError as exc:
            raise ValidationError(f"unknown student id: {exc.args[0]!r} in preferences of {c}") from None

    utilities = []
    for s in students:
        per_student = utils_doc.get(s)
        if per_student is None:
            raise ParseError(f"malformed document: missing utilities for {s!r}")
        per_student = _object(per_student, f"utilities of {s!r}")
        per_feature = []
        for f in features:
            row_doc = per_student.get(f)
            if row_doc is None:
                raise ParseError(f"malformed document: missing utilities for {s!r} on feature {f!r}")
            row_doc = _object(row_doc, f"utilities of {s!r} on feature {f!r}")
            row = [Fraction(0)] * len(colleges)
            for cid, val in row_doc.items():
                if cid not in c_index:
                    raise ValidationError(f"unknown college id: {cid!r} in utilities of {s}")
                row[c_index[cid]] = rational(val)
            missing = [colleges[j] for j in range(len(colleges)) if colleges[j] not in row_doc]
            if missing:
                raise ParseError(f"malformed document: {s!r} lacks a {f!r} utility for {missing[0]!r}")
            per_feature.append(tuple(row))
        utilities.append(tuple(per_feature))

    # students with equal distribution documents share one parsed object, so
    # its kernel and checks run once
    dists, parsed = [], {}
    for s in students:
        if s not in dists_doc:
            raise ParseError(f"malformed document: missing weight distribution for {s!r}")
        key = _document_key(dists_doc[s])
        if key not in parsed:
            parsed[key] = _dist_from_dict(dists_doc[s], len(features), s, rational)
        dists.append(parsed[key])

    return Instance(
        students=students,
        colleges=colleges,
        capacities=tuple(capacities),
        college_prefs=tuple(college_prefs),
        features=features,
        utilities=tuple(utilities),
        weight_dists=tuple(dists),
    )


def instance_to_dict(inst: Instance) -> dict:
    return {
        "students": list(inst.students),
        "colleges": list(inst.colleges),
        "capacities": {c: inst.capacities[j] for j, c in enumerate(inst.colleges)},
        "college_prefs": {
            c: [inst.students[s] for s in inst.college_prefs[j]] for j, c in enumerate(inst.colleges)
        },
        "features": list(inst.features),
        "utilities": {
            s: {
                f: {c: format_rational(inst.utilities[i][k][j]) for j, c in enumerate(inst.colleges)}
                for k, f in enumerate(inst.features)
            }
            for i, s in enumerate(inst.students)
        },
        "weight_dists": {s: inst.weight_dists[i].to_dict() for i, s in enumerate(inst.students)},
    }


def parse_document(text: Union[str, bytes]) -> dict:
    """The JSON object in `text`, a str or bytes in any encoding json.loads detects; raises ParseError."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ParseError("malformed document: nested too deeply") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"malformed document: {exc}") from exc
    except ValueError as exc:  # an integer past the int-to-str digit limit
        raise ParseError(f"malformed document: an integer has more than {sys.get_int_max_str_digits()} digits") from exc
    if not isinstance(doc, dict):
        raise ParseError("malformed document: top level must be an object")
    return doc


def parse_instance(text: Union[str, bytes]) -> Instance:
    """Parse the JSON instance format; raises ParseError/ValidationError."""
    return instance_from_dict(parse_document(text))


def serialize_instance(inst: Instance, indent: Union[int, None] = 2) -> str:
    return json.dumps(instance_to_dict(inst), indent=indent, sort_keys=False)
