import json
import os
import random
import subprocess
import sys
import time
from fractions import _RATIONAL_FORMAT, Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import featmatch
from featmatch.model import (
    BetaWeights,
    DiscreteWeights,
    Matching,
    ParseError,
    ProsResult,
    UniformSimplex,
    ValidationError,
    format_rational,
    instance_from_dict,
    parse_instance,
    parse_rational,
    serialize_instance,
    validate_matching,
)
from featmatch.instances import gen_random, non_transitive, worked_example

from helpers import malformed_documents, reference_instance

EX1_JSON = {
    "students": ["s1", "s2", "s3"],
    "colleges": ["c1", "c2", "c3"],
    "capacities": {"c1": 1, "c2": 1, "c3": 1},
    "college_prefs": {
        "c1": ["s1", "s2", "s3"],
        "c2": ["s1", "s3", "s2"],
        "c3": ["s2", "s3", "s1"],
    },
    "features": ["f1", "f2"],
    "utilities": {
        "s1": {
            "f1": {"c1": "0.3", "c2": "0.2", "c3": "1.0"},
            "f2": {"c1": "0.7", "c2": "0.4", "c3": "0.3"},
        },
        "s2": {
            "f1": {"c1": "0.5", "c2": "0.1", "c3": "0.7"},
            "f2": {"c1": "0.6", "c2": "0.3", "c3": "0.1"},
        },
        "s3": {
            "f1": {"c1": "9/10", "c2": "3/10", "c3": "3/5"},
            "f2": {"c1": "1/5", "c2": "3/10", "c3": "1/10"},
        },
    },
    "weight_dists": {
        "s1": {"type": "uniform_simplex"},
        "s2": {"type": "uniform_simplex"},
        "s3": {"type": "uniform_simplex"},
    },
}


def test_parse_rational_forms():
    assert parse_rational("3/10") == F(3, 10)
    assert parse_rational("0.3") == F(3, 10)
    assert parse_rational(0.3) == F(3, 10)  # via decimal repr, not binary float
    assert parse_rational(1) == F(1)
    with pytest.raises(ParseError):
        parse_rational("not-a-number")
    assert format_rational(F(2, 4)) == "1/2"
    assert format_rational(F(3)) == "3"


def test_rational_strings_are_bounded_before_a_number_is_built():
    assert parse_rational("1e-1000") == F(1, 10**1000)
    assert parse_rational("1/" + "3" * 998) == F(1, int("3" * 998))  # 1,000 characters
    for text in ("1e-1001", "0e1000000", "0e10000000", "0e100000000", "1E+1001"):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="exponent"):
            parse_rational(text)
        assert time.perf_counter() - start < 0.1, text
    for text in ("1/" + "3" * 999, "0." + "1" * 999):
        with pytest.raises(ParseError, match="more than 1000 characters"):
            parse_rational(text)


def test_format_rational_writes_every_digit():
    limit = sys.get_int_max_str_digits()
    assert format_rational(F(1, 10**5000)) == "1/1" + "0" * 5000
    assert format_rational(F(-(10**5000))) == "-1" + "0" * 5000
    assert sys.get_int_max_str_digits() == limit  # the process-wide limit is left alone


@settings(max_examples=300)
@given(st.text(alphabet="0123456789/.-+ _e\u0663", max_size=8))
def test_parse_rational_agrees_with_fraction(text):
    # the ASCII "p" and "p/q" fast path gives Fraction(str)'s value, every
    # string Fraction rejects (zero denominators included) is a ParseError,
    # and so is an exponent beyond 1000 in magnitude (read by Fraction's own
    # grammar), before 10**exponent is built
    match = _RATIONAL_FORMAT.match(text)
    if match and match.group("exp") and abs(int(match.group("exp"))) > 1000:
        with pytest.raises(ParseError, match="exponent"):
            parse_rational(text)
        return
    try:
        want = F(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ParseError, match="bad rational"):
            parse_rational(text)
    else:
        assert parse_rational(text) == want


def test_parse_example_document_equals_builtin():
    inst = parse_instance(json.dumps(EX1_JSON))
    assert inst.n == 3 and inst.m == 3 and inst.num_features == 2
    assert inst.capacities == (1, 1, 1)
    assert inst == worked_example(1)


def test_capacity_must_be_positive():
    doc = json.loads(json.dumps(EX1_JSON))
    doc["capacities"]["c2"] = 0
    with pytest.raises(ValidationError, match="capacity must be positive"):
        parse_instance(json.dumps(doc))


def test_discrete_probabilities_must_sum_to_one():
    doc = json.loads(json.dumps(EX1_JSON))
    doc["weight_dists"]["s1"] = {
        "type": "discrete",
        "support": [
            {"w": ["1/2", "1/2"], "p": "1/2"},
            {"w": ["1/4", "3/4"], "p": "2/5"},
        ],
    }
    with pytest.raises(ValidationError, match="probabilities must sum to 1"):
        parse_instance(json.dumps(doc))


def test_equal_distribution_documents_are_parsed_once():
    doc = json.loads(json.dumps(EX1_JSON))
    for sid in ("s1", "s2"):
        doc["weight_dists"][sid] = {"type": "discrete", "support": [{"w": ["1/4", "3/4"], "p": 1}]}
    doc["weight_dists"]["s3"] = {"support": [{"p": 1, "w": ["1/4", "3/4"]}], "type": "discrete"}
    dists = parse_instance(json.dumps(doc)).weight_dists
    assert dists[0] is dists[1] is dists[2]
    # true == 1 in Python, but a true-for-1 copy is parsed on its own and fails
    doc["weight_dists"]["s2"]["support"][0]["p"] = True
    with pytest.raises(ParseError, match="expected a rational, got True"):
        parse_instance(json.dumps(doc))
    # an error in a shared document names the first student that has it
    for sid in ("s1", "s2", "s3"):
        doc["weight_dists"][sid] = {"type": "discrete", "support": [{"w": ["1/4", "3/4"]}]}
    with pytest.raises(ParseError, match="bad discrete support for 's1'"):
        parse_instance(json.dumps(doc))


def test_utility_range_and_preference_completeness():
    doc = json.loads(json.dumps(EX1_JSON))
    doc["utilities"]["s1"]["f1"]["c1"] = "1.5"
    with pytest.raises(ValidationError, match=r"utility outside \[0,1\]"):
        parse_instance(json.dumps(doc))
    doc = json.loads(json.dumps(EX1_JSON))
    doc["college_prefs"]["c1"] = ["s1", "s2"]
    with pytest.raises(ValidationError, match="incomplete college preference"):
        parse_instance(json.dumps(doc))
    doc = json.loads(json.dumps(EX1_JSON))
    doc["weight_dists"]["s1"] = {"type": "discrete", "support": [{"w": ["1/2", "1/4", "1/4"], "p": "1"}]}
    with pytest.raises(ValidationError, match="distribution dimension mismatch"):
        parse_instance(json.dumps(doc))


def test_malformed_documents():
    with pytest.raises(ParseError, match="malformed document"):
        parse_instance("{nope")
    with pytest.raises(ParseError, match="malformed document"):
        parse_instance("[1, 2]")
    doc = json.loads(json.dumps(EX1_JSON))
    del doc["utilities"]["s2"]
    with pytest.raises(ParseError, match="malformed document"):
        parse_instance(json.dumps(doc))
    for _, text, error in malformed_documents(EX1_JSON):
        with pytest.raises(error):
            parse_instance(text)


MALFORMED_MESSAGES = {
    "utilities not an object": "malformed document: utilities must be an object",
    "student utilities not an object": "malformed document: utilities of 's1' must be an object",
    "feature row as a list": "malformed document: utilities of 's1' on feature 'f1' must be an object",
    "college_prefs a string": "malformed document: college_prefs must be an object",
    "college_prefs a list": "malformed document: college_prefs must be an object",
    "preference entry a number": "malformed document: preferences of 'c1' must be a list of student ids",
    "preference entry of lists": "malformed document: preferences of 'c1' must be a list of student ids",
    "utility 1e400": "malformed document: non-finite number inf",
    "utility NaN": "malformed document: non-finite number nan",
    "duplicate feature ids": "duplicate student, college or feature ids",
    "students a string": "malformed document: students must be a list of strings",
    "colleges a string": "malformed document: colleges must be a list of strings",
    "features an object": "malformed document: features must be a list of strings",
    "student id a number": "malformed document: students must be a list of strings",
    "feature id null": "malformed document: features must be a list of strings",
}


def test_malformed_documents_keep_their_messages():
    cases = malformed_documents(EX1_JSON)
    assert [label for label, _, _ in cases] == list(MALFORMED_MESSAGES)
    for label, text, error in cases:
        with pytest.raises(error) as info:
            parse_instance(text)
        assert type(info.value) is error and str(info.value) == MALFORMED_MESSAGES[label]


# rational values that repeat as strings and mix forms of one number
_VALUES = ["1/2", "0.5", 0.5, 1, "1", 0, "0", "1/4", "0.25", 0.25, "3/4", "0.75"]
_WEIGHTS = [["1/2", "0.5"], [0.5, "1/2"], ["1", 0], [0, 1], ["1/4", "0.75"], ["0.25", "3/4"], [0.25, "3/4"]]
_PROBS = ["1/4", "0.25", 0.25]


def _mixed_document(seed: int) -> dict:
    """EX1's document with every utility drawn from ``_VALUES`` and each
    student's weights one of two four-atom discrete supports, so strings
    repeat within and across utilities and supports."""
    rng = random.Random(seed)
    doc = json.loads(json.dumps(EX1_JSON))
    supports = [
        {"type": "discrete", "support": [{"w": rng.choice(_WEIGHTS), "p": rng.choice(_PROBS)} for _ in range(4)]}
        for _ in range(2)
    ]
    for s in doc["students"]:
        for row in doc["utilities"][s].values():
            for c in row:
                row[c] = rng.choice(_VALUES)
        doc["weight_dists"][s] = json.loads(json.dumps(rng.choice(supports)))
    return doc


@pytest.mark.parametrize("seed", range(8))
def test_repeated_rational_strings_parse_to_the_same_instance(seed):
    doc = _mixed_document(seed)
    inst = parse_instance(json.dumps(doc))
    assert inst == reference_instance(doc)
    assert all(type(u) is F for per_feature in inst.utilities for row in per_feature for u in row)
    assert all(type(x) is F for dist in inst.weight_dists for w, p in dist.atoms for x in (*w, p))


def _set(doc: dict, path: tuple, value) -> dict:
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


_UTILITY = ("utilities", "s2", "f2", "c3")  # a utility parsed after most others
_PROB = ("weight_dists", "s3", "support", 2, "p")
_WEIGHT = ("weight_dists", "s1", "support", 1, "w", 0)


@pytest.mark.parametrize(
    "edits, error, message",
    [
        ([(_UTILITY, True)], ParseError, "malformed document: expected a rational, got True"),
        ([(_PROB, True)], ParseError, "malformed document: expected a rational, got True"),
        ([(_WEIGHT, True)], ParseError, "malformed document: expected a rational, got True"),
        ([(_UTILITY, ["1/2"])], ParseError, "malformed document: expected a rational, got list"),
        ([(_UTILITY, "1/0")], ParseError, "malformed document: bad rational '1/0'"),
        ([(_UTILITY, "x/2"), (_WEIGHT, "x/2")], ParseError, "malformed document: bad rational 'x/2'"),
        ([(_UTILITY, "bad"), (_PROB, "worse")], ParseError, "malformed document: bad rational 'bad'"),
        ([(_PROB, "0.5.5"), (_WEIGHT, "1/0")], ParseError, "malformed document: bad rational '1/0'"),
        ([(_UTILITY, "1e2000")], ParseError, "malformed document: the exponent of '1e2000' exceeds 1000 in magnitude"),
        ([(_UTILITY, "3/2")], ValidationError, "utility outside [0,1]: student s2 has 3/2"),
        ([(_UTILITY, "1.5")], ValidationError, "utility outside [0,1]: student s2 has 3/2"),
        ([(_PROB, "1/3")], ValidationError, "probabilities must sum to 1"),
    ],
)
def test_failing_documents_with_repeated_strings_keep_their_errors(edits, error, message):
    for seed in range(3):
        doc = _mixed_document(seed)
        for path, value in edits:
            _set(doc, path, value)
        with pytest.raises(error) as info:
            parse_instance(json.dumps(doc))
        assert type(info.value) is error and str(info.value) == message


def test_a_distribution_document_that_contains_itself_is_a_parse_error():
    support = {"type": "discrete"}
    support["support"] = [support]
    atom = {"p": 1}
    atom["w"] = [atom, 0]
    unread = {"type": "uniform_simplex"}
    unread["self"] = unread
    cases = [
        (support, "malformed document: bad discrete support for 's2'"),
        ({"type": "discrete", "support": [atom]}, "malformed document: expected a rational, got dict"),
    ]
    for dist, message in cases:
        doc = json.loads(json.dumps(EX1_JSON))
        doc["weight_dists"]["s2"] = doc["weight_dists"]["s3"] = dist
        start = time.perf_counter()
        with pytest.raises(ParseError) as info:
            instance_from_dict(doc)
        assert str(info.value) == message
        assert time.perf_counter() - start < 1.0
    # a reference the parser never reads leaves the document valid
    doc = json.loads(json.dumps(EX1_JSON))
    doc["weight_dists"]["s2"] = unread
    assert instance_from_dict(doc).weight_dists[1] == UniformSimplex(2)


def test_id_lists_must_be_lists_of_strings():
    doc = {
        "students": ["a", "b"],
        "colleges": ["c"],
        "capacities": {"c": 1},
        "college_prefs": {"c": ["a", "b"]},
        "features": ["f"],
        "utilities": {"a": {"f": {"c": "1/2"}}, "b": {"f": {"c": "1/3"}}},
        "weight_dists": {"a": {"type": "uniform_simplex"}, "b": {"type": "uniform_simplex"}},
    }
    assert parse_instance(json.dumps(doc)).students == ("a", "b")
    doc["students"] = "ab"  # not split into the ids "a" and "b"
    with pytest.raises(ParseError, match="students must be a list of strings"):
        parse_instance(json.dumps(doc))


def test_distribution_invariants():
    with pytest.raises(ValidationError):
        DiscreteWeights((((F(1, 2), F(1, 4)), F(1)),))  # support not on the simplex
    with pytest.raises(ValidationError, match="does not sum to 1"):
        DiscreteWeights((((F(1, 2), F(1, 2) + F(1, 10**10)), F(1)),))  # support must sum to exactly 1
    with pytest.raises(ValidationError, match="must sum to 1 and be positive"):
        DiscreteWeights((((F(1, 2), F(1, 2)), F(0)), ((F(1), F(0)), F(1))))
    # the first faulty atom is named, as a scan in atom order finds it
    with pytest.raises(ValidationError, match=r"negative weight: \(Fraction\(3, 2\), Fraction\(-1, 2\)\)"):
        DiscreteWeights((((1, 0), F(1, 2)), ((F(3, 2), F(-1, 2)), F(1, 4)), ((F(1, 4), F(1, 4)), F(1, 4))))
    # only exact rationals: a float or bool would make mean and mass inexact
    with pytest.raises(ValidationError, match="exact rational"):
        DiscreteWeights((((0.25, 0.75), F(1, 2)), ((F(1), F(0)), 0.5)))
    with pytest.raises(ValidationError, match="exact rational"):
        DiscreteWeights((((F(1, 4), F(3, 4)), F(1, 2)), ((F(1), F(0)), 0.5)))
    with pytest.raises(ValidationError, match="exact rational"):
        DiscreteWeights((((True, F(0)), F(1)),))
    with pytest.raises(ValidationError, match="exact rational"):
        DiscreteWeights((((F(1), F(0)), True),))
    assert DiscreteWeights((((1, 0), 1),)).mean == (F(1), F(0))
    with pytest.raises(ValidationError):
        BetaWeights(alpha=0.0, beta=2.0)
    with pytest.raises(ValidationError, match="finite"):
        BetaWeights(alpha=float("inf"), beta=2.0)
    assert UniformSimplex(3).dim == 3


@pytest.mark.parametrize(
    "alpha, error",
    [("abc", ParseError), (None, ParseError), ([1], ParseError), (True, ParseError),
     ("1e400", ValidationError), (float("nan"), ValidationError)],
)
def test_beta2_shape_parameters_are_checked(alpha, error):
    doc = json.loads(json.dumps(EX1_JSON))
    doc["weight_dists"]["s1"] = {"type": "beta2", "alpha": alpha, "beta": 2}
    with pytest.raises(error):
        parse_instance(json.dumps(doc))
    doc["weight_dists"]["s1"] = {"type": "beta2", "alpha": "2.5", "beta": 2}
    assert parse_instance(json.dumps(doc)).weight_dists[0] == BetaWeights(2.5, 2.0)


def test_scipy_special_is_imported_only_for_beta_weights():
    code = (
        "import sys, featmatch.cli\n"
        "from featmatch.model import BetaWeights\n"
        "print('scipy.special' in sys.modules)\n"
        "BetaWeights(2.0, 2.0).w1_measure(0, 1)\n"
        "print('scipy.special' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(featmatch.__file__)))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert run.stdout.split() == ["False", "True"]
    # regularized incomplete beta values as float.hex: importing on first use changes none
    goldens = [
        (2.0, 2.0, F(5, 12), 1, "0x1.3f684bda12f68p-1"),
        (0.5, 3.0, F(1, 10), F(7, 10), "0x1.be4576f5d51d4p-2"),
        (7.5, 1.25, F(1, 3), F(9, 10), "0x1.1e6615356c545p-1"),
    ]
    for alpha, beta, lo, hi, want in goldens:
        assert BetaWeights(alpha, beta).w1_measure(lo, hi).hex() == want


def test_import_loads_only_the_standard_library_and_numpy():
    # start-up cost is mostly imports: importing the package and its CLI may
    # load no third-party module but numpy (modules that site loads before the
    # first statement are not counted)
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import featmatch, featmatch.cli\n"
        "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(featmatch.__file__)))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert set(run.stdout.split()) - set(sys.stdlib_module_names) == {"featmatch", "numpy"}


@settings(max_examples=40)
@given(
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(["uniform_simplex", "discrete", ("beta2", 2.0, 5.0)]),
    features=st.integers(2, 4),
)
def test_roundtrip_random_instances(seed, kind, features):
    if kind != "uniform_simplex" and kind != "discrete":
        features = 2  # beta family is two-feature only
    inst = gen_random(3, 3, num_features=features, dist_kind=kind, seed=seed)
    assert parse_instance(serialize_instance(inst)) == inst


def test_roundtrip_canonical_families():
    for inst in (worked_example(1), worked_example(2), worked_example(3), non_transitive()):
        assert parse_instance(serialize_instance(inst)) == inst


def test_validate_matching_verdicts():
    inst = worked_example(1)
    ok = Matching.from_ids(inst, {"s1": "c3", "s2": "c1", "s3": "c2"})
    assert validate_matching(inst, ok).ok
    empty = Matching((None, None, None))
    assert validate_matching(inst, empty).ok  # vacuously feasible
    overfull = Matching((0, 0, None))
    verdict = validate_matching(inst, overfull)
    assert not verdict.ok and "over capacity" in verdict.violations[0]
    with pytest.raises(ValidationError, match="unknown student id"):
        Matching.from_ids(inst, {"s9": "c1"})
    with pytest.raises(ValidationError, match="unknown college id"):
        Matching.from_ids(inst, {"s1": "c9"})


def test_matching_reverse_map_consistency():
    inst = gen_random(4, 2, capacities=(2, 2), seed=1)
    assert sum(inst.capacities) == inst.n
    matching = Matching((0, 0, 1, None))
    assert matching.students_of(0) == frozenset({0, 1})
    assert matching.students_of(1) == frozenset({2})
    assert matching.college_of(3) is None


def test_pros_result_contract():
    exact = ProsResult(value=F(2, 11), kind="exact")
    assert exact.display() == "2/11"
    with pytest.raises(ValidationError):
        ProsResult(value=0.5, kind="exact")  # exact must be rational
    with pytest.raises(ValidationError):
        ProsResult(value=F(3, 2), kind="exact")  # out of range
    est = ProsResult(value=0.25, kind="estimate", stderr=0.01, samples=10, seed=1)
    assert "stderr" in est.display()
