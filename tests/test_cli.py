import json
import os
import random
import re
import sys
import tempfile
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from featmatch import Strategy, gen_random, goldens, parse_instance, pros_exact, run_gda, serialize_instance
from featmatch.cli import ExperimentConfig, experiment_csv, experiment_svg, main, run_experiment
from featmatch.model import Instance, ModelError
from featmatch.svg import BoxStats

from helpers import malformed_documents


@pytest.fixture
def ex1_path(tmp_path):
    assert main(["gen", "--family", "example1", "--out", str(tmp_path / "ex1.json")]) == 0
    return str(tmp_path / "ex1.json")


def test_gen_and_solve_text(ex1_path, capsys):
    capsys.readouterr()
    assert main(["solve", ex1_path, "--strategy", "locv", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "s1 -> c3" in out and "s2 -> c1" in out and "s3 -> c2" in out
    assert "pros: 2/11" in out
    assert "s1: [4/11, 1]" in out  # no-block window diagnostics
    assert "round 1" in out and "c1 rejects s3" in out


def test_solve_json(ex1_path, capsys):
    capsys.readouterr()
    assert main(["solve", ex1_path, "--strategy", "loicv", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["matching"] == {"s1": "c1", "s2": "c3", "s3": "c2"}
    assert doc["pros"]["value_exact"] == "1"
    assert doc["pros"]["kind"] == "exact"


def test_solve_csv_and_out_file(ex1_path, tmp_path, capsys):
    target = tmp_path / "matching.csv"
    assert main(["solve", ex1_path, "--strategy", "locv", "--format", "csv",
                 "--out", str(target)]) == 0
    assert target.read_text() == "student,college\ns1,c3\ns2,c1\ns3,c2\n"


def test_solve_1x1(tmp_path, capsys):
    assert main(["gen", "--students", "1", "--colleges", "1", "--seed", "5",
                 "--out", str(tmp_path / "tiny.json")]) == 0
    capsys.readouterr()
    assert main(["solve", str(tmp_path / "tiny.json"), "--strategy", "herf"]) == 0
    assert "pros: 1" in capsys.readouterr().out


def test_pros_command(ex1_path, tmp_path, capsys):
    mpath = tmp_path / "matching.json"
    mpath.write_text(json.dumps({"s1": "c3", "s2": "c1", "s3": "c2"}))
    capsys.readouterr()
    assert main(["pros", ex1_path, "--matching", str(mpath)]) == 0
    assert "pros: 2/11" in capsys.readouterr().out
    assert main(["pros", ex1_path, "--matching", str(mpath), "--mc",
                 "--samples", "20000", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pros"]["kind"] == "estimate"
    assert abs(doc["pros"]["value"] - 2 / 11) < 0.02
    assert doc["pros"]["seed"] == 42  # CLI default seed


def test_pros_rejects_infeasible(ex1_path, tmp_path, capsys):
    mpath = tmp_path / "bad.json"
    mpath.write_text(json.dumps({"s1": "c1", "s2": "c1", "s3": "c2"}))
    for extra in ([], ["--mc"]):
        capsys.readouterr()
        assert main(["pros", ex1_path, "--matching", str(mpath), *extra]) == 2
        assert "error: infeasible matching: " in capsys.readouterr().err


def test_pros_takes_the_exact_path_whatever_the_sample_count(ex1_path, tmp_path, capsys):
    # the exact path is chosen by the instance alone: its errors are reported
    # as they are, and the estimator's sample count is never read
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps({"s1": "c1", "s2": "c1", "s3": "c2"}))
    good.write_text(json.dumps({"s1": "c3", "s2": "c1", "s3": "c2"}))
    capsys.readouterr()
    assert main(["pros", ex1_path, "--matching", str(bad), "--samples", "0"]) == 2
    assert capsys.readouterr().err == "error: infeasible matching: college c1 over capacity: 2 > 1\n"
    assert main(["pros", ex1_path, "--matching", str(good), "--samples", "0"]) == 0
    assert capsys.readouterr().out == "pros: 2/11\n"


def test_optimal_command(ex1_path, capsys):
    capsys.readouterr()
    assert main(["optimal", ex1_path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best_pros"]["value_exact"] == "1"
    assert doc["matchings_examined"] == 34
    assert doc["matchings_evaluated"] == 7
    assert doc["pruned"] == 27  # evaluated + pruned = examined
    assert main(["optimal", ex1_path]) == 0
    out = capsys.readouterr().out
    assert "matchings examined: 34" in out
    assert "matchings evaluated: 7" in out and "pruned: 27" in out


def test_audit_command(ex1_path, capsys):
    capsys.readouterr()
    assert main(["audit-ic", ex1_path, "--strategy", "herf", "--level", "ic-c"]) == 0
    out = capsys.readouterr().out
    assert "violations: none" in out and "misreports tried: 21" in out


def test_audit_budget_exit_code(tmp_path, capsys):
    # 2 students x (9! + 1) reports exceed the default budget: exit 3 at once
    path = str(tmp_path / "wide.json")
    assert main(["gen", "--students", "2", "--colleges", "9", "--seed", "1", "--out", path]) == 0
    capsys.readouterr()
    assert main(["audit-ic", path, "--strategy", "heuf"]) == 3
    assert "misreport space too large" in capsys.readouterr().err


def test_exit_codes(tmp_path, ex1_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["solve", str(bad), "--strategy", "locv"]) == 2
    assert main(["solve", str(tmp_path / "missing.json"), "--strategy", "locv"]) == 2
    assert main(["optimal", ex1_path, "--budget", "3"]) == 3
    doc = json.loads((tmp_path / "ex1.json").read_text())
    for label, text, _ in malformed_documents(doc):
        bad.write_text(text)
        assert main(["solve", str(bad), "--strategy", "locv"]) == 2, label
    for alpha in ("abc", "1e400"):
        doc["weight_dists"]["s1"] = {"type": "beta2", "alpha": alpha, "beta": 2}
        bad.write_text(json.dumps(doc))
        assert main(["solve", str(bad), "--strategy", "locv"]) == 2

    capsys.readouterr()
    three = str(tmp_path / "three.json")
    assert main(["gen", "--features", "3", "--out", three]) == 0
    matching = tmp_path / "matching.json"
    matching.write_text("[1, 2]")
    csv_out, svg_out = ["--out-csv", str(tmp_path / "e.csv")], ["--out-svg", str(tmp_path / "e.svg")]
    for argv in (
        ["solve", three, "--strategy", "loicv", "--samples", "0"],
        ["solve", three, "--strategy", "herf", "--samples", "-3"],
        ["pros", ex1_path, "--matching", str(matching)],
        ["experiment", "--trials", "1", "--sizes", "a,b", *csv_out, *svg_out],
        ["experiment", "--trials", "1", "--strategies", "foo", *csv_out, *svg_out],
        ["experiment", "--trials", "1", "--sizes", "3,-2", *csv_out, *svg_out],
        ["experiment", "--trials", "0", "--sizes", "3", *csv_out, *svg_out],
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_experiment_determinism_and_schema(tmp_path, capsys):
    args = ["experiment", "--trials", "4", "--sizes", "3", "--seed", "42",
            "--out-csv", str(tmp_path / "a.csv"), "--out-svg", str(tmp_path / "a.svg")]
    assert main(args) == 0
    first_csv = (tmp_path / "a.csv").read_bytes()
    first_svg = (tmp_path / "a.svg").read_bytes()
    args2 = ["experiment", "--trials", "4", "--sizes", "3", "--seed", "42",
             "--out-csv", str(tmp_path / "b.csv"), "--out-svg", str(tmp_path / "b.svg")]
    assert main(args2) == 0
    assert (tmp_path / "b.csv").read_bytes() == first_csv
    assert (tmp_path / "b.svg").read_bytes() == first_svg

    lines = first_csv.decode().splitlines()
    assert lines[0] == "trial,seed,n,m,strategy,algorithm_pros,optimal_pros,ratio,algorithm_pros_exact,optimal_pros_exact,ratio_exact"
    assert len(lines) == 1 + 4 * 4  # 4 trials x 4 strategies
    # a ratio-1 trial exists and carries the exact fraction column
    assert any(row.split(",")[7] == "1" and row.split(",")[10] == "1" for row in lines[1:])
    assert first_svg.startswith(b"<svg")


def test_experiment_both_capacity_rules(tmp_path):
    assert main(["experiment", "--trials", "2", "--sizes", "3", "--capacities", "both",
                 "--strategies", "herf,locv", "--seed", "1",
                 "--out-csv", str(tmp_path / "r.csv"), "--out-svg", str(tmp_path / "r.svg")]) == 0
    for rule in ("ones", "spread"):
        csv_file = tmp_path / f"r-{rule}.csv"
        assert csv_file.exists()
        assert len(csv_file.read_text().splitlines()) == 1 + 2 * 2
        assert (tmp_path / f"r-{rule}.svg").exists()


def test_gen_family_params(tmp_path):
    out = tmp_path / "fam.json"
    assert main(["gen", "--family", "vanishing-ratio", "--delta", "1/10",
                 "--eps", "1/1000", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["utilities"]["s2"]["f1"]["c1"] == "253/1000"  # 1/10 + 1.5/10 + 3/1000
    assert main(["gen", "--family", "herf-tight", "--n", "4", "--delta", "1/12",
                 "--eps", "1/100000", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["students"]) == 4


def test_experiment_ratios_in_range():
    config = ExperimentConfig(trials=5, sizes=(3,), seed=7)
    rows = run_experiment(config)
    for row in rows:
        ratio = F(row["ratio_exact"])
        assert 0 <= ratio <= 1
        if row["strategy"] == "herf":
            assert ratio >= F(1, 27)
    csv_text = experiment_csv(rows)
    assert csv_text.count("\n") == len(rows) + 1
    svg = experiment_svg(rows, config)
    assert svg.count("<rect") >= len(config.strategies)


def test_paper_check_passes(capsys):
    assert main(["paper-check", "--samples", "20000"]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    # exact two-feature reference values print as fractions, never floats
    line = next(l for l in out.splitlines() if "example1/locv-pros" in l)
    assert "2/11" in line and "0.18" not in line


def test_paper_check_flags_perturbed_expectation(capsys, monkeypatch):
    monkeypatch.setitem(goldens.EXPECTED, "example3/loicv-pros", F(10, 17))
    assert main(["paper-check", "--samples", "20000"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] example3/loicv-pros" in out
    assert "got 9/17, want 10/17" in out


def test_gen_golden_ratio_params(tmp_path):
    out = tmp_path / "gr.json"
    assert main(["gen", "--family", "golden-ratio", "--k", "1", "--y", "3/10",
                 "--z", "2/5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["students"]) == 3
    assert main(["gen", "--family", "golden-ratio", "--k", "1", "--y", "1/100",
                 "--z", "2/5", "--out", str(out)]) == 2  # invalid y


def test_box_stats():
    st = BoxStats([1.0, 2.0, 3.0, 4.0, 100.0])
    assert st.median == 3.0
    assert st.outliers == [100.0]
    assert st.whisker_hi == 4.0
    st2 = BoxStats([0.5])
    assert st2.median == st2.q1 == st2.q3 == 0.5


# ---------------------------------------------------------------------------
# any single-path edit of a valid document parses or fails as an input error
# ---------------------------------------------------------------------------

FUZZ_DOCUMENTS = [
    json.loads(serialize_instance(gen_random(2, 2, dist_kind=kind, seed=1)))
    for kind in ("uniform_simplex", "discrete", ("beta2", 2.0, 5.0))
]


def _paths(node, prefix=()):
    """Every key or index path below a JSON node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


HOSTILE_NUMBERS = ["1e-5000", "0e1000000", "0e10000000"]  # a huge denominator, huge exponents

JSON_VALUES = st.one_of(
    st.sampled_from(HOSTILE_NUMBERS),
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.integers(-(10**20), 10**20),
    st.floats(),
    st.lists(st.one_of(st.none(), st.integers(-3, 3), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.one_of(st.none(), st.integers(-3, 3)), max_size=2),
)


@settings(max_examples=200)
@given(data=st.data(), which=st.integers(0, len(FUZZ_DOCUMENTS) - 1), delete=st.booleans())
def test_single_path_edits_parse_or_raise_model_error(data, which, delete):
    doc = json.loads(json.dumps(FUZZ_DOCUMENTS[which]))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES)
    text = json.dumps(doc)
    try:
        assert isinstance(parse_instance(text), Instance)
    except ModelError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "edited.json")
        with open(target, "w") as fh:
            fh.write(text)
        start = time.perf_counter()
        assert main(["solve", target, "--strategy", "heuf"]) in (0, 2, 3)
        assert time.perf_counter() - start < 5


def test_hostile_documents_exit_2_promptly(tmp_path, capsys):
    doc = json.loads(serialize_instance(gen_random(3, 3, seed=4)))
    matching = tmp_path / "matching.json"
    matching.write_text(json.dumps({"s1": "c1", "s2": "c2", "s3": "c3"}))
    texts = {"1,000 nested lists": "[" * 1000 + "]" * 1000}
    for number in HOSTILE_NUMBERS:
        doc["utilities"]["s1"]["f1"]["c1"] = number
        texts[f"utility {number}"] = json.dumps(doc)
    doc["utilities"]["s1"]["f1"]["c1"] = "1/2"
    texts["a 5,000-digit capacity"] = json.dumps(doc).replace('"c1": 1', '"c1": ' + "1" * 5000, 1)
    path = str(tmp_path / "hostile.json")
    verbs = [
        ["solve", path, "--strategy", "herf"],
        ["pros", path, "--matching", str(matching)],
        ["optimal", path],
        ["audit-ic", path, "--strategy", "heuf"],
    ]
    for label, text in texts.items():
        with open(path, "w") as fh:
            fh.write(text)
        for argv in verbs:
            capsys.readouterr()
            start = time.perf_counter()
            assert main(argv) == 2, (label, argv)
            assert time.perf_counter() - start < 2, (label, argv)
            err = capsys.readouterr().err
            assert err.startswith("error: malformed document: "), (label, argv)
            if label == "a 5,000-digit capacity":
                # the message names the digit bound, not a call a CLI user cannot make
                assert f"more than {sys.get_int_max_str_digits()} digits" in err, err
                assert "set_int_max_str_digits" not in err, err


def test_exact_values_past_the_int_to_str_limit_are_written_whole(tmp_path, capsys):
    # utilities with 491-digit denominators give a HERF ProS of more digits
    # than Python turns into a str by default
    rng = random.Random(1)
    doc = json.loads(serialize_instance(gen_random(4, 4, seed=1)))
    for per_feature in doc["utilities"].values():
        for row in per_feature.values():
            for college in row:
                q = rng.randrange(10**490, 10**491)
                row[college] = f"{rng.randrange(q)}/{q}"
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(doc))
    inst = parse_instance(path.read_text())
    want = pros_exact(inst, run_gda(inst, Strategy.HERF)[0]).value
    capsys.readouterr()
    assert main(["solve", str(path), "--strategy", "herf", "--format", "json"]) == 0
    num, den = json.loads(capsys.readouterr().out)["pros"]["value_exact"].split("/")
    assert len(den) > sys.get_int_max_str_digits()
    assert F(_int_of_digits(num), _int_of_digits(den)) == want
    assert main(["optimal", str(path)]) == 0
    assert "best pros: " in capsys.readouterr().out


def _int_of_digits(text: str) -> int:
    """A decimal digit string of any length as an int, in chunks short
    enough for int()."""
    value = 0
    for start in range(0, len(text), 1000):
        chunk = text[start : start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value
