import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from treealg import cli, envelope
from treealg.cli import main
from treealg.dendriform import parse_expr
from treealg.suites import SUITES, SuiteError, run_suite
from treealg.trees import generator_names


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue()


def test_compose_example():
    code, out, _ = run_cli(
        ["compose", "--species", "ape", "--outer", "1(2)", "--inner", "3(4)", "--at", "1"]
    )
    assert code == 0
    assert "sum: 3(2,4) + 3(4(2)) + 3(4,2)" in out
    assert "terms: 3" in out


def test_compose_auto_relabel():
    code, out, _ = run_cli(
        ["compose", "--outer", "1(2)", "--inner", "2(3)", "--at", "1"]
    )
    assert code == 0
    assert "relabeled" in out


def test_compose_prelie():
    code, out, _ = run_cli(
        ["compose", "--species", "prelie", "--outer", "1(2)", "--inner", "3(4)", "--at", "1"]
    )
    assert code == 0
    assert "terms: 2" in out


def test_primitives_pinned_output():
    code, out, _ = run_cli(["primitives", "--gens", "1", "--degree", "2"])
    assert code == 0
    assert '["a<a - a>a"]' in out


def test_primitives_name_thirty_generators():
    code, out, _ = run_cli(["--output", "json", "primitives", "--gens", "30", "--degree", "1"])
    basis = json.loads(out)["result"]["basis"]
    assert code == 0 and sorted(basis) == sorted(generator_names(30))
    assert all(str(parse_expr(name)) == name for name in basis)


def test_eval_and_coproduct():
    code, out, _ = run_cli(["eval", "--expr", "{a|b}"])
    assert code == 0 and "value: a<b - b>a" in out
    code, out, _ = run_cli(["coproduct", "--expr", "a>b"])
    assert code == 0 and "a (x) b" in out


def test_verify_suite_exit_codes():
    code, out, _ = run_cli(["verify", "--suite", "brace-relations", "--bound", "3"])
    assert code == 0
    assert "0 defects" in out


def test_parse_error_exit_2():
    code, _, err = run_cli(["eval", "--expr", "a<b>c"])
    assert code == 2 and "parentheses" in err
    code, _, err = run_cli(["compose", "--outer", "1((", "--inner", "2", "--at", "1"])
    assert code == 2


def test_unknown_flag_exit_2():
    code, _, _ = run_cli(["compose", "--wat", "1"])
    assert code == 2


def test_json_output_schema_and_determinism():
    argv = ["--output", "json", "dims", "--gens", "1", "--upto", "3"]
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert set(doc) == {"command", "result", "defects"}
    assert doc["command"] == "dims"


def test_output_flag_after_subcommand():
    code, out, _ = run_cli(["eval", "--expr", "1", "--output", "json"])
    assert code == 0
    assert json.loads(out)["result"]["value"] == "1"
    # given on both sides of the verb, the later value wins
    code, out, _ = run_cli(["--output", "json", "eval", "--expr", "1", "--output", "text"])
    assert code == 0
    assert out == "value: 1\n0 defects\n"


def test_envelope_command(tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(
        json.dumps({"dim": 1, "basis": ["a"], "products": []})
    )
    code, out, _ = run_cli(
        ["--output", "json", "envelope", "--brace", str(path), "--bound", "3"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["dims"] == [1, 1, 1, 1]
    assert doc["result"]["stable"] is True
    assert any("arity-2" in note for note in doc["result"]["notes"])


def test_envelope_letter_heavier_than_the_bound(tmp_path):
    # b lies outside the truncation at bound 2; the report covers a only
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({"dim": 2, "basis": ["a", "b"], "products": [], "weights": [1, 5]}))
    code, out, _ = run_cli(["--output", "json", "envelope", "--brace", str(path), "--bound", "2"])
    result = json.loads(out)["result"]
    assert code == 0
    assert (result["dims"], result["primitive_basis"]) == ([1, 1, 1], ["a"])


def test_envelope_value_heavier_than_its_tuple(tmp_path):
    # {a|a} = b with b of weight 5: the weights are no filtration, so the
    # brace is invalid, whatever the bound
    path = tmp_path / "heavy-value.json"
    path.write_text(
        json.dumps({"dim": 2, "basis": ["a", "b"], "weights": [1, 5], "products": [_product(index=1)]})
    )
    for bound in ("2", "5"):
        argv = ["--output", "json", "envelope", "--brace", str(path), "--bound", bound, "--slack", "0"]
        code, out, err = run_cli(argv)
        doc = json.loads(out)
        assert (code, err, doc["result"]) == (1, "", {"valid": False})
        assert doc["defects"] == [
            {"case": "value heavier than its tuple", "root": 0, "args": [0], "weight": 2, "value": "b"}
        ]


def test_envelope_reports_the_primitive_and_constant_defects(tmp_path, monkeypatch):
    # an ideal that misses its first relation, {a|a} = 0: a<a - a>a stays
    # a nonzero primitive class and the brace of a with a is not 0
    path = tmp_path / "trivial2.json"
    path.write_text(json.dumps({"dim": 2, "basis": ["a", "b"], "products": []}))
    relation_generators = envelope.relation_generators
    monkeypatch.setattr(envelope, "relation_generators", lambda b, bound: relation_generators(b, bound)[1:])
    argv = ["--output", "json", "envelope", "--brace", str(path), "--bound", "3", "--slack", "0"]
    code, out, err = run_cli(argv)
    doc = json.loads(out)
    assert (code, err, doc["result"]["dims"]) == (1, "", [1, 2, 5, 13])
    assert doc["defects"][0] == {"case": "primitives", "count": 4, "letters": 2}
    assert {"case": "structure constants", "root": 0, "args": [0]} in doc["defects"]


def test_envelope_invalid_brace(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "dim": 1,
                "basis": ["b"],
                "products": [
                    {"root": 0, "args": [0], "value": [{"coeff": "1", "index": 0}]},
                    {"root": 0, "args": [0, 0], "value": [{"coeff": "1", "index": 0}]},
                ],
            }
        )
    )
    code, out, _ = run_cli(["envelope", "--brace", str(path), "--bound", "3"])
    assert code == 1
    assert "defect" in out


def _brace(**changes):
    doc = {"dim": 1, "basis": ["a"], "products": []}
    doc.update(changes)
    return doc


def _product(root=0, args=(0,), index=0):
    return {"root": root, "args": list(args), "value": [{"coeff": "1", "index": index}]}


BAD_BRACES = {
    "dim-mismatch": _brace(dim=2),
    "dim-bool": _brace(dim=True),
    "dim-float": _brace(dim=1.0),
    "duplicate-basis": _brace(dim=2, basis=["a", "a"]),
    "basis-not-strings": _brace(basis=[0]),
    "basis-a-string": _brace(dim=2, basis="ab"),
    "basis-name-a-product": _brace(basis=["a<b"]),
    "basis-name-the-unit": _brace(basis=["1"]),
    "basis-name-empty": _brace(basis=[""]),
    "weights-an-object": _brace(weights={}),
    "weights-zero": _brace(weights=0),
    "weights-empty-string": _brace(weights=""),
    "empty-args": _brace(products=[_product(args=())]),
    "weights-length": _brace(weights=[1, 2]),
    "weights-below-1": _brace(weights=[0]),
    "weight-bound-bool": _brace(weight_bound=True),
    "weight-bound-float": _brace(weight_bound=2.0),
    "weight-bound-string": _brace(weight_bound="2"),
    "weight-bound-zero": _brace(weight_bound=0),
    # a truncation at weight 1 cannot answer for the envelope at bound 2
    "weight-bound-below-the-bound": _brace(weight_bound=1),
    "root-out-of-range": _brace(products=[_product(root=-1)]),
    "arg-out-of-range": _brace(products=[_product(args=(5,))]),
    "value-out-of-range": _brace(products=[_product(index=1)]),
    "not-an-object": [1, 2],
    "missing-key": {"basis": ["a"], "products": []},
    "bad-coefficient": _brace(
        products=[{"root": 0, "args": [0], "value": [{"coeff": "abc", "index": 0}]}]
    ),
    "coeff-float": _brace(products=[{"root": 0, "args": [0], "value": [{"coeff": 0.1, "index": 0}]}]),
    "coeff-bool": _brace(products=[{"root": 0, "args": [0], "value": [{"coeff": True, "index": 0}]}]),
    # {a|a} = b, then {a|a} = 0
    "duplicate-product": _brace(
        dim=2,
        basis=["a", "b"],
        products=[_product(index=1), {"root": 0, "args": [0], "value": []}],
    ),
}

BAD_ARGS = [
    ["dims", "--gens", "-1", "--upto", "3"],
    ["dims", "--gens", "1", "--upto", "0"],
    ["primitives", "--gens", "1", "--degree", "-2"],
    ["primitives", "--gens", "0", "--degree", "2"],
    ["verify", "--suite", "axioms", "--bound", "0"],
    ["envelope", "--brace", "unused.json", "--bound", "0"],
    ["envelope", "--brace", "unused.json", "--slack", "-1"],
    ["envelope", "--brace", "/nonexistent/brace.json"],
    ["eval", "--expr", "1<1"],
    # one grouping of each chain forms 1>1 or 1<1
    ["eval", "--expr", "1>1<a"],
    ["eval", "--expr", "a>1<1"],
    ["verify", "--suite", "psi-morphism", "--bound", "1"],
    # nested deeper than the interpreter's recursion limit
    ["eval", "--expr", "(" * 3000 + "a" + ")" * 3000],
    ["compose", "--outer", "1(2)", "--inner", "1" + "(x" * 1500 + ")" * 1500, "--at", "1"],
]


def _bad_inputs(tmp_path):
    cases = [list(argv) for argv in BAD_ARGS]
    for name, doc in BAD_BRACES.items():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(doc))
        cases.append(["envelope", "--brace", str(path), "--bound", "2"])
    path = tmp_path / "not-json.json"
    path.write_text('{"dim": 1,')
    cases.append(["envelope", "--brace", str(path), "--bound", "2"])
    path = tmp_path / "too-deep.json"
    path.write_text('{"dim": 1, "x": ' + "[" * 100000 + "]" * 100000 + "}")
    cases.append(["envelope", "--brace", str(path), "--bound", "2"])
    return cases


def _assert_usage_error(argv, code, err):
    lines = [line for line in err.splitlines() if "error:" in line]
    assert code == 2, (argv, code, err)
    assert len(lines) == 1 and "Traceback" not in err, (argv, err)


def test_bad_inputs_exit_2(tmp_path):
    for argv in _bad_inputs(tmp_path):
        code, _, err = run_cli(argv)
        _assert_usage_error(argv, code, err)


def _env_with_src():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


OPTIMIZED_RUNNER = """
import io, json, sys
from treealg.cli import main
assert False, "this runner must run under python -O"
results = []
for argv in json.loads(sys.argv[1]):
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    code = main(argv)
    results.append([code, sys.stderr.getvalue()])
sys.stdout = sys.__stdout__
print(json.dumps(results))
"""


def test_bad_inputs_exit_2_under_optimize(tmp_path):
    cases = _bad_inputs(tmp_path)
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RUNNER, json.dumps(cases)],
        capture_output=True,
        text=True,
        env=_env_with_src(),
        check=True,
    )
    for argv, (code, err) in zip(cases, json.loads(out.stdout)):
        _assert_usage_error(argv, code, err)


def test_unexpected_exception_exit_3(monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_eval", boom)
    code, out, err = run_cli(["eval", "--expr", "a"])
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_internal_key_error_exit_3(monkeypatch):
    def bug(args):
        return {}["oops"]

    monkeypatch.setattr(cli, "cmd_eval", bug)
    code, out, err = run_cli(["eval", "--expr", "a"])
    assert code == 3 and out == ""
    assert err == "internal error: KeyError: 'oops'\n"


# how many instances of its statement each suite's result says it checked
CHECKED = {
    "axioms": lambda r: r["triples"],
    "brace-relations": lambda r: r["cases"],
    "psi-morphism": lambda r: r["compositions"],
    "phi-morphism": lambda r: r["compositions"],
    "zin-quotient": lambda r: len(r["quotient_dims"]),
    "shuffle-lemmas": lambda r: r["membership_checks"],
    "bialgebra": lambda r: r["compat_pairs"],
    "coprod-mont": lambda r: r["max_n"],
    "primitives-closed": lambda r: r["brace_checks"],
    "envelope-trivial": lambda r: len(r["dims_dim1"]) - 1,
    "envelope-free": lambda r: len(r["dims"]) - 1,
    "cmm": lambda r: len(r["dims_envelope"]) - 1,
}


def test_every_suite_checks_something_at_its_smallest_bound():
    assert set(CHECKED) == set(SUITES)
    for name, (func, _, smallest) in SUITES.items():
        argv = ["--output", "json", "verify", "--suite", name, "--bound", str(smallest)]
        code, out, err = run_cli(argv)
        assert code == 0, (name, err)
        assert CHECKED[name](json.loads(out)["result"]) > 0, name
        if smallest > 1:
            # one below, the suite would check nothing (bound 0 is no bound)
            assert CHECKED[name](func(smallest - 1)[0]) == 0, name


def test_suites_leave_no_cyclic_garbage():
    # run_suite pauses the collector on the premise that the suites make
    # no reference cycles, so that reference counting frees all they drop
    cases = [(name, b) for name, (_, _, smallest) in SUITES.items() for b in (smallest, smallest + 1)]
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for name, bound in cases + [("axioms", 5)]:
            run_suite(name, bound)
            assert gc.collect() == 0, (name, bound)
    finally:
        if collecting:
            gc.enable()


def test_run_suite_restores_the_collector(monkeypatch):
    seen = []

    def suite(bound):
        seen.append(gc.isenabled())
        if bound == 2:
            raise RuntimeError("suite failed")
        return {}, []

    monkeypatch.setitem(SUITES, "probe", (suite, 1, 1))
    collecting = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert run_suite("probe")["defects"] == []
            assert gc.isenabled() is enabled
            with pytest.raises(RuntimeError):
                run_suite("probe", 2)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if collecting else gc.disable)()
    assert seen == [False] * 4


def test_suite_below_its_smallest_bound_exit_2():
    for name, (_, _, smallest) in SUITES.items():
        argv = ["verify", "--suite", name, "--bound", str(smallest - 1)]
        code, _, err = run_cli(argv)
        _assert_usage_error(argv, code, err)
        with pytest.raises(SuiteError):
            run_suite(name, smallest - 1)


def test_cmm_under_optimize():
    argv = ["--output", "json", "verify", "--suite", "cmm", "--bound", "3"]
    out = subprocess.run(
        [sys.executable, "-O", "-m", "treealg.cli"] + argv,
        capture_output=True,
        text=True,
        env=_env_with_src(),
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)["result"]
    assert result["dims_envelope"] == [1, 1, 2, 5] and result["intertwined"]


# Fuzzing the three parsers in-process: any input ends in a result or
# in one typed input error, never in exit 1 without a defect, never in
# an internal error or a traceback.

FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _assert_no_crash(argv, code, out, err):
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        _assert_usage_error(argv, code, err)
    else:
        assert code == 0 and err == "", (argv, code, err)


def _corrupted(valid, noise):
    """Strings from the grammar, and the same with a random insertion."""
    spliced = st.tuples(valid, st.integers(0, 30), noise).map(
        lambda t: t[0][: t[1]] + t[2] + t[0][t[1] :]
    )
    return valid | spliced | noise


EXPR = st.recursive(
    st.sampled_from(["a", "b", "1"]),
    lambda e: st.tuples(e, st.sampled_from("<>*"), e).map("(%s%s%s)".__mod__)
    | st.lists(e, min_size=2, max_size=3).map(lambda xs: "{%s|%s}" % (xs[0], ",".join(xs[1:]))),
    max_leaves=5,
)


@FUZZ
@given(
    st.sampled_from(["eval", "coproduct"]),
    _corrupted(EXPR, st.text(alphabet="ab1<>*(){}|, ", max_size=4) | st.text(max_size=4)),
)
def test_fuzz_expression_parser(verb, text):
    argv = [verb, "--expr", text]
    _assert_no_crash(argv, *run_cli(argv))


def _numbered(shape, first):
    """Replace each '#' of a tree shape by the next label from first on."""
    parts = shape.split("#")
    return "".join(p + str(first + i) for i, p in enumerate(parts[:-1])) + parts[-1]


SHAPE = st.recursive(
    st.just("#"),
    lambda c: st.lists(c, min_size=1, max_size=3).map(lambda xs: "#(%s)" % ",".join(xs)),
    max_leaves=4,
)
TREE_NOISE = st.text(alphabet="12x_(), ", max_size=3) | st.text(max_size=3)


@FUZZ
@given(
    st.sampled_from(["ape", "prelie"]),
    _corrupted(SHAPE.map(lambda s: _numbered(s, 1)), TREE_NOISE),
    _corrupted(st.tuples(SHAPE, st.integers(1, 5)).map(lambda t: _numbered(*t)), TREE_NOISE),
    st.sampled_from(["1", "2", "3", "x", "("]),
)
def test_fuzz_tree_parser(species, outer, inner, at):
    argv = ["compose", "--species", species, "--outer", outer, "--inner", inner, "--at", at]
    _assert_no_crash(argv, *run_cli(argv))


JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.floats()
    | st.sampled_from(["1", "-1/2", "0", "1/0", "abc", "a", "b"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def brace_docs(draw):
    """A well-formed brace document, then maybe one value replaced by noise."""
    dim = draw(st.integers(1, 3))
    index = st.integers(0, dim - 1)
    value = st.fixed_dictionaries({"coeff": st.sampled_from(["1", "-1", "1/2"]), "index": index})
    product = st.fixed_dictionaries(
        {
            "root": index,
            "args": st.lists(index, min_size=1, max_size=2),
            "value": st.lists(value, max_size=2),
        }
    )
    doc = {"dim": dim, "basis": ["a", "b", "c"][:dim], "products": draw(st.lists(product, max_size=3))}
    if draw(st.booleans()):
        doc["weights"] = draw(st.lists(st.integers(1, 2), min_size=dim, max_size=dim))
    if draw(st.booleans()):
        doc["weight_bound"] = draw(st.integers(1, 3))
    places = [doc] + doc["products"] + [v for p in doc["products"] for v in p["value"]]
    if draw(st.booleans()):
        target = draw(st.sampled_from(places))
        target[draw(st.sampled_from(sorted(target)))] = draw(JSON)
    return doc


@FUZZ
@given(st.one_of(brace_docs().map(json.dumps), JSON.map(json.dumps), st.text(max_size=12)))
def test_fuzz_brace_json_parser(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "brace.json")
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as fh:
            fh.write(text)
        argv = ["--output", "json", "envelope", "--brace", path, "--bound", "2", "--slack", "0"]
        code, out, err = run_cli(argv)
    if code == 1:
        # a structure that parsed but fails the brace relations
        assert err == "" and json.loads(out)["defects"], (text, out)
    else:
        _assert_no_crash(argv, code, out, err)
