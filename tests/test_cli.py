import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treealg import cli
from treealg.cli import main
from treealg.suites import SUITES, SuiteError, run_suite


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
    "duplicate-basis": _brace(dim=2, basis=["a", "a"]),
    "basis-not-strings": _brace(basis=[0]),
    "empty-args": _brace(products=[_product(args=())]),
    "weights-length": _brace(weights=[1, 2]),
    "weights-below-1": _brace(weights=[0]),
    "root-out-of-range": _brace(products=[_product(root=-1)]),
    "arg-out-of-range": _brace(products=[_product(args=(5,))]),
    "value-out-of-range": _brace(products=[_product(index=1)]),
    "not-an-object": [1, 2],
    "missing-key": {"basis": ["a"], "products": []},
    "bad-coefficient": _brace(
        products=[{"root": 0, "args": [0], "value": [{"coeff": "abc", "index": 0}]}]
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
    ["verify", "--suite", "psi-morphism", "--bound", "1"],
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
