"""Repository hygiene: nothing that .gitignore excludes is tracked,
every name the benchmark's tracer wraps or reads still exists, a traced
run of each benchmark workload passes the tracer's self-test, no
argument check in the library is an assert, which python -O strips,
no loop in the library rebuilds a sum term by term, one function
expands the brace relation, one parser reads every text grammar, one
method decides an envelope's defects, one table builds every binary
tree, weighted degrees are read from DendSpan's table rather than
from a walk of each tree's decorations, only linalg reads Span's
echelon engine, TruncatedQuotient.reduce is the one caller of
Span.reduce, envelope_primitives builds no Span and importing the
suites imports no json."""

import ast
import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(),
    reason="needs git and a git checkout",
)
def test_no_ignored_file_is_tracked():
    out = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == ""


def test_benchmark_hooks_resolve():
    # a refactor that deletes a traced name would otherwise break only
    # the benchmark, which tier-1 does not run
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, modname, attr in tracer.SPANS:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(owner, cls_name)).get(meth)), attr
        else:
            assert callable(getattr(owner, attr, None)), attr
    assert importlib.import_module("treealg._kernel").BACKEND
    # uncaching one of these would break only a traced run
    for name in tracer.TREE_CACHES + (tracer.DELTA_CACHE,):
        short, attr = name.split(".")
        owner = importlib.import_module("treealg." + short)
        assert callable(getattr(getattr(owner, attr), "cache_info", None)), name


def test_tracer_self_test_passes():
    # the check a traced benchmark run makes on each workload: the result
    # equals the golden one and every layer mapped to the workload shows
    # work.  A layer that goes to zero would otherwise fail only there
    spec = importlib.util.spec_from_file_location("run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    golden = str(ROOT / "perfbench" / "golden.json")
    procs = {
        workload: subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), suite, str(bound), golden, workload, "1"],
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
        )
        for workload, (suite, bound, _) in run.WORKLOADS.items()
    }
    try:
        outs = {workload: proc.communicate(timeout=120)[0] for workload, proc in procs.items()}
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()
    for workload, out in outs.items():
        assert procs[workload].returncode == 0, workload
        info = json.loads(out.decode().splitlines()[-1])
        assert info["matches_golden"], workload
        assert run.tracer_problems(workload, info) == [], workload


def test_importing_the_suites_leaves_out_json():
    # only BraceStructure.load and the CLI read or write JSON, so a
    # program that imports the suites does not pay for importing it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, treealg.suites; print('json' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_no_assert_in_src():
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted((ROOT / "src" / "treealg").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _rebuilds_itself(node) -> bool:
    """node is `x = x + ...` (or any operator, x the leftmost operand)."""
    if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.BinOp):
        return False
    left = node.value
    while isinstance(left, ast.BinOp):
        left = left.left
    return isinstance(left, ast.Name) and any(
        isinstance(t, ast.Name) and t.id == left.id for t in node.targets
    )


def test_no_loop_rebuilds_a_sum():
    # `out = out + f(t).scale(c)` in a loop copies the growing result
    # once per term; LinComb.sum builds the whole sum in one pass
    found = {
        "%s:%d" % (path.name, node.lineno)
        for path in sorted((ROOT / "src" / "treealg").glob("*.py"))
        for loop in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(loop, ast.For)
        for node in ast.walk(loop)
        if _rebuilds_itself(node)
    }
    assert sorted(found) == []


def _owners(tree, match):
    """Names of the functions (None at module level) holding a node for
    which match is true, once per such node."""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield from visit(child, getattr(child, "name", owner))
                continue
            if match(child):
                yield owner
            yield from visit(child, owner)

    return visit(tree, None)


def _references(tree, name):
    """Names of the functions that refer to `name` (None at module
    level), import aliases included."""
    return _owners(
        tree,
        lambda node: isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.alias) and node.name == name,
    )


def test_one_brace_relation_expansion():
    # the block layout of the brace relation lives in operads.brace_relation;
    # every brace (tree operad, Dend, structure constants) goes through it
    found = {
        (path.name, owner)
        for path in sorted((ROOT / "src" / "treealg").glob("*.py"))
        for owner in _references(ast.parse(path.read_text(), str(path)), "interval_partitions")
    }
    assert found == {("operads.py", "brace_relation")}


def test_one_parser():
    # every text grammar (trees, binary trees, algebra expressions) runs
    # on the one tokenizer and parser, through trees._parse_all
    found = {
        (path.name, owner)
        for path in sorted((ROOT / "src" / "treealg").glob("*.py"))
        for owner in _references(ast.parse(path.read_text(), str(path)), "_Parser")
    }
    assert found == {("trees.py", "_parse_all")}


def test_one_envelope_verdict():
    # the primitive, structure-constant and stability defects of an
    # envelope are decided in TruncatedQuotient.report; the envelope
    # verb and suites read its defect list
    found = {
        (path.name, owner)
        for path in sorted((ROOT / "src" / "treealg").glob("*.py"))
        for owner in _references(ast.parse(path.read_text(), str(path)), "envelope_primitives")
    }
    assert found == {("envelope.py", "report")}


def _builds_a_pbt(node) -> bool:
    """node is the call object.__new__(PBT)."""
    return (
        isinstance(node, ast.Call)
        and ast.unparse(node.func) == "object.__new__"
        and [ast.unparse(a) for a in node.args] == ["PBT"]
    )


def test_one_node_table():
    # every PBT node is built in the table's __missing__, so a tree is
    # one node whichever constructor asked for it
    found = [
        (path.name, owner)
        for path in sorted((ROOT / "src" / "treealg").glob("*.py"))
        for owner in _owners(ast.parse(path.read_text(), str(path)), _builds_a_pbt)
    ]
    assert found == [("trees.py", "__missing__")]


def _walks_decorations(node) -> bool:
    """node is a call x.decorations()."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "decorations"
    )


def test_decorations_walked_off_the_hot_path():
    # DendSpan.wdeg reads its table and walks a tree's decorations only
    # for a tree off it; the other walks read letters, not degrees
    found = sorted(
        (path.name, owner)
        for path in sorted((ROOT / "src" / "treealg").glob("*.py"))
        for owner in _owners(ast.parse(path.read_text(), str(path)), _walks_decorations)
    )
    assert found == [("dendriform.py", "wdeg"), ("operads.py", "_graft")]


def test_echelon_read_in_linalg_only():
    # Span's engine is linalg's business: the quotient reads its classes
    # through Span.pivot_keys, not off the engine's rows
    found = sorted(
        (path.name, owner)
        for path in sorted((ROOT / "src" / "treealg").glob("*.py"))
        if path.name != "linalg.py"
        for owner in _owners(
            ast.parse(path.read_text(), str(path)),
            lambda node: isinstance(node, ast.Attribute) and node.attr == "echelon",
        )
    )
    assert found == []


def _reads_off_a_quotient(node) -> bool:
    """node is a call x.reduce(...) with x neither q nor self."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "reduce"
        and ast.unparse(node.func.value) not in ("q", "self")
    )


def test_one_caller_of_span_reduce():
    # the quotient's normal form is read in one place, so a span traced
    # around TruncatedQuotient.reduce sees every read: reduce is a method
    # of Span and TruncatedQuotient only, q names a quotient wherever the
    # library holds one, and self.reduce is called inside the quotient
    defines, found = set(), []
    for path in sorted((ROOT / "src" / "treealg").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defines |= {
            cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for f in cls.body
            if isinstance(f, ast.FunctionDef) and f.name == "reduce"
        }
        found += [(path.name, owner) for owner in _owners(tree, _reads_off_a_quotient)]
    assert defines == {"Span", "TruncatedQuotient"}
    assert found == [("envelope.py", "reduce")]


def test_envelope_primitives_builds_no_span():
    # its primitives are in reduced echelon form over the class trees,
    # so a letter's coordinates are read off their leads
    path = ROOT / "src" / "treealg" / "envelope.py"
    found = set(
        _owners(
            ast.parse(path.read_text(), str(path)),
            lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == "Span",
        )
    )
    assert "envelope_primitives" not in found


OPTIMIZED_CHECKS = """
from treealg.bialgebra import compat_defect, primitives, reduced_coproduct
from treealg.dendriform import DendElement, pli, psi_corolla
from treealg.operads import brace_relation_defect
from treealg.trees import (
    DuplicateLabelError, pbt_basis, pbt_shapes, planar_shapes, planar_trees,
)
assert False, "this runner must run under python -O"

a = DendElement.generator("a")
calls = {
    "primitives(0, 1)": (lambda: primitives(0, 1), ValueError),
    "compat_defect side": (lambda: compat_defect(a, a, "?"), ValueError),
    "compat_defect unit": (lambda: compat_defect(DendElement.one() + a, a, "<"), ValueError),
    "psi_corolla([a])": (lambda: psi_corolla([a]), ValueError),
    "reduced_coproduct(1 + a)": (lambda: reduced_coproduct(DendElement.one() + a), ValueError),
    "pli(0, 1)": (lambda: pli(0, 1), ValueError),
    "brace_relation_defect(0, 1)": (lambda: brace_relation_defect(0, 1), ValueError),
    "planar_shapes(0)": (lambda: planar_shapes(0), ValueError),
    "planar_trees duplicate": (lambda: planar_trees(["1", "1"]), DuplicateLabelError),
    "pbt_shapes(-1)": (lambda: pbt_shapes(-1), ValueError),
    "pbt_basis(0, 'a')": (lambda: pbt_basis(0, "a"), ValueError),
}
missed = []
for name, (call, error) in calls.items():
    try:
        call()
        missed.append(name)
    except error:
        pass
    except Exception as exc:
        missed.append("%s: %r" % (name, exc))
print(missed)
"""


def test_argument_checks_survive_optimize():
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
