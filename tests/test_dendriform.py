import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from treealg.operads import ClosureResult
from treealg.trees import parse_planar, pbt_basis
from treealg.dendriform import (
    DEND_ONE,
    DendElement,
    ExprError,
    UnitProductError,
    downcomb,
    dprec,
    dstar,
    dsucc,
    parse_expr,
    pbt_expr,
    pli,
    psi_corolla,
    psi_eval,
    s_closure,
    upcomb,
)

A = DendElement.generator("a")
B = DendElement.generator("b")
C = DendElement.generator("c")


def test_product_tree_forms():
    assert str(next(iter(dprec(A, A).body.terms))) == "(* a (* a *))"
    assert str(next(iter(dsucc(A, A).body.terms))) == "((* a *) a *)"


def test_unit_laws():
    assert dsucc(DEND_ONE, A) == A
    assert dprec(A, DEND_ONE) == A
    assert dprec(DEND_ONE, A).is_zero()
    assert dsucc(A, DEND_ONE).is_zero()
    assert dstar(DEND_ONE, DEND_ONE) == DEND_ONE


def test_unit_times_unit_undefined():
    with pytest.raises(UnitProductError):
        dprec(DEND_ONE, DEND_ONE)
    with pytest.raises(UnitProductError):
        dsucc(DEND_ONE, DEND_ONE)
    half = DendElement(Fraction(1, 2))
    with pytest.raises(UnitProductError):
        dprec(half + A, DEND_ONE + B)


def test_axiom_instance():
    assert (dprec(dprec(A, B), C) - dprec(A, dprec(B, C)) - dprec(A, dsucc(B, C))).is_zero()


def test_axioms_one_generator_to_degree_six():
    basis = {d: pbt_basis(d, ["a"]) for d in range(1, 5)}
    for d1, d2, d3 in product(basis, repeat=3):
        if d1 + d2 + d3 > 6:
            continue
        for t1 in basis[d1]:
            x = DendElement.from_tree(t1)
            for t2 in basis[d2]:
                y = DendElement.from_tree(t2)
                for t3 in basis[d3]:
                    z = DendElement.from_tree(t3)
                    assert (
                        dprec(dprec(x, y), z)
                        - dprec(x, dprec(y, z))
                        - dprec(x, dsucc(y, z))
                    ).is_zero()
                    assert (dprec(dsucc(x, y), z) - dsucc(x, dprec(y, z))).is_zero()
                    assert (
                        dsucc(x, dsucc(y, z))
                        - dsucc(dsucc(x, y), z)
                        - dsucc(dprec(x, y), z)
                    ).is_zero()
                    assert (dstar(dstar(x, y), z) - dstar(x, dstar(y, z))).is_zero()


def test_degree_additivity():
    x = dprec(A, B)
    y = dsucc(dstar(A, B), C)
    assert x.top_degree() == 2 and y.top_degree() == 3
    assert dprec(x, y).top_degree() == 5


def test_combs():
    assert upcomb([A]) == A
    assert upcomb([A, B]) == dprec(A, B)
    assert downcomb([A, B]) == dsucc(A, B)
    assert upcomb([]) == DEND_ONE
    assert downcomb([]) == DEND_ONE
    assert upcomb([A, B, C]) == dprec(A, dprec(B, C))
    assert downcomb([A, B, C]) == dsucc(dsucc(A, B), C)


def test_psi_corolla_arity2():
    assert psi_corolla([A, B]) == dprec(A, B) - dsucc(B, A)


def test_psi_corolla_arity3():
    z, x, y = C, A, B
    expected = dprec(z, dsucc(x, y)) - dprec(dsucc(x, z), y) + dsucc(dprec(x, y), z)
    assert psi_corolla([z, x, y]) == expected


def test_psi_path_decomposes_into_corollas():
    out = psi_eval(parse_planar("1(2(3))"), [C, A, B])
    assert out == psi_corolla([C, psi_corolla([A, B])])


def test_psi_sign_oracle():
    target = dprec(A, B) - dsucc(B, A)
    assert psi_corolla([A, B], sign_offset=1) == target
    assert psi_corolla([A, B], sign_offset=0) == target.scale(-1)


def test_s_closure_examples():
    seed = dprec(A, A) - dsucc(A, A)
    span2 = s_closure([seed], 2)
    assert span2.degree_dims() == {1: 0, 2: 1}
    span3 = s_closure([seed], 3)
    assert span3.degree_dims() == {1: 0, 2: 1, 3: 4}
    empty = s_closure([], 3, alphabet=["a"])
    assert empty.rank == 0


def test_s_closure_rejects_unit_seed():
    with pytest.raises(ValueError):
        s_closure([DEND_ONE + A], 2, alphabet=["a"])
    with pytest.raises(ValueError):
        s_closure([A], 2).contains(DEND_ONE + A)
    with pytest.raises(ValueError):
        ClosureResult(2).contains(2, DEND_ONE + DendElement.generator("1"))


UNIT_SEED_RUNNER = """
from treealg.dendriform import DEND_ONE, DendElement, s_closure
from treealg.operads import ClosureResult
assert False, "this runner must run under python -O"
a = DendElement.generator("a")
x = DendElement.generator("1")
for call in (lambda: s_closure([DEND_ONE + a], 2, alphabet=["a"]),
             lambda: s_closure([a], 2).contains(DEND_ONE + a),
             lambda: ClosureResult(2).contains(2, DEND_ONE + x)):
    try:
        call()
    except ValueError:
        continue
    raise SystemExit("no ValueError")
"""


def test_s_closure_rejects_unit_seed_under_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", UNIT_SEED_RUNNER], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr


BAD_WEIGHT_RUNNER = """
from treealg.dendriform import DendElement, s_closure
assert False, "this runner must run under python -O"
a = DendElement.generator("a")
for weights in ({"a": 0}, {"a": -1}, {"a": 1.5}, {"b": 1}):
    try:
        s_closure([a], 2, alphabet=["a"], weights=weights)
    except ValueError as exc:
        assert "'a'" in str(exc), exc
        continue
    raise SystemExit("no ValueError for %r" % weights)
"""


def test_s_closure_rejects_bad_weight_under_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", BAD_WEIGHT_RUNNER], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr


def test_pli_counts():
    from math import comb

    assert len(pli(1, 1)) == 2
    assert len(pli(2, 1)) == 3
    assert len(pli(2, 2)) == 6
    for p, q in ((1, 3), (3, 1), (2, 3)):
        assert len(pli(p, q)) == comb(p + q, p)


def test_pli_chain_conditions():
    for sigma in pli(2, 2):
        assert sigma[1] < sigma[0]
        assert sigma[2] < sigma[3]


def test_pbt_expr_roundtrip():
    for d in range(1, 5):
        for t in pbt_basis(d, ["a", "b"]):
            assert parse_expr(pbt_expr(t)) == DendElement.from_tree(t)


def test_parse_expr_grammar():
    assert parse_expr("1") == DEND_ONE
    assert parse_expr("a<b") == dprec(A, B)
    assert parse_expr("a>b") == dsucc(A, B)
    assert parse_expr("a*b") == dstar(A, B)
    assert parse_expr("a>b<c") == dsucc(A, dprec(B, C))
    assert parse_expr("a>b<c") == dprec(dsucc(A, B), C)
    assert parse_expr("(a<b)<a") == dprec(dprec(A, B), A)
    assert parse_expr("a<b<c") == dprec(dprec(A, B), C)
    assert parse_expr("{a|b}") == psi_corolla([A, B])
    assert parse_expr("{a|b,c}") == psi_corolla([A, B, C])
    assert parse_expr("{a|{b|c}}") == psi_corolla([A, psi_corolla([B, C])])


def test_parse_expr_rejects_mixed_chains():
    for bad in ("a<b>c", "a*b<c", "a>b>c<d", "a<"):
        with pytest.raises(ExprError):
            parse_expr(bad)


def test_element_str_examples():
    assert str(psi_corolla([A, A])) == "a<a - a>a"
    assert str(DEND_ONE) == "1"
    assert str(DendElement()) == "0"
    assert str(A.scale(Fraction(2, 3))) == "2/3*a"
