"""Differential test of the fused product loop, the star-form axioms
suite and the subtree-built basis against the code they replaced.

The oracle below is a verbatim copy of ``dendriform._product`` (the
product loop before ``product_sum``), of ``suites.suite_axioms`` in its
expanded form (13 products and 7 subtractions per triple) and of
``trees.pbt_basis`` (one relabelled shape per decoration word).  The
oracle's ``dprec``, ``dsucc`` and ``dstar`` are the previous one-line
wrappers, except that they read the tree products from the module at
call time, so a test that replaces a tree product in the module and in
``dendriform._PRODUCTS`` (the table ``product_sum`` reads) reaches both
suites.

Three things must hold: the basis lists are the same trees in the same
order, the suites print the same JSON, and a wrong tree product is
reported alike, with a wrong star product alone caught as star-split.
"""

import json
from itertools import product

import pytest

from treealg import dendriform
from treealg.dendriform import DEND_ONE, DendElement, _unit_prec, _unit_star, _unit_succ
from treealg.linalg import LinComb, add_into
from treealg.suites import run_suite
from treealg.trees import LEAF, PBT, pbt_basis as new_pbt_basis, pbt_shapes


def _product(tree_op, unit_rule, x: DendElement, y: DendElement) -> DendElement:
    """Bilinear extension of tree_op on pairs of basis trees; a pair with
    the unit goes to unit_rule, so the tree caches never see LEAF."""
    d = {}
    for t, a in x.terms.items():
        for s, b in y.terms.items():
            if t is LEAF or s is LEAF:
                add_into(d, a * b, unit_rule(t, s))
            else:
                add_into(d, a * b, tree_op(t, s).terms)
    out = DendElement()
    out.terms = d
    return out


def dprec(x, y):
    return _product(dendriform._tree_prec, _unit_prec, x, y)


def dsucc(x, y):
    return _product(dendriform._tree_succ, _unit_succ, x, y)


def dstar(x, y):
    return _product(dendriform._tree_star, _unit_star, x, y)


def pbt_basis(degree, alphabet):
    """All decorated PBTs of the given degree over the alphabet."""
    if degree < 1:
        raise ValueError("degree must be at least 1, got %r" % (degree,))
    alphabet = list(alphabet)
    out = []
    for shape in pbt_shapes(degree):
        for decor in product(alphabet, repeat=degree):
            mapping = {str(i + 1): decor[i] for i in range(degree)}
            out.append(shape.relabel(mapping))
    return out


def suite_axioms(bound=5):
    """Dendriform axioms, unit laws, and associativity of the sum
    product on basis trees over two generators."""
    defects = []
    alphabet = ["a", "b"]
    elements = {
        d: [(t, DendElement.from_tree(t)) for t in pbt_basis(d, alphabet)] for d in range(1, bound - 1)
    }
    checked = 0
    for d1, d2 in product(elements, repeat=2):
        if d1 + d2 >= bound:
            continue
        # x<y, x>y and x*y of each pair, shared by every z of every degree
        pairs = [
            (t1, x, t2, y, dprec(x, y), dsucc(x, y), dstar(x, y))
            for t1, x in elements[d1]
            for t2, y in elements[d2]
        ]
        for d3 in range(1, bound - d1 - d2 + 1):
            for t1, x, t2, y, xy_prec, xy_succ, xy_star in pairs:
                for t3, z in elements[d3]:
                    checked += 1
                    yz_prec, yz_succ = dprec(y, z), dsucc(y, z)
                    ax1 = dprec(xy_prec, z) - dprec(x, yz_prec) - dprec(x, yz_succ)
                    ax2 = dprec(xy_succ, z) - dsucc(x, yz_prec)
                    ax3 = dsucc(x, yz_succ) - dsucc(xy_succ, z) - dsucc(xy_prec, z)
                    assoc = dstar(xy_star, z) - dstar(x, dstar(y, z))
                    for name, val in (("eq1", ax1), ("eq2", ax2), ("eq3", ax3), ("star-assoc", assoc)):
                        if not val.is_zero():
                            defects.append({"axiom": name, "triple": [str(t1), str(t2), str(t3)]})
    units_checked = 0
    for d in range(1, bound + 1):
        for t in pbt_basis(d, alphabet):
            x = DendElement.from_tree(t)
            units_checked += 1
            good = (
                dsucc(DEND_ONE, x) == x
                and dprec(x, DEND_ONE) == x
                and dprec(DEND_ONE, x).is_zero()
                and dsucc(x, DEND_ONE).is_zero()
            )
            if not good:
                defects.append({"axiom": "unit", "element": str(t)})
    return {"triples": checked, "unit_checks": units_checked}, defects


def old_run(bound):
    result, defects = suite_axioms(bound)
    return {"suite": "axioms", "bound": bound, "result": result, "defects": defects}


A = PBT(LEAF, "a", LEAF)
B = PBT(LEAF, "b", LEAF)
TREE_CACHES = (dendriform._tree_prec, dendriform._tree_succ, dendriform._tree_star)


@pytest.mark.parametrize("alphabet", [["a"], ["a", "b"], ["a", "b", "c"]])
def test_pbt_basis_same_trees_same_order(alphabet):
    for d in range(1, 7):
        assert new_pbt_basis(d, alphabet) == pbt_basis(d, alphabet)


@pytest.mark.parametrize("bound", [3, 4, 5])
def test_axioms_suite_prints_alike(bound):
    assert json.dumps(run_suite("axioms", bound)) == json.dumps(old_run(bound))


@pytest.fixture
def fresh_tree_caches():
    """Empty tree-product caches before and after the test, so that the
    values a mutated product leaves in them reach no other test."""
    for f in TREE_CACHES:
        f.cache_clear()
    yield
    for f in TREE_CACHES:
        f.cache_clear()


def test_wrong_prec_is_reported_alike(monkeypatch, fresh_tree_caches):
    original = dendriform._tree_prec

    def wrong_prec(t, s):
        if t is A and s is B:
            return LinComb.single(PBT(LEAF, "b", A))
        return original(t, s)

    monkeypatch.setattr(dendriform, "_tree_prec", wrong_prec)
    monkeypatch.setitem(dendriform._PRODUCTS, "<", (wrong_prec, _unit_prec))
    new = run_suite("axioms", 4)
    assert new["defects"]
    assert not [d for d in new["defects"] if d["axiom"] == "star-split"]
    assert json.dumps(new) == json.dumps(old_run(4))


def test_wrong_star_alone_is_star_split(monkeypatch, fresh_tree_caches):
    original = dendriform._tree_star

    def wrong_star(t, s):
        if t is A and s is B:
            return original(t, s) + LinComb.single(PBT(LEAF, "b", A))
        return original(t, s)

    monkeypatch.setattr(dendriform, "_tree_star", wrong_star)
    monkeypatch.setitem(dendriform._PRODUCTS, "*", (wrong_star, _unit_star))
    splits = [d for d in run_suite("axioms", 4)["defects"] if d["axiom"] == "star-split"]
    assert splits == [{"axiom": "star-split", "pair": [str(A), str(B)]}]
