from math import comb, factorial

import pytest

from treealg.linalg import LinComb
from treealg.trees import catalan, parse_planar, parse_rooted, planar_trees, rooted_trees
from treealg.dendriform import DendElement, psi_eval
from treealg.operads import (
    OperadElement,
    brace_relation_defect,
    compose_ape,
    compose_prelie,
    corolla,
    corolla_tree,
    ideal_closure,
    interval_partitions,
    multilinear_basis,
    phi,
    quotient_dims,
)
from treealg.suites import brace_image_closure

from test_closure import full_image_seeds, old_ideal_closure


def test_compose_ape_leaf():
    out = compose_ape(parse_planar("1(2)"), "2", parse_planar("3"))
    assert out == LinComb.single(parse_planar("1(3)"))


def test_compose_ape_three_terms():
    out = compose_ape(parse_planar("1(2)"), "1", parse_planar("3(4)"))
    expected = {"3(2,4)", "3(4,2)", "3(4(2))"}
    assert {str(t) for t in out.terms} == expected
    assert all(c == 1 for c in out.terms.values())


def test_compose_ape_66_terms():
    inner = parse_planar("4(5(6,7),8(9))")
    out = compose_ape(parse_planar("1(2,3)"), "1", inner)
    assert len(out.terms) == 66


def test_compose_term_count_law():
    # binom(2|S|-1 + k - 1, k) grafting terms on basis pairs
    cases = [("1(2,3)", "4(5)"), ("1(2,3,4)", "5(6(7))"), ("1(2(3))", "4")]
    for outer_s, inner_s in cases:
        outer = parse_planar(outer_s)
        inner = parse_planar(inner_s)
        k = len(outer.children)
        a = 2 * inner.size - 1
        out = compose_ape(outer, outer.label, inner)
        assert len(out.terms) == comb(a + k - 1, k)


def test_compose_ape_label_collision_rejected():
    with pytest.raises(ValueError):
        compose_ape(parse_planar("1(2)"), "1", parse_planar("2(3)"))


def test_compose_prelie_example():
    out = compose_prelie(parse_rooted("1(2)"), "1", parse_rooted("3(4)"))
    assert {str(t) for t in out.terms} == {"3(2,4)", "3(4(2))"}


def test_compose_prelie_leaf():
    out = compose_prelie(parse_rooted("1(2)"), "2", parse_rooted("5"))
    assert out == LinComb.single(parse_rooted("1(5)"))


def prelie_prod(s, t):
    """Pre-Lie product of rooted trees: graft t onto each vertex of s."""
    mu = parse_rooted("L(R)")
    return compose_prelie(compose_prelie(mu, "L", s), "R", t)


def prelie_prod_combo(s, t):
    out = LinComb()
    for a, ca in s.terms.items():
        for b, cb in t.terms.items():
            out = out + prelie_prod(a, b).scale(ca * cb)
    return out


def test_prelie_axiom_defect_vanishes():
    x = LinComb.single(parse_rooted("1"))
    y = LinComb.single(parse_rooted("2"))
    z = LinComb.single(parse_rooted("3"))
    lhs = prelie_prod_combo(prelie_prod_combo(x, y), z) - prelie_prod_combo(
        x, prelie_prod_combo(y, z)
    )
    rhs = prelie_prod_combo(prelie_prod_combo(x, z), y) - prelie_prod_combo(
        x, prelie_prod_combo(z, y)
    )
    assert lhs == rhs


def _unit_planar(label):
    return parse_planar(label)


def test_ape_unit_laws():
    t = parse_planar("1(2(3),4)")
    assert compose_ape(t, "4", _unit_planar("9")) == LinComb.single(parse_planar("1(2(3),9)"))
    assert compose_ape(_unit_planar("9"), "9", t) == LinComb.single(t)


def _compose_combo_ape(combo, at, other):
    out = LinComb()
    for t, c in combo.terms.items():
        if t.find(at) is None:
            raise KeyError(at)
        out = out + compose_ape(t, at, other).scale(c)
    return out


def test_ape_nested_and_parallel_associativity():
    outers = planar_trees(["1", "2"])
    mids = planar_trees(["3", "4"])
    inners = planar_trees(["5", "6"])
    for T in outers[:4]:
        for S in mids[:4]:
            for R in inners[:4]:
                # nested: compose R into S first or after grafting S into T
                for v in ("3", "4"):
                    lhs = _compose_combo_ape(compose_ape(T, "1", S), v, R)
                    rhs = compose_ape(T, "1", compose_ape(S, v, R))
                    assert lhs == rhs
                # parallel: distinct vertices of T commute
                lhs = _compose_combo_ape(compose_ape(T, "1", S), "2", R)
                rhs = _compose_combo_ape(compose_ape(T, "2", R), "1", S)
                assert lhs == rhs


def test_prelie_nested_and_parallel_associativity():
    outers = rooted_trees(["1", "2"])
    mids = rooted_trees(["3", "4"])
    inners = rooted_trees(["5", "6"])

    def compose_combo(combo, at, other):
        out = LinComb()
        for t, c in combo.terms.items():
            out = out + compose_prelie(t, at, other).scale(c)
        return out

    for T in outers:
        for S in mids:
            for R in inners:
                for v in ("3", "4"):
                    assert compose_combo(compose_prelie(T, "1", S), v, R) == compose_prelie(
                        T, "1", compose_combo(LinComb.single(S), v, R)
                    )
                assert compose_combo(compose_prelie(T, "1", S), "2", R) == compose_combo(
                    compose_prelie(T, "2", R), "1", S
                )


def test_operad_element_circ_relabels():
    f = OperadElement("planar", 2, LinComb.single(parse_planar("1(2)")))
    g = OperadElement("planar", 2, LinComb.single(parse_planar("1(2)")))
    out = f.circ(1, g)
    assert out.arity == 3
    assert {str(t) for t in out.combo.terms} == {"1(3,2)", "1(2,3)", "1(2(3))"}


def test_phi_examples():
    assert phi(parse_rooted("1(2(3))")) == LinComb.single(parse_planar("1(2(3))"))
    cherry = phi(parse_rooted("1(2,3)"))
    assert {str(t) for t in cherry.terms} == {"1(2,3)", "1(3,2)"}
    assert len(phi(parse_rooted("1(2,3,4)")).terms) == 6


def test_phi_is_operad_morphism():
    for p, q in ((1, 2), (2, 2), (2, 1), (1, 3), (3, 1)):
        outers = rooted_trees([str(i) for i in range(1, p + 1)])
        inners = rooted_trees([str(i + p) for i in range(1, q + 1)])
        for T in outers:
            for S in inners:
                for v in T.labels():
                    lhs = phi(compose_prelie(T, v, S))
                    rhs = compose_ape(phi(T), v, phi(S))
                    assert lhs == rhs


def test_brace_relation_defect_zero():
    for n in range(1, 4):
        for m in range(1, 5 - n):
            assert brace_relation_defect(n, m).is_zero()


def test_brace_relation_partition_counts():
    assert len(list(interval_partitions(["y1"], 3))) == 3
    assert len(list(interval_partitions(["y1", "y2"], 3))) == 6
    assert len(list(interval_partitions(["y1"], 5))) == 5


def test_multilinear_space_dims():
    for n in (2, 3, 4):
        basis = multilinear_basis(n)
        assert len(basis) == len(set(basis)) == catalan(n) * factorial(n)
    assert [len(multilinear_basis(n)) for n in (2, 3, 4)] == [4, 30, 336]


def _psi_corolla_image(n):
    from itertools import permutations

    labels = [str(i) for i in range(1, n + 1)]
    out = []
    for root in labels:
        rest = [x for x in labels if x != root]
        for perm in permutations(rest):
            t = corolla_tree(root, perm)
            out.append(psi_eval(t, [DendElement.generator(x) for x in labels]))
    return out


def test_ideal_closure_examples():
    gens2 = {2: _psi_corolla_image(2)}
    cl = ideal_closure(gens2, 3)
    assert cl.rank(3) == 24
    cl_b = ideal_closure({2: _psi_corolla_image(2), 3: _psi_corolla_image(3)}, 3)
    assert cl_b.basis_elements(3) == cl.basis_elements(3)
    empty = ideal_closure({}, 3)
    assert empty.dims() == {2: 0, 3: 0}
    assert quotient_dims(empty) == {2: 4, 3: 30}
    assert quotient_dims(cl) == {2: 2, 3: 6}


def test_quotient_dims_full_space():
    gens = {2: [DendElement.from_tree(t) for t in multilinear_basis(2)]}
    cl = ideal_closure(gens, 2)
    assert quotient_dims(cl) == {2: 0}


def test_closure_relabel_stability_arity3():
    from itertools import permutations
    from treealg.operads import relabel_element

    cl = brace_image_closure(3)
    letters = ["1", "2", "3"]
    for e in cl.basis_elements(3):
        for perm in permutations(letters):
            assert cl.contains(3, relabel_element(e, dict(zip(letters, perm))))


def test_left_ideal_of_full_image_is_two_sided():
    two = brace_image_closure(4)
    left = old_ideal_closure(full_image_seeds(4), 4, "left")
    for n in (2, 3, 4):
        assert left.basis_elements(n) == two.basis_elements(n)


def test_corolla_shape():
    c = corolla(3)
    assert str(c) == "1(2,3,4)"
