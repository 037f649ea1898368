from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

import pytest

from treealg.linalg import LinComb, Span
from treealg.trees import LEAF, catalan, parse_planar, parse_rooted, planar_trees, rooted_trees
from treealg.dendriform import DendElement, dprec, dsucc, psi_corolla, psi_eval, substitute
from treealg.operads import (
    _graft,
    brace_relation_defect,
    compose_ape,
    compose_prelie,
    corolla_tree,
    ideal_closure,
    interval_partitions,
    multilinear_basis,
    phi,
    relabel_element,
)


def test_compose_ape_leaf():
    out = compose_ape(parse_planar("1(2)"), "2", parse_planar("3"))
    assert out == LinComb.single(parse_planar("1(3)"))
    # bilinear: each term's coefficient is the product of its factors'
    inner = LinComb([(parse_planar("3"), 3), (parse_planar("4"), "-1/2")])
    out = compose_ape(LinComb.single(parse_planar("1(2)"), 2), "2", inner)
    assert out == LinComb([(parse_planar("1(3)"), 6), (parse_planar("1(4)"), -1)])


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
    for parse, compose in ((parse_planar, compose_ape), (parse_rooted, compose_prelie)):
        with pytest.raises(ValueError, match=r"^label collision \['3'\] between 1\(2,3\) and 3\(4\)$"):
            compose(parse("1(2,3)"), "2", parse("3(4)"))
        with pytest.raises(KeyError, match=r"^\"no vertex '9' in 1\(2\)\"$"):
            compose(parse("1(2)"), "9", parse("3"))


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
    labels = [str(i) for i in range(1, n + 1)]
    out = []
    for root in labels:
        rest = [x for x in labels if x != root]
        for perm in permutations(rest):
            t = corolla_tree(root, perm)
            out.append(psi_eval(t, [DendElement.generator(x) for x in labels]))
    return out


def ranks(spans):
    return {n: span.rank for n, span in spans.items()}


def quotient_dims(spans):
    return {n: len(span.columns) - span.rank for n, span in spans.items()}


def test_ideal_closure_examples():
    gens2 = {2: _psi_corolla_image(2)}
    cl = ideal_closure(gens2, 3)
    assert cl[3].rank == 24
    cl_b = ideal_closure({2: _psi_corolla_image(2), 3: _psi_corolla_image(3)}, 3)
    assert cl_b[3].basis() == cl[3].basis()
    empty = ideal_closure({}, 3)
    assert ranks(empty) == {2: 0, 3: 0}
    assert quotient_dims(empty) == {2: 4, 3: 30}
    assert quotient_dims(cl) == {2: 2, 3: 6}
    # one arity-3 row not symmetric in its letters: its relabellings span
    # 3 dimensions, and closing them under every multilinear monomial on
    # both sides gives 92 in arity 4
    g1, g2, g3 = (DendElement.generator(str(i)) for i in range(1, 4))
    row = dprec(dsucc(g2, g1), g3) - dsucc(g3, dprec(g1, g2))
    assert ranks(ideal_closure({3: [row]}, 4)) == {2: 0, 3: 3, 4: 92}
    # a seed on which every side counts: without F<x and x>F the
    # arity-3 rank is 18
    assert ranks(ideal_closure({2: [dprec(g2, g1) - dprec(g1, g2)]}, 3)) == {2: 1, 3: 20}


def test_quotient_dims_full_space():
    gens = {2: [DendElement.from_tree(t) for t in multilinear_basis(2)]}
    cl = ideal_closure(gens, 2)
    assert quotient_dims(cl) == {2: 0}


def test_closure_relabel_stability_arity3():
    cl = ideal_closure({n: _psi_corolla_image(n) for n in (2, 3)}, 3)
    letters = ["1", "2", "3"]
    for row in cl[3].basis():
        e = DendElement(row)
        for perm in permutations(letters):
            assert cl[3].contains(relabel_element(e, dict(zip(letters, perm))))


def left_ideal(seeds, max_arity):
    """Per arity, the span of e o_@ s for every seed s, placed on every
    set of letters, and every multilinear monomial e on the other
    letters and @.  For seeds closed under relabelling this is the left
    ideal they generate, since e o (e' o s) = (e o e') o s."""
    spans = {n: Span(multilinear_basis(n)) for n in range(2, max_arity + 1)}
    for k, gens in seeds.items():
        own = [str(i) for i in range(1, k + 1)]
        for n in range(k, max_arity + 1):
            letters = [str(i) for i in range(1, n + 1)]
            for inner in combinations(letters, k):
                rest = [a for a in letters if a not in inner] + ["@"]
                names = {str(i + 1): a for i, a in enumerate(rest)}
                monomials = [
                    DendElement.from_tree(t.relabel(names)) for t in multilinear_basis(len(rest))
                ]
                for g in gens:
                    s = relabel_element(g, dict(zip(own, inner)))
                    for e in monomials:
                        spans[n].insert(_graft(e, "@", s))
    return spans


def test_left_ideal_of_full_image_is_two_sided():
    two = ideal_closure({n: _psi_corolla_image(n) for n in (2, 3, 4)}, 4)
    # the psi images of every labeled planar tree, closed under relabelling
    full = {}
    for n in (2, 3, 4):
        labels = [str(i) for i in range(1, n + 1)]
        args = [DendElement.generator(a) for a in labels]
        full[n] = [psi_eval(t, args) for t in planar_trees(labels)]
    left = left_ideal(full, 4)
    for n in (2, 3, 4):
        assert left[n].basis() == two[n].basis()


def test_corolla_shape():
    c = corolla_tree("1", ["2", "3", "4"])
    assert str(c) == "1(2,3,4)"


def old_graft(outer: DendElement, slot, inner: DendElement) -> DendElement:
    """_graft as it was before it evaluated only the slot's subtree: a
    verbatim copy, the oracle of the test below."""
    assign = {
        name: inner if name == slot else DendElement.generator(name)
        for name in next(iter(outer.terms), LEAF).decorations()
    }
    return substitute(outer, assign)


def test_graft_matches_old():
    # every multilinear basis tree of arity <= 4 at each of its letters,
    # with each of the four products of two fresh letters and with a
    # multi-term inner, and one multi-term outer
    x, y, z = (DendElement.generator(a) for a in "xyz")
    inners = [dprec(x, y), dprec(y, x), dsucc(x, y), dsucc(y, x)]
    inners.append(psi_corolla([x, y, z]) + dprec(x, dsucc(y, z)).scale(Fraction(1, 3)))
    for n in range(1, 5):
        for t in multilinear_basis(n):
            outer = DendElement.from_tree(t)
            for slot in t.decorations():
                for inner in inners:
                    assert _graft(outer, slot, inner) == old_graft(outer, slot, inner), (t, slot)
    outer = DendElement((t, Fraction(i + 1, 2) * (-1) ** i) for i, t in enumerate(multilinear_basis(3)))
    for slot in "123":
        for inner in inners:
            assert _graft(outer, slot, inner) == old_graft(outer, slot, inner)
