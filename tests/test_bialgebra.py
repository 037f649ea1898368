from fractions import Fraction

import pytest

from treealg import _kernel
from treealg.linalg import LinComb, Span, kernel_basis
from treealg.trees import LEAF, generator_names, parse_pbt, pbt_basis
from treealg.dendriform import (
    DEND_ONE,
    DendElement,
    dprec,
    dstar,
    dsucc,
    pbt_expr,
    upcomb,
)
from treealg.bialgebra import (
    TensorSquareElement,
    compat_defect,
    coproduct,
    primitives,
    reduced_coproduct,
)
from treealg.suites import (
    suite_bialgebra,
    suite_coprod_mont,
    suite_primitives_closed,
    _triple_coproduct_equal,
)

A = DendElement.generator("a")
B = DendElement.generator("b")


def tens(x, y):
    return TensorSquareElement.from_product(x, y)


@pytest.mark.parametrize(
    "x",
    [dprec(A, B) - DEND_ONE.scale(Fraction(1, 2)), tens(DEND_ONE, A) - tens(B, A).scale(3)],
    ids=["DendElement", "TensorSquareElement"],
)
def test_arithmetic_keeps_the_element_class(x):
    same = x.map_keys(lambda k: k)
    assert same == x
    for y in (x + x, x - x, -x, x.scale(Fraction(2, 3)), x.scale(0), 2 * x, same):
        assert type(y) is type(x)


def test_equality_is_by_class():
    assert DendElement() != LinComb()
    assert DendElement() != TensorSquareElement()
    assert LinComb() != TensorSquareElement()
    assert DEND_ONE != LinComb.single(LEAF)
    # within a class, equal terms: the unit part and Fraction coefficients count
    x = DEND_ONE.scale(Fraction(1, 2)) + A.scale(Fraction(2, 3)) - dprec(A, B)
    a, ab = parse_pbt("(* a *)"), parse_pbt("(* a (* b *))")
    assert x == DendElement({ab: -1, LEAF: Fraction(1, 2), a: Fraction(2, 3)})
    assert x != x + DEND_ONE.scale(Fraction(1, 3)) and x != x + A.scale(Fraction(1, 3))


def test_coproduct_unit():
    assert coproduct(DEND_ONE) == tens(DEND_ONE, DEND_ONE)


def test_coproduct_generator():
    assert coproduct(A) == tens(A, DEND_ONE) + tens(DEND_ONE, A)


def test_coproduct_right_product():
    prod = dsucc(A, B)
    assert coproduct(prod) == tens(prod, DEND_ONE) + tens(DEND_ONE, prod) + tens(A, B)


def test_coproduct_left_product():
    # forced by the vee recursion: the middle term of delta(a<b) is
    # b (x) a, the mirror of the a (x) b term in delta(a>b)
    prod = dprec(A, B)
    assert coproduct(prod) == tens(prod, DEND_ONE) + tens(DEND_ONE, prod) + tens(B, A)


def test_coproduct_is_star_morphism():
    # delta(x*y) = delta(x) * delta(y) pins the two middle terms above
    for x in (A, dprec(A, B), dsucc(A, A)):
        for y in (B, dstar(A, B)):
            lhs = coproduct(dstar(x, y))
            rhs = TensorSquareElement()
            for (l1, r1), c1 in coproduct(x).terms.items():
                for (l2, r2), c2 in coproduct(y).terms.items():
                    left = dstar(_leg(l1), _leg(l2))
                    right = dstar(_leg(r1), _leg(r2))
                    rhs = rhs + tens(left, right).scale(c1 * c2)
            assert lhs == rhs


def _leg(key):
    return DEND_ONE if key.is_leaf() else DendElement.from_tree(key)


def test_coproduct_and_map_legs_with_a_unit_part_and_fractions():
    x = DEND_ONE.scale(Fraction(1, 2)) + A.scale(Fraction(2, 3)) - dprec(A, B)
    assert str(coproduct(x)) == (
        "1/2*[1 (x) 1] + 2/3*[1 (x) a] + 2/3*[a (x) 1] - 1 (x) a<b - a<b (x) 1 - b (x) a"
    )
    t = tens(DEND_ONE, A).scale(Fraction(1, 2)) - tens(A, DEND_ONE).scale(3)
    assert str(t) == "1/2*[1 (x) a] - 3*[a (x) 1]"
    # each leg s goes to s*(1 + 2b); 1 goes to 1 + 2b, a to a + 2a<b + 2a>b
    image = t.map_legs(lambda s: dstar(DendElement.from_tree(s), DEND_ONE + B.scale(2)))
    assert str(image) == (
        "1/2*[1 (x) a] - 3*[a (x) 1] + 1 (x) a<b + 1 (x) a>b - 6*[a (x) b] - 6*[a<b (x) 1]"
        " - 6*[a>b (x) 1] + b (x) a - 12*[a<b (x) b] - 12*[a>b (x) b] + 2*[b (x) a<b]"
        " + 2*[b (x) a>b]"
    )


def test_coproduct_degree_compatible():
    e = dprec(dsucc(A, B), A)
    for (l, r), _ in coproduct(e).terms.items():
        assert l.degree + r.degree == 3


def test_coassociativity_small():
    for d in range(1, 5):
        for t in pbt_basis(d, ["a", "b"]):
            assert _triple_coproduct_equal(t)


def test_compat_defects_generators():
    assert compat_defect(A, B, ">").is_zero()
    assert compat_defect(A, B, "<").is_zero()
    # every coefficient of the coproduct of a tree is 1; these are not
    x, y = A.scale(2) - dprec(A, B), B + dsucc(B, A).scale(Fraction(1, 3))
    assert compat_defect(x, y, "<").is_zero() and compat_defect(x, y, ">").is_zero()


def test_compat_defect_rejects_unit_part():
    with pytest.raises(ValueError):
        compat_defect(DEND_ONE, B, "<")


def test_bialgebra_suite_bound4():
    result, defects = suite_bialgebra(4)
    assert defects == []
    assert result["compat_pairs"] > 0


def test_coprod_mont_to_five():
    result, defects = suite_coprod_mont(5)
    assert defects == []


def test_primitive_degree1():
    assert [str(p) for p in primitives(1, 2)] == ["a", "b"]


def test_primitive_degree2_one_generator():
    basis = primitives(2, 1)
    assert len(basis) == 1
    assert str(basis[0]) == "a<a - a>a"
    assert basis[0] == dprec(A, A) - dsucc(A, A)


def test_reduced_coproduct_degree2_kernel():
    # delta-bar matrix of the degree-2 slice on one generator: both
    # basis trees map to a (x) a, so the kernel is one-dimensional
    trees = sorted(pbt_basis(2, ["a"]), key=str)
    images = [reduced_coproduct(DendElement.from_tree(t)) for t in trees]
    assert len(images) == 2 and images[0] == images[1]
    (v,) = kernel_basis(trees, images)
    # the free column is the first tree; the pivot coefficient solves for it
    assert v == LinComb([(trees[0], 1), (trees[1], -1)])


def test_primitive_dims_catalan():
    assert [len(primitives(n, 1)) for n in range(1, 6)] == [1, 1, 2, 5, 14]


@pytest.mark.parametrize("gens, top", [(1, 6), (2, 4), (3, 3)])
def test_primitives_are_the_reduced_echelon_kernel(gens, top):
    for degree in range(1, top + 1):
        basis = sorted(pbt_basis(degree, generator_names(gens)), key=pbt_expr)
        images = [reduced_coproduct(DendElement.from_tree(t)) for t in basis]
        # the second elimination fixes the answer: the unique basis in
        # reduced echelon form over the tree order
        span = Span(basis)
        for v in kernel_basis(basis, images):
            span.insert(v)
        want = [DendElement(v) for v in span.basis()]
        got = primitives(degree, gens)
        assert got == want and [str(p) for p in got] == [str(p) for p in want]
        assert all(reduced_coproduct(p).is_zero() for p in got)


def test_primitives_run_one_elimination(monkeypatch):
    calls = []
    rref = _kernel.rref

    def counted(mat):
        calls.append(None)
        return rref(mat)

    monkeypatch.setattr(_kernel, "rref", counted)
    assert len(primitives(5, 1)) == 14
    assert len(calls) == 1


def test_primitives_echelon_deterministic():
    basis1 = primitives(3, 1)
    basis2 = primitives(3, 1)
    assert [str(p) for p in basis1] == [str(p) for p in basis2]
    assert len(basis1) == 2


def test_primitives_closed_suite():
    result, defects = suite_primitives_closed(4)
    assert defects == []
    assert result["dims"] == {1: 1, 2: 1, 3: 2, 4: 5, 5: 14}


def test_primitives_closed_dims_follow_the_bound():
    result, defects = suite_primitives_closed(5)
    assert defects == []
    assert result["dims"] == {1: 1, 2: 1, 3: 2, 4: 5, 5: 14, 6: 42}
    assert suite_primitives_closed(2)[0]["dims"] == {1: 1, 2: 1, 3: 2}


def test_coprod_mont_factor_order_n2():
    # the up-comb coproduct deconcatenates with suffix (x) prefix legs
    xs = [A, B]
    lhs = coproduct(upcomb(xs))
    rhs = (
        tens(upcomb(xs), DEND_ONE)
        + tens(B, A)
        + tens(DEND_ONE, upcomb(xs))
    )
    assert lhs == rhs
