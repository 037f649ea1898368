import pytest

from treealg.linalg import LinComb, kernel_basis
from treealg.trees import pbt_basis
from treealg.dendriform import (
    DEND_ONE,
    DendElement,
    dprec,
    dstar,
    dsucc,
    upcomb,
)
from treealg.bialgebra import (
    TensorSquareElement,
    brace_on_primitives,
    compat_defect,
    coproduct,
    is_primitive,
    primitive_dims,
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
            rhs = TensorSquareElement(LinComb())
            for (l1, r1), c1 in coproduct(x).combo.terms.items():
                for (l2, r2), c2 in coproduct(y).combo.terms.items():
                    left = dstar(_leg(l1), _leg(l2))
                    right = dstar(_leg(r1), _leg(r2))
                    rhs = rhs + tens(left, right).scale(c1 * c2)
            assert lhs == rhs


def _leg(key):
    return DEND_ONE if key.is_leaf() else DendElement.from_tree(key)


def test_coproduct_degree_compatible():
    e = dprec(dsucc(A, B), A)
    for (l, r), _ in coproduct(e).combo.terms.items():
        assert l.degree + r.degree == 3


def test_coassociativity_small():
    for d in range(1, 5):
        for t in pbt_basis(d, ["a", "b"]):
            assert _triple_coproduct_equal(t)


def test_compat_defects_generators():
    assert compat_defect(A, B, ">").is_zero()
    assert compat_defect(A, B, "<").is_zero()


def test_compat_defect_rejects_unit_part():
    with pytest.raises(AssertionError):
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
    images = [reduced_coproduct(DendElement.from_tree(t)).combo for t in trees]
    assert len(images) == 2 and images[0] == images[1]
    (v,) = kernel_basis(trees, images)
    # the free column is the second tree; the pivot coefficient solves for it
    assert v == LinComb([(trees[0], -1), (trees[1], 1)])


def test_primitive_dims_catalan():
    assert primitive_dims(1, 5) == {1: 1, 2: 1, 3: 2, 4: 5, 5: 14}


def test_primitives_echelon_deterministic():
    basis1 = primitives(3, 1)
    basis2 = primitives(3, 1)
    assert [str(p) for p in basis1] == [str(p) for p in basis2]
    assert len(basis1) == 2


def test_brace_on_primitives_examples():
    p = dprec(A, A) - dsucc(A, A)
    assert is_primitive(brace_on_primitives([A, A]))
    assert brace_on_primitives([A, A]) == p
    assert is_primitive(brace_on_primitives([A, A, A]))
    out = brace_on_primitives([p, A])
    assert is_primitive(out) and out.top_degree() == 3


def test_brace_on_primitives_rejects_non_primitive():
    with pytest.raises(ValueError):
        brace_on_primitives([dprec(A, A), A])


def test_primitives_closed_suite():
    result, defects = suite_primitives_closed(4)
    assert defects == []
    assert result["dims"] == {1: 1, 2: 1, 3: 2, 4: 5, 5: 14}


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
